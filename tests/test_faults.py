"""Tests for the deterministic fault-injection + resilience layer.

Covers the `repro.faults` package (plans, injector, SoC hardware
faults), the desim timeout primitives (`Watchdog`, `with_timeout`), the
reliable NoC transport under fault campaigns, the resilient OS scheduler
(dead-core recovery), the RT deadline policies, and the resource
cancellation-safety / wakeup regressions that ride along in the same PR.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.desim import (Delay, Event, Mailbox, ProcessFailed,
                         Resource, Simulator, WaitEvent,
                         WaitProcess, Watchdog, WatchdogTimeout,
                         with_timeout)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.manycore.machine import Machine
from repro.manycore.messaging import NoCModel
from repro.manycore.os_scheduler import (AppSpec, run_resilient,
                                         run_time_shared)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceSink
from repro.rt.pipeline import PipelineSpec
from repro.rt.data_driven import run_data_driven
from repro.rt.time_triggered import run_time_triggered


# ---------------------------------------------------------------------------
# FaultPlan: seeded, declarative, deterministic
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_builders_chain_and_store_specs(self):
        plan = (FaultPlan(seed=42)
                .crash_core(1, at=10.0)
                .hang_core(2, at=20.0)
                .flip_ram_bit(addr=5, bit=3, at=7.5)
                .drop_messages(p=0.1)
                .delay_messages(p=0.2, max_extra=4.0))
        kinds = [s.kind for s in plan.scheduled]
        assert kinds == ["core_crash", "core_hang", "ram_flip"]
        assert plan.scheduled[2].param("addr") == 5
        assert plan.scheduled[2].param("bit") == 3
        assert plan.message_rules["drop"].probability == 0.1
        assert plan.message_rules["delay"].max_extra == 4.0
        assert not plan.empty

    def test_same_seed_same_campaign(self):
        def build(seed):
            return (FaultPlan(seed)
                    .random_ram_flips(10, window=(0, 100),
                                      addr_range=(0, 256))
                    .random_core_crashes([0, 1], window=(50, 80)))
        a, b = build(7), build(7)
        assert a.scheduled == b.scheduled
        c = build(8)
        assert c.scheduled != a.scheduled

    def test_rng_streams_independent(self):
        plan = FaultPlan(seed=5)
        xs = [plan.rng("a").random() for _ in range(3)]
        ys = [plan.rng("b").random() for _ in range(3)]
        assert xs != ys
        assert xs == [plan.rng("a").random() for _ in range(3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().at(-1.0, "core_crash", 0)
        with pytest.raises(ValueError):
            FaultPlan().drop_messages(p=1.5)
        with pytest.raises(ValueError):
            FaultPlan().delay_messages(p=0.1, max_extra=-1.0)


class TestFaultPlanFluentAndSerialization:
    def test_dict_roundtrip_is_exact(self):
        plan = (FaultPlan(seed=11)
                .crash_core(0, at=5.0)
                .flip_ram_bit(addr=9, bit=1, at=2.0)
                .random_ram_flips(4, window=(0, 50), addr_range=(0, 64))
                .drop_messages(0.15)
                .delay_messages(0.05, max_extra=3.0))
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.seed == plan.seed
        assert clone.scheduled == plan.scheduled
        assert clone.message_rules == plan.message_rules
        assert clone.to_dict() == plan.to_dict()

    def test_dict_roundtrip_survives_json(self):
        plan = FaultPlan(seed=7).flip_ram_bit(addr=3, bit=0, at=1.5) \
                                .duplicate_messages(0.2)
        wire = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(wire).to_dict() == plan.to_dict()

    def test_from_dict_rejects_unknown_rule_kinds(self):
        with pytest.raises(ValueError, match="unknown message rule"):
            FaultPlan.from_dict({"seed": 0, "message_rules":
                                 {"teleport": {"p": 0.1}}})

    def test_empty_plan_roundtrip(self):
        plan = FaultPlan(seed=4)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.empty and clone.seed == 4


# ---------------------------------------------------------------------------
# FaultInjector basics
# ---------------------------------------------------------------------------

class TestFaultInjector:
    def test_scheduled_fault_fires_at_exact_time(self):
        sim = Simulator()
        plan = FaultPlan(seed=0).at(12.5, "custom", "x", value=3)
        inj = FaultInjector(sim, plan)
        seen = []
        inj.register("custom", "x",
                     lambda spec: seen.append((sim.now, spec.param("value")))
                     or True)
        sim.run()
        assert seen == [(12.5, 3)]
        assert len(inj.injected) == 1
        assert inj.metrics.counter("faults.injected").value == 1

    def test_unhandled_fault_is_recorded_not_raised(self):
        sim = Simulator()
        inj = FaultInjector(sim, FaultPlan().at(1.0, "nonsense"))
        sim.run()
        assert len(inj.unhandled) == 1
        assert inj.metrics.counter("faults.unhandled").value == 1

    def test_kill_process_builtin(self):
        sim = Simulator()
        log = []

        def victim():
            while True:
                log.append(sim.now)
                yield Delay(1.0)

        sim.spawn(victim(), name="victim")
        FaultInjector(sim, FaultPlan().kill_process("victim", at=3.5))
        sim.run(until=10.0)
        assert log == [0.0, 1.0, 2.0, 3.0]

    def test_fault_emits_trace_event(self):
        sim = Simulator()
        sink = TraceSink()
        FaultInjector(sim, FaultPlan().at(2.0, "nonsense"), sink=sink)
        sim.run()
        events = sink.instants(name="fault.nonsense")
        assert len(events) == 1
        assert events[0].args["applied"] is False
        assert events[0].ts == 2.0

    def test_note_recovery_feeds_mttr(self):
        sim = Simulator()
        inj = FaultInjector(sim, FaultPlan())
        inj.note_recovery("task_restart", mttr=4.0, core=1)
        assert inj.metrics.counter("faults.recoveries").value == 1
        assert inj.metrics.histogram("faults.mttr").count == 1


# ---------------------------------------------------------------------------
# SoC hardware faults: RAM/register flips, stuck interrupts
# ---------------------------------------------------------------------------

class TestSoCFaults:
    def _make_soc(self, sim):
        from repro.vp.soc import SoC, SoCConfig
        return SoC(SoCConfig(n_cores=1, ram_words=64), {0: "halt\n"},
                   sim=sim)

    def test_ram_and_register_flip(self):
        sim = Simulator()
        soc = self._make_soc(sim)
        soc.ram.words[10] = 0b1000
        soc.cores[0].regs[2] = 1
        plan = (FaultPlan()
                .flip_ram_bit(addr=10, bit=0, at=1.0)
                .flip_register(core=0, reg=2, bit=4, at=2.0))
        inj = FaultInjector(sim, plan)
        soc.instrument(faults=inj)
        sim.run(until=5.0)
        assert soc.ram.words[10] == 0b1001
        assert soc.cores[0].regs[2] == 1 | (1 << 4)
        assert len(inj.injected) == 2

    def test_flip_out_of_range_is_unhandled_not_fatal(self):
        sim = Simulator()
        soc = self._make_soc(sim)
        plan = (FaultPlan()
                .flip_ram_bit(addr=10_000, bit=0, at=1.0)
                .flip_register(core=0, reg=0, bit=1, at=1.5))  # r0 hardwired
        inj = FaultInjector(sim, plan)
        soc.instrument(faults=inj)
        sim.run(until=5.0)
        assert len(inj.unhandled) == 2

    def test_stuck_interrupt_holds_line_until_released(self):
        sim = Simulator()
        soc = self._make_soc(sim)
        line = soc.cores[0].irq
        inj = FaultInjector(sim, FaultPlan().stick_interrupt(0, at=1.0))
        soc.instrument(faults=inj)
        sim.run(until=2.0)
        assert line.read() == 1
        line.write(0)  # a handler tries to clear it...
        sim.run(until=3.0)
        assert line.read() == 1  # ...but the line is stuck
        inj.release_stuck_interrupts()
        assert line.read() == 0

    def test_stuck_interrupt_with_duration_self_releases(self):
        sim = Simulator()
        soc = self._make_soc(sim)
        line = soc.cores[0].irq
        inj = FaultInjector(sim, FaultPlan().stick_interrupt(
            0, at=1.0, duration=4.0))
        soc.instrument(faults=inj)
        sim.run(until=2.0)
        assert line.read() == 1
        sim.run(until=10.0)
        assert line.read() == 0


# ---------------------------------------------------------------------------
# Watchdog + with_timeout
# ---------------------------------------------------------------------------

class TestWatchdog:
    def test_bites_once_when_kicks_stop(self):
        sim = Simulator()
        bites = []
        wd = Watchdog(sim, timeout=5.0, on_bite=lambda w: bites.append(sim.now))
        for t in (2.0, 4.0, 6.0):
            sim.at(t, wd.kick)
        sim.run(until=30.0)
        assert bites == [11.0]  # last kick at 6.0 + timeout
        assert wd.bites == 1 and not wd.armed

    def test_steady_kicks_never_bite(self):
        sim = Simulator()
        wd = Watchdog(sim, timeout=3.0, on_bite=lambda w: pytest.fail("bite"))

        def kicker():
            for _ in range(20):
                wd.kick()
                yield Delay(1.0)

        sim.spawn(kicker())
        sim.run(until=19.0)
        wd.stop()
        sim.run()
        assert wd.bites == 0

    def test_stop_disarms_pending_check(self):
        sim = Simulator()
        wd = Watchdog(sim, timeout=2.0, on_bite=lambda w: pytest.fail("bite"))
        sim.at(1.0, wd.stop)
        sim.run()
        assert wd.bites == 0

    def test_restart_after_bite(self):
        sim = Simulator()
        bites = []
        wd = Watchdog(sim, timeout=2.0, on_bite=lambda w: bites.append(sim.now))
        sim.run(until=3.0)
        assert bites == [2.0]
        wd.start()
        sim.run(until=10.0)
        assert bites == [2.0, 5.0]

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            Watchdog(Simulator(), timeout=0.0, on_bite=lambda w: None)


class TestWithTimeout:
    def test_event_completes_in_time(self):
        sim = Simulator()
        ev = Event("e")
        got = []

        def waiter():
            value = yield from with_timeout(sim, ev, 10.0)
            got.append(value)

        sim.spawn(waiter())
        sim.at(3.0, lambda: ev.trigger("payload"))
        sim.run()
        assert got == ["payload"]

    def test_event_timeout_raises(self):
        sim = Simulator()
        ev = Event("e")
        got = []

        def waiter():
            try:
                yield from with_timeout(sim, ev, 10.0, name="slow")
            except WatchdogTimeout as exc:
                got.append((sim.now, exc.name))

        sim.spawn(waiter())
        sim.run()
        assert got == [(10.0, "slow")]

    def test_process_target_returns_result(self):
        sim = Simulator()
        got = []

        def worker():
            yield Delay(2.0)
            return 99

        def waiter(proc):
            got.append((yield from with_timeout(sim, proc, 10.0)))

        proc = sim.spawn(worker())
        sim.spawn(waiter(proc))
        sim.run()
        assert got == [99]

    def test_failed_process_target_raises_processfailed(self):
        sim = Simulator()
        got = []

        def worker():
            yield Delay(1.0)
            raise RuntimeError("boom")

        def waiter(proc):
            try:
                yield from with_timeout(sim, proc, 10.0)
            except ProcessFailed as exc:
                got.append(repr(exc.error))

        proc = sim.spawn(worker())
        sim.spawn(waiter(proc))
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()  # let the waiter observe the failure
        assert got == ["RuntimeError('boom')"]

    def test_generator_target_killed_on_timeout(self):
        sim = Simulator()
        cleaned = []

        def body():
            try:
                yield Delay(100.0)
            finally:
                cleaned.append(sim.now)

        def waiter():
            with pytest.raises(WatchdogTimeout):
                yield from with_timeout(sim, body(), 5.0)

        sim.spawn(waiter())
        sim.run()
        assert cleaned == [5.0]

    def test_already_dead_process_short_circuits(self):
        sim = Simulator()

        def worker():
            return 7
            yield  # pragma: no cover

        proc = sim.spawn(worker())
        sim.run()
        got = []

        def waiter():
            got.append((yield from with_timeout(sim, proc, 1.0)))

        sim.spawn(waiter())
        sim.run()
        assert got == [7]

    def test_timer_cancelled_after_completion(self):
        # The timeout timer must not keep the queue alive after the wait
        # completes (zero-cost cleanup).
        sim = Simulator()
        ev = Event("e")

        def waiter():
            yield from with_timeout(sim, ev, 1000.0)

        sim.spawn(waiter())
        sim.at(1.0, lambda: ev.trigger(None))
        end = sim.run()
        assert end == 1.0  # queue drained; the 1000.0 timer was cancelled


# ---------------------------------------------------------------------------
# Reliable NoC under fault campaigns
# ---------------------------------------------------------------------------

def _drain_payloads(noc, core):
    mbox = noc.mailbox(core)
    out = []
    while len(mbox):
        _, message = mbox.receive_nowait()
        out.append(message.payload)
    return out


class TestReliableNoC:
    def test_best_effort_unchanged_without_faults(self):
        sim = Simulator()
        noc = NoCModel(sim, Machine(4))
        noc.send(0, 3, "hello", size_words=2)
        sim.run()
        got = _drain_payloads(noc, 3)
        assert got == ["hello"]
        assert noc.messages_sent == 1
        assert noc.in_flight == 0

    def test_reliable_mode_without_faults_delivers_once(self):
        sim = Simulator()
        noc = NoCModel(sim, Machine(4), reliable=True)
        for i in range(10):
            noc.send(0, 2, i)
        sim.run()
        assert _drain_payloads(noc, 2) == list(range(10))
        assert noc.in_flight == 0
        assert noc.undeliverable == 0

    @pytest.mark.parametrize("p", [0.1, 0.2])
    def test_reliable_survives_drops(self, p):
        sim = Simulator()
        inj = FaultInjector(sim, FaultPlan(seed=21).drop_messages(p))
        noc = NoCModel(sim, Machine(4), reliable=True)
        inj.attach_noc(noc)
        for i in range(60):
            noc.send(0, 3, i)
        sim.run()
        got = _drain_payloads(noc, 3)
        assert sorted(got) == list(range(60))
        assert noc.undeliverable == 0
        assert inj.metrics.counter("noc.retries").value > 0

    def test_reliable_suppresses_duplicates(self):
        sim = Simulator()
        inj = FaultInjector(sim, FaultPlan(seed=5).duplicate_messages(0.5))
        noc = NoCModel(sim, Machine(4), reliable=True)
        inj.attach_noc(noc)
        for i in range(40):
            noc.send(1, 2, i)
        sim.run()
        got = _drain_payloads(noc, 2)
        assert sorted(got) == list(range(40))  # exactly once each
        assert inj.metrics.counter("noc.dup_suppressed").value > 0

    def test_reliable_discards_corrupted_and_retries(self):
        sim = Simulator()
        inj = FaultInjector(sim, FaultPlan(seed=9).corrupt_messages(0.3))
        noc = NoCModel(sim, Machine(4), reliable=True)
        inj.attach_noc(noc)
        for i in range(40):
            noc.send(0, 1, i)
        sim.run()
        got = _drain_payloads(noc, 1)
        assert sorted(got) == list(range(40))
        assert inj.metrics.counter("noc.corrupt_discarded").value > 0

    def test_best_effort_with_faults_loses_messages(self):
        # Without the reliable layer the same campaign visibly loses data
        # (the control experiment).
        sim = Simulator()
        inj = FaultInjector(sim, FaultPlan(seed=21).drop_messages(0.3))
        noc = NoCModel(sim, Machine(4))  # best effort
        inj.attach_noc(noc)
        for i in range(60):
            noc.send(0, 3, i)
        sim.run()
        assert len(_drain_payloads(noc, 3)) < 60

    def test_undeliverable_after_max_retries(self):
        sim = Simulator()
        inj = FaultInjector(sim, FaultPlan(seed=1).drop_messages(1.0))
        noc = NoCModel(sim, Machine(4), reliable=True, max_retries=3)
        inj.attach_noc(noc)
        noc.send(0, 1, "doomed")
        sim.run()
        assert noc.undeliverable == 1
        assert noc.in_flight == 0
        assert _drain_payloads(noc, 1) == []

    def test_same_seed_same_delivery_schedule(self):
        def campaign(seed):
            sim = Simulator()
            sink = TraceSink()
            plan = (FaultPlan(seed)
                    .drop_messages(0.2)
                    .duplicate_messages(0.1)
                    .delay_messages(0.2, max_extra=10.0)
                    .corrupt_messages(0.1))
            inj = FaultInjector(sim, plan, sink=sink)
            noc = NoCModel(sim, Machine(4), reliable=True)
            inj.attach_noc(noc)
            for i in range(30):
                noc.send(0, 3, i)
            sim.run()
            mbox = noc.mailbox(3)
            deliveries = []
            while len(mbox):
                _, m = mbox.receive_nowait()
                deliveries.append((m.payload, m.delivered_at, m.attempts))
            return deliveries, json.dumps(sink.to_chrome(), sort_keys=True)

        d1, t1 = campaign(33)
        d2, t2 = campaign(33)
        assert d1 == d2
        assert t1 == t2  # byte-identical trace
        d3, _ = campaign(34)
        assert d3 != d1

    def test_delivered_messages_do_not_follow_string_hashing(self):
        # Every field of a delivered reliable message, string payloads
        # included, must be the same in every process.
        script = """
from repro.desim import Simulator
from repro.faults import FaultInjector, FaultPlan
from repro.manycore.machine import Machine
from repro.manycore.messaging import NoCModel
sim = Simulator()
plan = (FaultPlan(seed=12).drop_messages(0.2).duplicate_messages(0.2)
        .corrupt_messages(0.2))
noc = NoCModel(sim, Machine(4), reliable=True)
FaultInjector(sim, plan).attach_noc(noc)
for i in range(30):
    noc.send(i % 4, (i + 1) % 4, ("block", str(i), {"q": i}), tag="jpeg")
sim.run()
for core in range(4):
    mailbox = noc.mailbox(core)
    while len(mailbox):
        print(repr(mailbox.receive_nowait()))
"""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        outputs = []
        for hash_seed in (0, 1):
            env = dict(os.environ, PYTHONPATH=src,
                       PYTHONHASHSEED=str(hash_seed))
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert outputs[0].count("Message(") == 30
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Resilient OS scheduling: dead-core detection, restart, migration
# ---------------------------------------------------------------------------

class TestResilientScheduler:
    def _apps(self, n=6, work=20.0):
        return [AppSpec(f"app{i}", work=work) for i in range(n)]

    def test_no_faults_matches_plain_time_sharing(self):
        machine = Machine(4)
        fault_free = run_resilient(machine, self._apps())
        baseline = run_time_shared(Machine(4), self._apps())
        assert fault_free.makespan == pytest.approx(baseline.makespan)
        assert fault_free.unplaceable == 0
        assert fault_free.metrics.counter("os.core_deaths").value == 0

    def test_core_crash_recovers_and_completes(self):
        sim = Simulator()
        sink = TraceSink()
        inj = FaultInjector(sim, FaultPlan(seed=2).crash_core(1, at=5.0),
                            sink=sink)
        out = run_resilient(Machine(4), self._apps(), injector=inj)
        assert out.unplaceable == 0
        assert all(r.finish != float("inf") for r in out.results)
        assert out.metrics.counter("os.core_deaths").value == 1
        assert out.metrics.counter("os.task_restarts").value == 1
        mttr = out.metrics.histogram("os.mttr")
        assert mttr.count == 1
        assert 0.0 < mttr.mean <= 4.0  # bounded by the heartbeat timeout
        names = {record.name for record in sink.instants()}
        assert "fault.core_crash" in names
        assert "recover.core_dead" in names
        assert "recover.core_reap" in names

    def test_core_hang_is_detected_and_reaped(self):
        sim = Simulator()
        inj = FaultInjector(sim, FaultPlan(seed=2).hang_core(2, at=7.0))
        out = run_resilient(Machine(4), self._apps(), injector=inj)
        assert out.unplaceable == 0
        assert all(r.finish != float("inf") for r in out.results)
        assert out.metrics.counter("os.core_deaths").value == 1

    def test_work_migrates_off_dead_core(self):
        # A 2-core machine with one core crashed must finish everything
        # on the survivor.
        sim = Simulator()
        inj = FaultInjector(sim, FaultPlan(seed=4).crash_core(0, at=3.0))
        out = run_resilient(Machine(2), self._apps(n=4, work=10.0),
                            injector=inj)
        assert out.unplaceable == 0
        assert out.metrics.counter("os.core_deaths").value == 1
        slower = run_resilient(Machine(1), self._apps(n=4, work=10.0))
        # Post-crash the machine is effectively single-core, so the
        # makespan must land between the 2-core and 1-core extremes.
        assert out.makespan <= slower.makespan

    def test_all_cores_dead_records_inf_not_deadlock(self):
        sim = Simulator()
        plan = FaultPlan(seed=0).crash_core(0, at=2.0).crash_core(1, at=2.5)
        inj = FaultInjector(sim, plan)
        out = run_resilient(Machine(2), self._apps(n=3, work=50.0),
                            injector=inj)
        assert out.unplaceable == 3
        assert all(r.finish == float("inf") for r in out.results)

    def test_heartbeat_timeout_validation(self):
        with pytest.raises(ValueError):
            run_resilient(Machine(2), self._apps(n=1), quantum=1.0,
                          ctx_overhead=0.01, heartbeat_timeout=0.5)

    def test_same_seed_byte_identical_traces(self):
        def campaign():
            sim = Simulator()
            sink = TraceSink()
            plan = FaultPlan(seed=13).crash_core(1, at=4.0).hang_core(
                3, at=9.0)
            inj = FaultInjector(sim, plan, sink=sink)
            out = run_resilient(Machine(4), self._apps(), injector=inj)
            return out.makespan, json.dumps(sink.to_chrome(),
                                            sort_keys=True)

        m1, t1 = campaign()
        m2, t2 = campaign()
        assert m1 == m2
        assert t1 == t2


# ---------------------------------------------------------------------------
# RT deadline policies
# ---------------------------------------------------------------------------

def _overrunning_spec():
    # Stage "work" overruns its 2.0 slot on every 3rd job.
    spec = PipelineSpec(period=10.0)
    spec.add_stage("src", 1.0)
    spec.add_stage("work", 2.0,
                   exec_time_fn=lambda j: 5.0 if j % 3 == 1 else 1.5)
    spec.add_stage("snk", 1.0)
    return spec


class TestRtPolicies:
    def test_tt_default_counts_misses_and_corrupts(self):
        result = run_time_triggered(_overrunning_spec(), jobs=12)
        assert result.deadline_misses == 4
        assert result.internal_corruptions > 0  # historical behaviour

    def test_tt_skip_keeps_schedule(self):
        result = run_time_triggered(_overrunning_spec(), jobs=12,
                                    overrun_policy="skip")
        assert result.jobs_skipped == 4
        assert result.deadline_misses == 4
        # Lateness no longer cascades: only the skipped jobs' consumers
        # see stale data, the rest of the stream is clean.
        ok = [item for item in result.delivered if item.ok]
        assert len(ok) >= 12 - 2 * result.jobs_skipped

    def test_tt_degrade_eliminates_corruption(self):
        result = run_time_triggered(_overrunning_spec(), jobs=12,
                                    overrun_policy="degrade",
                                    degrade_factor=0.3)
        assert result.degraded_jobs == 4
        assert result.internal_corruptions == 0
        assert all(item.ok for item in result.delivered)

    def test_tt_policy_validation(self):
        with pytest.raises(ValueError):
            run_time_triggered(_overrunning_spec(), jobs=1,
                               overrun_policy="panic")
        with pytest.raises(ValueError):
            run_time_triggered(_overrunning_spec(), jobs=1,
                               overrun_policy="degrade", degrade_factor=0.0)

    def test_dd_degrade_reduces_misses(self):
        spec = PipelineSpec(period=4.0)
        spec.add_stage("src", 1.0)
        spec.add_stage("work", 2.0,
                       exec_time_fn=lambda j: 6.0 if 3 <= j <= 6 else 1.5)
        spec.add_stage("snk", 0.5)
        plain = run_data_driven(spec, jobs=20)
        degraded = run_data_driven(spec, jobs=20, deadline_policy="degrade",
                                   degrade_factor=0.25)
        assert plain.sink_misses > 0
        assert degraded.degraded_firings > 0
        assert degraded.sink_misses <= plain.sink_misses
        assert degraded.deadline_misses == degraded.sink_misses

    def test_dd_skip_sheds_load(self):
        spec = PipelineSpec(period=4.0)
        spec.add_stage("src", 1.0)
        spec.add_stage("work", 2.0,
                       exec_time_fn=lambda j: 6.0 if 3 <= j <= 6 else 1.5)
        spec.add_stage("snk", 0.5)
        shed = run_data_driven(spec, jobs=20, deadline_policy="skip")
        assert shed.skipped_firings > 0
        assert shed.internal_corruptions == 0

    def test_dd_policy_validation(self):
        spec = PipelineSpec(period=4.0)
        spec.add_stage("only", 1.0)
        with pytest.raises(ValueError):
            run_data_driven(spec, jobs=1, deadline_policy="panic")


# ---------------------------------------------------------------------------
# Satellite regressions: resource cancellation safety + wakeup storms
# ---------------------------------------------------------------------------

class TestResourceCancellation:
    def test_killed_waiter_releases_its_ticket(self):
        # Regression: a waiter killed mid-acquire used to leave its ticket
        # queued forever, deadlocking every later waiter.
        sim = Simulator()
        resource = Resource(capacity=1)
        order = []

        def holder():
            yield from resource.acquire()
            yield Delay(10.0)
            resource.release()

        def waiter(name):
            yield from resource.acquire()
            order.append((sim.now, name))
            yield Delay(1.0)
            resource.release()

        sim.spawn(holder())
        doomed = sim.spawn(waiter("doomed"))
        sim.spawn(waiter("survivor"))
        sim.at(5.0, lambda: sim.kill(doomed))
        sim.run()
        assert order == [(10.0, "survivor")]
        assert resource.in_use == 0
        assert not resource._wait_queue

    def test_killed_head_waiter_wakes_next_when_capacity_free(self):
        # The head waiter dies while capacity is available but before it
        # consumed its wakeup: the next ticket must still be admitted.
        sim = Simulator()
        resource = Resource(capacity=2)
        order = []

        def holder():
            yield from resource.acquire()
            yield from resource.acquire()
            yield Delay(10.0)
            resource.release()  # frees one unit at t=10

        def waiter(name):
            yield from resource.acquire()
            order.append((sim.now, name))

        sim.spawn(holder())
        doomed = sim.spawn(waiter("doomed"))
        sim.spawn(waiter("survivor"))
        # Kill the head waiter exactly when the release that would admit
        # it is delivered: priority of callbacks at t=10 puts the kill
        # first (scheduled earlier is not possible; use 9.99).
        sim.at(9.99, lambda: sim.kill(doomed))
        sim.run()
        assert order == [(10.0, "survivor")]

    def test_priority_resource_killed_waiter_releases_entry(self):
        sim = Simulator()
        resource = Resource(1)
        order = []

        def holder():
            yield from resource.acquire(priority=0)
            yield Delay(10.0)
            resource.release()

        def waiter(name, priority):
            yield from resource.acquire(priority)
            order.append(name)
            resource.release()

        sim.spawn(holder())
        urgent = sim.spawn(waiter("urgent", 1))
        sim.spawn(waiter("casual", 5))
        sim.at(5.0, lambda: sim.kill(urgent))
        sim.run()
        assert order == ["casual"]
        assert resource.waiting == 0

    def test_contention_count_preserved(self):
        # The pre-existing semantics the rewrite must not change.
        sim = Simulator()
        resource = Resource(capacity=1)

        def user():
            yield from resource.acquire()
            yield Delay(1.0)
            resource.release()

        for _ in range(3):
            sim.spawn(user())
        sim.run()
        assert resource.contention_count == 2
        assert resource.total_acquisitions == 3

    def test_no_wakeup_storm_on_acquire(self):
        # Regression: every successful acquire used to re-trigger
        # `_released`, waking all queued waiters just to re-block them.
        sim = Simulator()
        resource = Resource(capacity=1)
        triggers = []
        resource._released.subscribe(lambda _: triggers.append(sim.now))

        def user():
            yield from resource.acquire()
            yield Delay(1.0)
            resource.release()

        for _ in range(5):
            sim.spawn(user())
        sim.run()
        # Exactly one trigger per release that had a waiter to admit
        # (4 of the 5 releases; the last finds an empty queue).
        assert len(triggers) == 4


# ---------------------------------------------------------------------------
# Satellite: ProcessFailed propagation through Mailbox and Resource waits
# ---------------------------------------------------------------------------

class TestProcessFailedPropagation:
    def test_mailbox_receiver_observes_forwarded_failure(self):
        # Supervisor pattern: a monitor watches a worker and forwards its
        # failure into the receiver's blocking wait.
        sim = Simulator()
        mailbox = Mailbox("inbox")
        observed = []

        def worker():
            yield Delay(1.0)
            raise ValueError("worker exploded")

        def receiver():
            try:
                yield from mailbox.receive()
            except ProcessFailed as exc:
                observed.append(repr(exc.error))

        def monitor(proc):
            try:
                yield WaitProcess(proc)
            except ProcessFailed as exc:
                mailbox.arrived_event.trigger(exc)

        proc = sim.spawn(worker())
        sim.spawn(receiver())
        sim.spawn(monitor(proc))
        with pytest.raises(ValueError):
            sim.run()
        sim.run()
        assert observed == ["ValueError('worker exploded')"]

    def test_resource_waiter_observes_forwarded_failure_and_cleans_up(self):
        sim = Simulator()
        resource = Resource(capacity=1)
        observed = []

        def holder():
            yield from resource.acquire()
            yield Delay(20.0)
            resource.release()

        def contender():
            try:
                yield from resource.acquire()
            except ProcessFailed as exc:
                observed.append(repr(exc.error))

        def worker():
            yield Delay(1.0)
            raise RuntimeError("dead dependency")

        def monitor(proc):
            try:
                yield WaitProcess(proc)
            except ProcessFailed as exc:
                resource._released.trigger(exc)

        proc = sim.spawn(worker())
        sim.spawn(holder())
        sim.spawn(contender())
        sim.spawn(monitor(proc))
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert observed == ["RuntimeError('dead dependency')"]
        # The failed waiter's ticket must be gone (cancellation safety),
        # and only the holder ever acquired the resource.
        assert len(resource._wait_queue) == 0
        assert resource.total_acquisitions == 1

    def test_waitprocess_direct_propagation(self):
        sim = Simulator()
        observed = []

        def worker():
            yield Delay(1.0)
            raise OSError("io down")

        def waiter(proc):
            try:
                yield WaitProcess(proc)
            except ProcessFailed as exc:
                observed.append(type(exc.error).__name__)

        proc = sim.spawn(worker())
        sim.spawn(waiter(proc))
        with pytest.raises(OSError):
            sim.run()
        sim.run()
        assert observed == ["OSError"]
