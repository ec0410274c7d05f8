"""Tests for the section-II many-core HW/OS model."""

import pytest

from repro.manycore import (
    ActorSystem, AppSpec, FrequencyGovernor, LocalityModel, Machine,
    MemoryAccessPlan, NoCModel, amdahl_speedup, mesh_distance, run_hybrid,
    run_space_shared, run_time_shared,
)
from repro.desim import Simulator
from repro.manycore.memory import locality_sweep


class TestMachine:
    def test_homogeneous(self):
        machine = Machine.homogeneous(8)
        assert machine.is_homogeneous
        assert machine.total_frequency == pytest.approx(8.0)

    def test_heterogeneous_split(self):
        machine = Machine.heterogeneous(8, {"isaA": 0.5, "isaB": 0.5})
        assert len(machine.cores_with_isa("isaA")) == 4
        assert not machine.is_homogeneous

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            Machine.heterogeneous(8, {"isaA": 0.5, "isaB": 0.3})

    def test_mesh_distance(self):
        assert mesh_distance(0, 0, 4) == 0
        assert mesh_distance(0, 5, 4) == 2   # (0,0)->(1,1)
        assert mesh_distance(3, 12, 4) == 6  # (3,0)->(0,3)

    def test_power_budget_check(self):
        machine = Machine.homogeneous(4, power_budget=4.0)
        machine.cores[0].freq = 2.0
        with pytest.raises(ValueError):
            machine.check_power()


class TestFrequencyGovernor:
    def test_amdahl_formula(self):
        assert amdahl_speedup(16, 0.0) == pytest.approx(16.0)
        assert amdahl_speedup(16, 1.0) == pytest.approx(1.0)
        assert amdahl_speedup(16, 0.2) == pytest.approx(4.0)
        assert amdahl_speedup(16, 0.2, serial_boost=4.0) == pytest.approx(10.0)

    def test_boost_within_budget(self):
        machine = Machine.homogeneous(4, power_budget=8.0)
        governor = FrequencyGovernor(machine)
        lease = governor.boost(machine.cores[0], 3.0)
        assert lease is not None
        assert machine.cores[0].freq == 3.0
        governor.release(lease)
        assert machine.cores[0].freq == 1.0

    def test_boost_throttles_victims(self):
        machine = Machine.homogeneous(4, power_budget=4.0)
        governor = FrequencyGovernor(machine)
        lease = governor.boost(machine.cores[0], 3.0,
                               throttleable=machine.cores[1:])
        assert lease is not None
        assert machine.total_frequency <= 4.0 + 1e-9
        governor.release(lease)
        assert machine.total_frequency == pytest.approx(4.0)

    def test_boost_denied_over_max_freq(self):
        machine = Machine.homogeneous(2)
        governor = FrequencyGovernor(machine)
        assert governor.boost(machine.cores[0], 100.0) is None
        assert governor.boosts_denied == 1

    def test_boost_denied_without_headroom(self):
        machine = Machine.homogeneous(2, power_budget=2.0)
        governor = FrequencyGovernor(machine)
        assert governor.boost(machine.cores[0], 3.0) is None

    def test_phase_model_boost_speedup(self):
        machine = Machine.homogeneous(8)
        governor = FrequencyGovernor(machine)
        result = governor.run_amdahl_phase_model(
            serial_work=50, parallel_work=200, n_workers=8, boost_to=2.0)
        assert result["boosted"] < result["unboosted"]
        assert result["speedup"] == pytest.approx(
            (50 + 25) / (25 + 25), rel=1e-6)


class TestSchedulers:
    def test_time_shared_fair_progress(self):
        machine = Machine(2)
        apps = [AppSpec("a", work=10), AppSpec("b", work=10),
                AppSpec("c", work=10)]
        outcome = run_time_shared(machine, apps, quantum=1.0,
                                  ctx_overhead=0.0)
        assert len(outcome.results) == 3
        assert outcome.makespan == pytest.approx(15.0)

    def test_space_shared_gang(self):
        machine = Machine(4)
        outcome = run_space_shared(machine,
                                   [AppSpec("p", work=40, threads=4)],
                                   dispatch_overhead=0.0)
        assert outcome.result_of("p").finish == pytest.approx(10.0)

    def test_space_shared_queues_when_full(self):
        machine = Machine(4)
        apps = [AppSpec("p1", work=40, threads=4),
                AppSpec("p2", work=40, threads=4)]
        outcome = run_space_shared(machine, apps, dispatch_overhead=0.0)
        assert outcome.result_of("p2").finish == pytest.approx(20.0)

    def test_space_shared_edf_order(self):
        machine = Machine(2)
        apps = [AppSpec("loose", work=20, threads=2, deadline=100),
                AppSpec("tight", work=20, threads=2, deadline=15)]
        # Both arrive at 0 but capacity admits one at a time: EDF picks tight.
        outcome = run_space_shared(machine, apps, dispatch_overhead=0.0)
        assert outcome.result_of("tight").finish < \
            outcome.result_of("loose").finish

    def test_unplaceable_app_reported(self):
        machine = Machine.heterogeneous(4, {"isaA": 0.5, "isaB": 0.5})
        app = AppSpec("x", work=10, threads=3,
                      thread_isas=["isaA", "isaA", "isaA"])
        outcome = run_space_shared(machine, [app])
        assert outcome.unplaceable == 1
        assert outcome.result_of("x").deadline_met is False
        # A thread pinned to an ISA no core has: every policy records it.
        pinned = AppSpec("x", work=4, deadline=10.0,
                         thread_isas=["isaC"])
        other = AppSpec("y", work=4)
        for outcome in (run_time_shared(machine, [pinned, other]),
                        run_hybrid(machine, [pinned, other], ts_cores=2)):
            assert outcome.unplaceable == 1
            assert outcome.deadline_misses == 1
            assert outcome.result_of("x").finish == float("inf")
            assert outcome.result_of("y").finish < float("inf")

    def test_isa_pinning_in_time_shared(self):
        machine = Machine.heterogeneous(4, {"isaA": 0.5, "isaB": 0.5})
        app = AppSpec("x", work=40, threads=4,
                      thread_isas=["isaA"] * 3 + ["isaB"])
        outcome = run_time_shared(machine, [app], quantum=2.0,
                                  ctx_overhead=0.0)
        # 3 threads of 10 work on 2 isaA cores: 15 two-unit quanta over two
        # cores -> one core runs 8 quanta = 16 (quantum granularity).
        assert outcome.makespan == pytest.approx(16.0)

    def test_hybrid_partitions_cores(self):
        machine = Machine(8)
        apps = [AppSpec("par", work=60, threads=6, deadline=11, rt=True),
                AppSpec("s1", work=3), AppSpec("s2", work=3)]
        outcome = run_hybrid(machine, apps, ts_cores=2, quantum=0.5,
                             ctx_overhead=0.0, dispatch_overhead=0.0)
        assert outcome.result_of("par").deadline_met
        assert outcome.result_of("s1").finish <= 6.0

    def test_hybrid_validation(self):
        with pytest.raises(ValueError):
            run_hybrid(Machine(2), [], ts_cores=2)

    def test_arrivals_respected(self):
        machine = Machine(1)
        outcome = run_time_shared(machine,
                                  [AppSpec("late", work=2, arrival=10.0)],
                                  quantum=5.0, ctx_overhead=0.0)
        result = outcome.result_of("late")
        assert result.finish == pytest.approx(12.0)
        assert result.response_time == pytest.approx(2.0)


class TestMemoryLocality:
    def test_crossover(self):
        model = LocalityModel()
        plan = MemoryAccessPlan(accesses=1, block_words=32, hops=3)
        # One access: remote wins (no transfer amortization).
        assert plan.time_remote(model) < plan.time_enforced_local(model)
        many = MemoryAccessPlan(accesses=100, block_words=32, hops=3)
        assert many.time_enforced_local(model) < many.time_remote(model)
        crossover = plan.crossover_accesses(model)
        assert 1 < crossover < 100

    def test_sweep_shape(self):
        machine = Machine(16)
        model = LocalityModel()
        sweep = locality_sweep(machine, model, block_words=64,
                               access_counts=[1, 10, 1000])
        assert sweep[1]["remote"] < sweep[1]["enforced_local"]
        assert sweep[1000]["enforced_local"] < sweep[1000]["remote"]


class TestMessagingAndActors:
    def test_noc_latency_model(self):
        sim = Simulator()
        machine = Machine(16)
        noc = NoCModel(sim, machine, base_latency=5, per_hop=2, per_word=1)
        expected = 5 + 2 * machine.distance(0, 15) + 1 * 8
        assert noc.latency_for(0, 15, 8) == pytest.approx(expected)

    def test_same_pair_fifo_order(self):
        sim = Simulator()
        machine = Machine(4)
        noc = NoCModel(sim, machine)
        noc.send(0, 1, "first", size_words=100)   # slow message
        noc.send(0, 1, "second", size_words=1)    # fast message, same pair
        sim.run()
        mbox = noc.mailbox(1)
        first = mbox.receive_nowait()[1]
        second = mbox.receive_nowait()[1]
        assert (first.payload, second.payload) == ("first", "second")

    def test_actor_ping_pong(self):
        system = ActorSystem(Machine(4))
        ping = system.actor("ping")
        pong = system.actor("pong")
        log = []

        def on_ball(actor, message):
            log.append((actor.name, message.payload))
            if message.payload < 4:
                target = pong if actor is ping else ping
                actor.send(target, message.payload + 1, tag="ball")

        ping.on("ball", on_ball)
        pong.on("ball", on_ball)
        system.inject(ping, 0, tag="ball")
        system.run()
        assert [p for _, p in log] == [0, 1, 2, 3, 4]

    def test_actor_compute_advances_time(self):
        system = ActorSystem(Machine(2))
        worker = system.actor("w")
        times = []

        def on_work(actor, message):
            actor.compute(50.0)
            times.append(system.sim.now)

        worker.on("work", on_work)
        system.inject(worker, None, tag="work")
        system.inject(worker, None, tag="work")
        end = system.run()
        assert end >= 100.0  # two sequential 50-cycle computations

    def test_unknown_tag_goes_to_dead_letters(self):
        system = ActorSystem(Machine(2))
        actor = system.actor("a")
        system.inject(actor, None, tag="nonexistent")
        system.run()
        assert len(system.dead_letters) == 1

    def test_core_exclusivity(self):
        system = ActorSystem(Machine(2))
        system.actor("a", core_id=0)
        with pytest.raises(ValueError):
            system.actor("b", core_id=0)


class TestPeriodicExpansion:
    def test_jobs_generated_to_horizon(self):
        from repro.manycore.os_scheduler import expand_periodic
        spec = AppSpec("rt", work=5, threads=2, deadline=8, rt=True,
                       period=10.0)
        jobs = expand_periodic([spec], horizon=35.0)
        assert [j.name for j in jobs] == ["rt#0", "rt#1", "rt#2", "rt#3"]
        assert [j.arrival for j in jobs] == [0.0, 10.0, 20.0, 30.0]
        assert all(j.deadline == 8 and j.threads == 2 for j in jobs)

    def test_aperiodic_pass_through(self):
        from repro.manycore.os_scheduler import expand_periodic
        spec = AppSpec("once", work=5)
        assert expand_periodic([spec], horizon=100.0) == [spec]

    def test_bad_period_rejected(self):
        import pytest as _pytest
        from repro.manycore.os_scheduler import expand_periodic
        with _pytest.raises(ValueError):
            expand_periodic([AppSpec("x", work=1, period=0.0)], 10.0)

    def test_periodic_stream_schedules_end_to_end(self):
        from repro.manycore.os_scheduler import expand_periodic
        machine = Machine(4)
        stream = expand_periodic(
            [AppSpec("rt", work=8, threads=4, deadline=4, rt=True,
                     period=5.0)], horizon=40.0)
        outcome = run_space_shared(machine, stream, dispatch_overhead=0.0)
        assert len(outcome.results) == 8
        assert outcome.rt_deadline_misses == 0
        # Tighten the period below the service time: misses appear.
        stream = expand_periodic(
            [AppSpec("rt", work=8, threads=4, deadline=1.5, rt=True,
                     period=1.0)], horizon=20.0)
        outcome = run_space_shared(machine, stream, dispatch_overhead=0.0)
        assert outcome.rt_deadline_misses > 0
