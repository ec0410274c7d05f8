"""Tests for remaining edge paths across packages."""

import pytest

from repro.desim import Delay, Event, Interrupted, Simulator, WaitEvent
from repro.hopes import ArchInfo, parse_arch_xml, to_arch_xml
from repro.hopes.archfile import InterconnectInfo, ProcessorInfo
from repro.manycore import ActorSystem, Machine
from repro.maps import ApplicationSpec
from repro.recoder import TransformError, split_loop_fission
from repro.cir import parse
from repro.vp import Debugger, SoC, SoCConfig


class TestKernelEdges:
    def test_interrupt_during_delay_is_prompt(self):
        sim = Simulator()
        caught = []

        def sleeper():
            try:
                yield Delay(1000)
            except Interrupted:
                caught.append(sim.now)

        proc = sim.spawn(sleeper())
        sim.after(5, lambda: proc.interrupt())
        sim.run()
        assert caught == [5]  # not 1000: delivery did not wait out the delay

    def test_max_events_budget(self):
        sim = Simulator()

        def ticker():
            while True:
                yield Delay(1)

        sim.spawn(ticker())
        sim.run(max_events=10)
        assert sim.event_count == 10

    def test_stale_timer_after_interrupt_does_not_double_resume(self):
        """Regression: a process interrupted mid-Delay that keeps running
        must not be spuriously re-resumed when the original timer fires."""
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield Delay(100)
            except Interrupted:
                pass
            # Keep living well past t=100 so a stale resume would hit us.
            for _ in range(30):
                log.append(sim.now)
                yield Delay(10)

        proc = sim.spawn(sleeper())
        sim.after(5, lambda: proc.interrupt())
        sim.run()
        # Exactly 30 ticks, evenly spaced from t=5 -- no extra wakeups.
        assert log == [5 + 10 * k for k in range(30)]

    def test_interrupt_dead_process_noop(self):
        sim = Simulator()

        def quick():
            return
            yield

        proc = sim.spawn(quick())
        sim.run()
        proc.interrupt()  # must not raise or reschedule
        assert not proc.alive


class TestDebuggerEdges:
    PROG = "li r1, 3\nsw r1, 0(r0)\nli r1, 9\nsw r1, 1(r0)\nhalt\n"

    def test_run_until_time(self):
        soc = SoC(SoCConfig(n_cores=1), {0: self.PROG})
        debugger = Debugger(soc)
        reason = debugger.run(until_time=2.0)
        assert reason.kind == "limit"
        assert soc.sim.now >= 2.0
        assert not soc.cores[0].halted

    def test_value_predicate_watchpoint(self):
        soc = SoC(SoCConfig(n_cores=1), {0: self.PROG})
        debugger = Debugger(soc)
        wp = debugger.add_watchpoint("write", 0, length=2,
                                     value_predicate=lambda v: v == 9)
        reason = debugger.run()
        assert reason.kind == "watchpoint"
        assert wp.last_hit[3] == 9  # skipped the value-3 write

    def test_breakpoint_reenable(self):
        loop = """
            li r2, 0
        top:
            addi r2, r2, 1
            li r3, 3
            blt r2, r3, top
            halt
        """
        soc = SoC(SoCConfig(n_cores=1), {0: loop})
        debugger = Debugger(soc)
        bp = debugger.add_breakpoint(0, 1)  # the addi
        hits = 0
        while True:
            reason = debugger.run()
            if reason.kind != "breakpoint":
                break
            hits += 1
            bp.enabled = True  # re-arm
            debugger.step_instruction(0)  # move past the breakpoint
        assert hits == 3

    def test_bad_watchpoint_kind(self):
        soc = SoC(SoCConfig(n_cores=1), {0: "halt\n"})
        with pytest.raises(ValueError):
            Debugger(soc).add_watchpoint("banana", 0)
        with pytest.raises(ValueError):
            Debugger(soc).add_watchpoint("write")


class TestArchfileEdges:
    def test_constraints_roundtrip(self):
        info = ArchInfo(name="x", model="shared",
                        processors=[ProcessorInfo("p", "smp")],
                        interconnect=InterconnectInfo("bus", 1.0, 0.5),
                        constraints={"max_channel_capacity": 16.0})
        again = parse_arch_xml(to_arch_xml(info))
        assert again.constraints["max_channel_capacity"] == 16.0


class TestActorsEdges:
    def test_actor_stop_ends_processing(self):
        system = ActorSystem(Machine(2))
        actor = system.actor("a")
        seen = []

        def handler(me, message):
            seen.append(message.payload)
            me.stop()

        actor.on("m", handler)
        system.inject(actor, 1, tag="m")
        system.inject(actor, 2, tag="m")
        system.run()
        assert seen == [1]


class TestSpecValidation:
    def test_application_spec_needs_exactly_one_input(self):
        with pytest.raises(ValueError):
            ApplicationSpec("x")
        program = parse("int main() { return 0; }")
        from repro.maps import TaskGraph
        with pytest.raises(ValueError):
            ApplicationSpec("x", program=program, task_graph=TaskGraph())

    def test_fission_cut_bounds(self):
        source = """
        int A[4];
        int main() { int i;
          for (i = 0; i < 4; i++) { A[i] = i; }
          return A[0]; }
        """
        program = parse(source)
        with pytest.raises(TransformError, match="out of range"):
            split_loop_fission(program, "main", 4, 5)

