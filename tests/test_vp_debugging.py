"""Tests for the VP debugger, intrusive probe, tracer, and script engine —
the section-VII claims in executable form."""

import pytest

from repro.vp import (
    Debugger, HardwareProbe, SoC, SoCConfig, Tracer, assemble,
)
from repro.vp.script import DebugScriptEngine, ScriptError

RACY = """
    li r1, 100
    li r2, 0
    li r3, 10
loop:
    lw r6, 0(r1)
    addi r6, r6, 1
    sw r6, 0(r1)
    addi r2, r2, 1
    blt r2, r3, loop
    halt
"""

LOCKED = """
    li r1, 100
    li r2, 0
    li r3, 10
    li r4, 0x8000
loop:
acq:
    lw r5, 0(r4)
    bne r5, r0, acq
    lw r6, 0(r1)
    addi r6, r6, 1
    sw r6, 0(r1)
    sw r0, 0(r4)
    addi r2, r2, 1
    blt r2, r3, loop
    halt
"""


def dual_core(asm):
    return SoC(SoCConfig(n_cores=2), {0: asm, 1: asm})


class TestDebugger:
    def test_breakpoint_stops_before_instruction(self):
        soc = SoC(SoCConfig(n_cores=1), {0: "li r1, 5\nsw r1, 0(r0)\nhalt\n"})
        debugger = Debugger(soc)
        debugger.add_breakpoint(0, 1)  # before the sw
        reason = debugger.run()
        assert reason.kind == "breakpoint"
        assert soc.cores[0].pc == 1
        assert soc.mem(0) == 0  # store has NOT happened yet
        reason = debugger.run()
        assert reason.kind == "halted"
        assert soc.mem(0) == 5

    def test_memory_watchpoint(self):
        soc = dual_core(RACY)
        debugger = Debugger(soc)
        wp = debugger.add_watchpoint("write", 100)
        reason = debugger.run()
        assert reason.kind == "watchpoint"
        assert wp.hits >= 1
        time, kind, address, value, master = wp.last_hit
        assert address == 100 and kind == "write"

    def test_watchpoint_master_filter(self):
        soc = dual_core(RACY)
        debugger = Debugger(soc)
        wp = debugger.add_watchpoint("write", 100, master="core1")
        debugger.run()
        assert wp.last_hit[4] == "core1"

    def test_signal_watchpoint_on_halt(self):
        soc = SoC(SoCConfig(n_cores=1), {0: "li r1, 1\nhalt\n"})
        debugger = Debugger(soc)
        debugger.add_signal_watchpoint("core0.halted", edge="posedge")
        reason = debugger.run()
        assert reason.kind == "watchpoint"
        assert "core0.halted" in reason.detail

    def test_detach_unsubscribes_signal_watchpoints(self):
        # A live pc watchpoint pins the core to the reference path; after
        # detach the run must cost exactly what an undebugged run costs.
        loop = ("li r1, 0\nli r2, 2000\nloop:\naddi r1, r1, 1\n"
                "blt r1, r2, loop\nhalt\n")
        free = SoC(SoCConfig(n_cores=1, backend="compiled"), {0: loop})
        free.run()
        soc = SoC(SoCConfig(n_cores=1, backend="compiled"), {0: loop})
        debugger = Debugger(soc)
        debugger.add_signal_watchpoint("core0.pc")
        debugger.detach()
        assert not soc.cores[0].pc_signal.observed
        soc.run()
        assert soc.sim.event_count == free.sim.event_count
        assert soc.cores[0].state() == free.cores[0].state()

    def test_bad_signal_edge_leaves_no_watchpoint(self):
        soc = SoC(SoCConfig(n_cores=1), {0: "halt\n"})
        debugger = Debugger(soc)
        with pytest.raises(ValueError, match="rising"):
            debugger.add_signal_watchpoint("core0.halted", edge="rising")
        assert debugger.watchpoints == []
        assert not soc.cores[0].halted_signal.observed

    def test_consistent_snapshot_while_suspended(self):
        soc = dual_core(LOCKED)
        debugger = Debugger(soc)
        debugger.add_watchpoint("write", 100)
        debugger.run()
        snapshot = debugger.system_snapshot()
        assert len(snapshot["cores"]) == 2
        assert "sem" in snapshot["peripherals"]
        assert "core0.pc" in snapshot["signals"]
        # Memory readable through the back door without side effects.
        sem_before = soc.semaphores.peek(0)
        debugger.read_memory(0x8000)  # debugger read of semaphore bank
        assert soc.semaphores.peek(0) == sem_before

    def test_step_instruction(self):
        soc = SoC(SoCConfig(n_cores=1),
                  {0: "li r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt\n"})
        debugger = Debugger(soc)
        debugger.step_instruction(0)
        assert soc.cores[0].instr_count == 1
        debugger.step_instruction(0)
        assert soc.cores[0].instr_count == 2

    def test_non_intrusiveness_property(self):
        """The headline claim: running under the debugger with watchpoints
        gives bit-identical outcomes to free running."""
        free = dual_core(RACY)
        free.run()
        debugged = dual_core(RACY)
        debugger = Debugger(debugged)
        debugger.add_watchpoint("write", 100)
        while True:
            reason = debugger.run()
            if reason.kind in ("halted", "idle"):
                break
        assert debugged.mem(100) == free.mem(100)
        assert [c.cycle_count for c in debugged.cores] == \
            [c.cycle_count for c in free.cores]


class TestHeisenbug:
    def test_vp_reproduces_bug_deterministically(self):
        results = {dual_core(RACY).run() or dual_core(RACY).mem(100)
                   for _ in range(3)}
        socs = []
        for _ in range(3):
            soc = dual_core(RACY)
            soc.run()
            socs.append(soc.mem(100))
        assert len(set(socs)) == 1
        assert socs[0] < 20  # the race loses updates every time

    def test_intrusive_probe_changes_behaviour(self):
        baseline = dual_core(RACY)
        baseline.run()
        probed = dual_core(RACY)
        probe = HardwareProbe(probed, core_id=0, breakpoint_stall=137)
        probe.add_breakpoint(3)  # the lw in the loop
        probed.run()
        assert probed.mem(100) != baseline.mem(100)
        assert probe.log.breakpoint_stalls == 1
        assert probe.log.cycles_injected >= 137

    def test_heavy_probe_makes_bug_vanish(self):
        """Serializing the cores with a long stall hides the lost updates:
        the canonical Heisenbug."""
        probed = dual_core(RACY)
        probe = HardwareProbe(probed, core_id=0, breakpoint_stall=500)
        probe.add_breakpoint(3)
        probed.run()
        baseline = dual_core(RACY)
        baseline.run()
        assert probed.mem(100) > baseline.mem(100)

    def test_monitor_overhead_perturbs(self):
        probed = dual_core(RACY)
        HardwareProbe(probed, core_id=0, monitor_overhead=0.7)
        probed.run()
        baseline = dual_core(RACY)
        baseline.run()
        assert probed.mem(100) != baseline.mem(100)

    def test_detach_restores(self):
        soc = dual_core(RACY)
        probe = HardwareProbe(soc, core_id=0, monitor_overhead=1.0)
        probe.detach()
        soc.run()
        baseline = dual_core(RACY)
        baseline.run()
        assert soc.mem(100) == baseline.mem(100)

    def test_second_probe_on_a_core_is_refused(self):
        # Regression: a second probe used to overwrite the first one's
        # stall hook, and the first probe's detach then cleared it.
        soc = dual_core(RACY)
        first = HardwareProbe(soc, core_id=0, breakpoint_stall=50)
        first.add_breakpoint(2)
        with pytest.raises(ValueError, match="core0"):
            HardwareProbe(soc, core_id=0, breakpoint_stall=50)
        assert soc.cores[0]._sync_requests == 1
        other_core = HardwareProbe(soc, core_id=1, breakpoint_stall=50)
        other_core.add_breakpoint(3)
        soc.run()
        assert first.log.breakpoint_stalls == 1
        assert other_core.log.breakpoint_stalls == 1

    def test_detach_clears_only_its_own_hook(self):
        soc = dual_core(RACY)
        probe = HardwareProbe(soc, core_id=0)
        foreign = lambda cpu: 0.0  # noqa: E731
        soc.cores[0].stall_hook = foreign
        probe.detach()
        assert soc.cores[0].stall_hook is foreign
        assert soc.cores[0]._sync_requests == 0


class TestTracer:
    def test_memory_trace_with_masters(self):
        soc = dual_core(RACY)
        tracer = Tracer(soc)
        soc.run()
        accesses = tracer.accesses_to(100)
        masters = {e.detail["master"] for e in accesses}
        assert masters == {"core0", "core1"}
        signature = tracer.interleaving_signature(100)
        assert "core0" in signature and "core1" in signature

    def test_call_history(self):
        asm = """
            jal sub
            jal sub
            halt
        sub:
            ret
        """
        soc = SoC(SoCConfig(n_cores=1), {0: asm})
        tracer = Tracer(soc)
        soc.run()
        history = tracer.call_history(0)
        kinds = [e.kind for e in history]
        assert kinds == ["call", "ret", "call", "ret"]

    def test_irq_trace(self):
        soc = SoC(SoCConfig(n_cores=1), {0: """
            li r1, 0x8100
            li r2, 5
            sw r2, 1(r1)
            li r2, 1
            sw r2, 0(r1)
            li r3, 0
        spin:
            addi r3, r3, 1
            li r4, 30
            blt r3, r4, spin
            halt
        """})
        tracer = Tracer(soc)
        soc.run()
        irqs = tracer.of_kind("irq")
        assert any(e.detail["signal"] == "timer0.irq" for e in irqs)

    def test_trace_is_nonintrusive(self):
        traced = dual_core(RACY)
        Tracer(traced, trace_instructions=True)
        traced.run()
        free = dual_core(RACY)
        free.run()
        assert traced.mem(100) == free.mem(100)


class TestScriptEngine:
    def test_assertion_detects_violation(self):
        soc = dual_core(RACY)
        engine = DebugScriptEngine(soc)
        engine.execute("""
        ; counter must reach core-local progress without exceeding 20
        assert mem(100) <= 6 :: counter passed six
        run
        """)
        assert engine.violations  # counter passes 6 eventually

    def test_expect_stops_on_violation(self):
        soc = dual_core(RACY)
        engine = DebugScriptEngine(soc)
        engine.execute("expect mem(100) < 3 :: stop early\nrun\n")
        assert engine.last_stop.kind == "assertion"
        assert soc.mem(100) >= 3

    def test_assertions_are_nonintrusive(self):
        free = dual_core(RACY)
        free.run()
        asserted = dual_core(RACY)
        engine = DebugScriptEngine(asserted)
        engine.execute("assert mem(100) <= 999 :: never fires\nrun\n")
        assert not engine.violations
        assert asserted.mem(100) == free.mem(100)

    def test_print_and_eval(self):
        soc = SoC(SoCConfig(n_cores=1), {0: "li r1, 9\nsw r1, 7(r0)\nhalt\n"})
        engine = DebugScriptEngine(soc)
        engine.execute("run\nprint mem(7)\n")
        assert engine.printed == ["mem(7) = 9"]
        assert engine.eval("reg(0, 1) + 1") == 10
        assert engine.eval("halted(0)") == 1

    def test_watch_command(self):
        soc = dual_core(RACY)
        engine = DebugScriptEngine(soc)
        engine.execute("watch write 100 master=dma\n")  # never hits
        engine.execute("run")
        assert engine.last_stop.kind in ("idle", "halted")

    def test_bad_commands_raise(self):
        soc = SoC(SoCConfig(n_cores=1), {0: "halt\n"})
        engine = DebugScriptEngine(soc)
        with pytest.raises(ScriptError):
            engine.command("frobnicate")
        with pytest.raises(ScriptError):
            engine.command("watch banana 3")
        with pytest.raises(ScriptError):
            engine.command("assert ((( :: broken")
        with pytest.raises(ScriptError):
            engine.eval("this is not python")
        # Malformed numbers, cores, signals and edges name their line.
        for script in ("break x 3", "run ten", "watch write zz",
                       "break 5 0", "step 1", "watch signal nosuch posedge",
                       "watch signal timer0.irq sideways"):
            with pytest.raises(ScriptError, match="line 2: "):
                engine.execute("print 1\n" + script)


def _e12_bench():
    """The E12 bench module (benchmarks/ is not a package)."""
    import importlib.util
    from pathlib import Path
    path = (Path(__file__).resolve().parents[1] / "benchmarks"
            / "test_bench_e12_assertions.py")
    spec = importlib.util.spec_from_file_location("_e12_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every scripted session of this file and of the E12 bench, plus
# sessions that mix breakpoints, watchpoints, budgets and stops.
SCRIPTED_SESSIONS = [
    ("racy", "assert mem(100) <= 6 :: counter passed six\nrun\n"),
    ("racy", "expect mem(100) < 3 :: stop early\nrun\n"),
    ("racy", "assert mem(100) <= 999 :: never fires\nrun\n"),
    ("store", "run\nprint mem(7)\n"),
    ("racy", "watch write 100 master=dma\nrun\n"),
    ("e12", "assert mem(200) == 7 or reg(0, 2) < 8 :: dma overran "
            "into core0 buffer\nrun\n"),
    ("e12", "watch write 200 master=dma\nrun\nrun\nrun 40\nrun\n"),
    ("racy", "break 0 4\nbreak 1 6\nrun\nrun\nstep 0\nrun 25\nrun\n"),
    ("racy", "watch read 100\nexpect mem(100) < 4 :: four\nrun\nrun\n"
             "run\nrun\n"),
    ("locked", "watch access 0x8000 master=core1\n"
               "assert mem(100) <= 20 :: never\nrun 30\nrun\nrun\n"),
]


def _scripted_session(firmware: str, script: str):
    if firmware == "e12":
        soc = _e12_bench().build()
    elif firmware == "store":
        soc = SoC(SoCConfig(n_cores=1), {0: "li r1, 9\nsw r1, 7(r0)\nhalt\n"})
    else:
        soc = dual_core(RACY if firmware == "racy" else LOCKED)
    engine = DebugScriptEngine(soc)
    stops = []
    for line in script.splitlines():
        engine.execute(line)
        if line.split()[0] == "run":
            stops.append((engine.last_stop.kind, engine.last_stop.time))
    debugger = engine.debugger
    return (stops,
            [(v.time, v.message) for v in engine.violations],
            [bp.hits for bp in debugger.breakpoints],
            [wp.hits for wp in debugger.watchpoints],
            engine.printed)


class TestScriptedSessionsPinned:
    """Stops, violations and hit counts of scripted sessions, recorded
    before the script ``run`` verb became :meth:`Debugger.run`."""

    def test_sessions_are_pinned(self):
        import hashlib
        digest = hashlib.sha256()
        for firmware, script in SCRIPTED_SESSIONS:
            digest.update(repr(_scripted_session(firmware, script)).encode())
        assert digest.hexdigest()[:16] == "6ea45c27ae03828c"
