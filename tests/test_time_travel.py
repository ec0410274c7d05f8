"""Time-travel debugging: checkpoint ring, rewind_to, reverse_continue.

The ring holds real repro.snap snapshots captured during Debugger.run();
rewind_to() restores the nearest one and deterministically replays (stop
hooks muted) to the requested boundary, and reverse_continue() lands on
the latest stop condition strictly earlier than the current position
with normal forward-stop semantics.
"""

import pytest

from repro.snap import SnapshotError
from repro.vp import SoC, SoCConfig
from repro.vp.debugger import Debugger
from repro.vp.script import DebugScriptEngine

LOOP = """
    li r1, 0
    li r2, 300
loop:
    addi r1, r1, 1
    sw r1, 80(r0)
    addi r2, r2, -1
    bne r2, r0, loop
    halt
"""


def _soc(quantum=8):
    return SoC(SoCConfig(n_cores=1, quantum=quantum, backend="compiled"),
               {0: LOOP})


class TestRing:
    def test_enable_captures_baseline_and_fills_during_run(self):
        dbg = Debugger(_soc())
        dbg.enable_time_travel(interval=100.0, capacity=4)
        assert len(dbg.checkpoints) == 1  # baseline
        dbg.run(until_time=1000)
        assert 1 < len(dbg.checkpoints) <= 4
        times = [snap.time for snap in dbg.checkpoints]
        assert times == sorted(times)

    def test_capacity_evicts_oldest(self):
        dbg = Debugger(_soc())
        dbg.enable_time_travel(interval=50.0, capacity=3)
        dbg.run(until_time=1500)
        assert len(dbg.checkpoints) == 3
        assert dbg.checkpoints[0].time > 0  # baseline evicted

    def test_validation_and_disable(self):
        dbg = Debugger(_soc())
        with pytest.raises(ValueError):
            dbg.enable_time_travel(interval=0)
        with pytest.raises(ValueError):
            dbg.enable_time_travel(capacity=0)
        dbg.enable_time_travel(interval=100.0)
        dbg.disable_time_travel()
        assert dbg.checkpoints == []


class TestRewindTo:
    def test_rewound_position_matches_straight_run(self):
        # quantum=1 so the event schedule is instruction-granular and a
        # fresh run chunks events identically to the replayed one
        soc = _soc(quantum=1)
        dbg = Debugger(soc)
        dbg.enable_time_travel(interval=200.0, capacity=16)
        dbg.run(until_time=1500)
        reason = dbg.rewind_to(700)
        assert reason.kind == "rewind"
        # a fresh platform stepped to the same boundary must agree
        chk = _soc(quantum=1)
        chk.start()
        while True:
            upcoming = chk.sim.peek_time()
            if upcoming is None or upcoming > 700:
                break
            chk.sim.step()
        assert soc.sim.now == chk.sim.now
        assert soc.cores[0].pc == chk.cores[0].pc
        assert soc.cores[0].regs == chk.cores[0].regs
        assert list(soc.ram.words) == list(chk.ram.words)

    def test_forward_rerun_reproduces_original_end_state(self):
        soc = _soc()
        dbg = Debugger(soc)
        dbg.enable_time_travel(interval=200.0, capacity=16)
        dbg.run(until_time=5000)  # runs to halt
        end_view = dbg.system_snapshot()
        dbg.rewind_to(600)
        assert soc.sim.now <= 600
        dbg.run(until_time=5000)
        assert dbg.system_snapshot() == end_view

    def test_rewind_before_ring_coverage_raises(self):
        soc = _soc()
        dbg = Debugger(soc)
        dbg.run(until_time=500)
        dbg.enable_time_travel(interval=100.0, capacity=4)
        dbg.run(until_time=1000)
        with pytest.raises(SnapshotError, match="no time-travel"):
            dbg.rewind_to(100)

    def test_rewind_does_not_fire_watchpoints(self):
        soc = _soc()
        dbg = Debugger(soc)
        dbg.enable_time_travel(interval=100.0, capacity=16)
        wp = dbg.add_watchpoint("write", address=80)
        while soc.sim.now < 600:  # writes hit every few cycles
            reason = dbg.run(until_time=2000)
            assert reason.kind == "watchpoint"
        hits_before = wp.hits
        dbg.rewind_to(soc.sim.now - 50)
        assert wp.hits == hits_before  # replay is mute


class TestReverseContinue:
    def test_walks_watchpoint_hits_backwards(self):
        soc = _soc()
        dbg = Debugger(soc)
        wp = dbg.add_watchpoint("write", address=80)
        dbg.enable_time_travel(interval=60.0, capacity=64)
        hits = []
        while len(hits) < 12:
            reason = dbg.run(until_time=10_000)
            if reason.kind != "watchpoint":
                break
            hits.append(soc.sim.now)
        assert len(hits) == 12

        before = wp.hits
        reason = dbg.reverse_continue()
        assert reason is not None and reason.kind == "watchpoint"
        assert soc.sim.now == hits[-2]
        assert wp.hits == before + 1  # landing replays the hit live

        reason = dbg.reverse_continue()
        assert reason is not None and soc.sim.now == hits[-3]

    def test_breakpoint_found_backwards(self):
        soc = _soc()
        dbg = Debugger(soc)
        dbg.enable_time_travel(interval=100.0, capacity=64)
        dbg.run(until_time=900)
        t_stop = soc.sim.now
        bp = dbg.add_breakpoint(0, 2)  # loop head, hit every iteration
        reason = dbg.reverse_continue()
        assert reason is not None and reason.kind == "breakpoint"
        assert soc.sim.now < t_stop
        assert bp.hits == 1 and not bp.enabled  # one-shot, as forward

    def test_nothing_earlier_restores_position(self):
        soc = _soc()
        dbg = Debugger(soc)
        dbg.enable_time_travel(interval=100.0, capacity=8)
        dbg.run(until_time=500)
        t, pc = soc.sim.now, soc.cores[0].pc
        regs = list(soc.cores[0].regs)
        assert dbg.reverse_continue() is None
        assert soc.sim.now == t and soc.cores[0].pc == pc
        assert soc.cores[0].regs == regs

    def test_forward_run_after_reverse_is_bit_identical(self):
        # travel back to a hit, then forward again: the end state equals
        # the original run's end state
        soc = _soc()
        dbg = Debugger(soc)
        dbg.add_watchpoint("write", address=80,
                           value_predicate=lambda v: v == 150)
        dbg.enable_time_travel(interval=100.0, capacity=64)
        reason = dbg.run(until_time=10_000)
        assert reason.kind == "watchpoint"
        dbg.run(until_time=10_000)  # to halt
        end_view = dbg.system_snapshot()
        assert dbg.reverse_continue() is not None  # back to the hit
        dbg.run(until_time=10_000)
        assert dbg.system_snapshot() == end_view


class TestScriptedRun:
    def _session(self, scripted):
        soc = SoC(SoCConfig(n_cores=1), {0: LOOP})
        dbg = Debugger(soc)
        dbg.enable_time_travel(interval=200.0, capacity=8)
        if scripted:
            DebugScriptEngine(soc, dbg).execute("run")
        else:
            dbg.run()
        return soc, dbg

    def test_scripted_run_fills_the_ring_like_debugger_run(self):
        soc, dbg = self._session(scripted=True)
        plain_soc, plain = self._session(scripted=False)
        times = [snap.time for snap in dbg.checkpoints]
        assert len(times) == 8
        assert times == [snap.time for snap in plain.checkpoints]
        # Rewinding after the scripted run lands bit-identically.
        dbg.rewind_to(1500)
        plain.rewind_to(1500)
        assert soc.sim.now == plain_soc.sim.now <= 1500
        assert dbg.system_snapshot() == plain.system_snapshot()
        assert list(soc.ram.words) == list(plain_soc.ram.words)
        assert soc.sim.event_count == plain_soc.sim.event_count
