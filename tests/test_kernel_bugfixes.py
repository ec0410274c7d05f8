"""Regression tests for the kernel/VP bugs fixed alongside the
observability subsystem.

Each test class pins one bug:

1. The per-instruction observer was a single slot -- installing a
   second observer silently clobbered the first (a ``Tracer`` would
   evict a profiler, or vice versa).  ``Cpu.add_post_instr_hook`` now
   appends to a list.
2. ``Simulator._finish`` re-raised a process error while ``_running``
   was still True, and ``done.trigger(None)``-style payloads let
   ``WaitProcess`` waiters mistake a crash for a clean exit.
3. ``Simulator.pending`` scanned the whole queue (O(n)) and
   ``peek_time`` sorted it; the VP debugger polls ``pending`` between
   every kernel event, so both must stay cheap.
4. ``Process.interrupt`` during a ``Delay`` left the original timer
   queued; without the resume-epoch guard the stale wakeup resumed the
   process a second time.
5. ``Simulator.run(max_events=0)`` executed one event: the budget was
   only checked after an action ran.
6. NaN times were accepted by ``Delay`` and ``Simulator.at`` (every
   comparison with NaN is False) and then broke the heap order silently.
   A ``spawn`` rejecting its NaN or past start delay still registered a
   live process that never ran.
7. ``Simulator.run(until=t)`` with ``t < now`` rewound the clock, and
   ``until=NaN`` was ignored: the run drained the whole queue.
"""

import math

import time

import pytest

from repro.desim import (
    Delay, Interrupted, Process, ProcessFailed, Simulator, WaitEvent,
    WaitProcess,
)
from repro.desim.events import Event
from repro.vp.soc import SoC, SoCConfig
from repro.vp.trace import Tracer

CALL_ASM = """
    jal sub
    jal sub
    halt
sub:
    ret
"""


class TestPostInstrHookStacking:
    """Bug 1: multiple per-instruction observers must coexist."""

    def test_two_tracers_both_observe(self):
        soc = SoC(SoCConfig(n_cores=1), {0: CALL_ASM})
        first = Tracer(soc)
        second = Tracer(soc)
        soc.run()
        expected = ["call", "ret", "call", "ret"]
        assert [e.kind for e in first.call_history(0)] == expected
        assert [e.kind for e in second.call_history(0)] == expected

    def test_tracer_and_manual_hook_coexist(self):
        soc = SoC(SoCConfig(n_cores=1), {0: CALL_ASM})
        tracer = Tracer(soc)
        core = soc.cores[0]
        seen = []
        core.add_post_instr_hook(lambda cpu, instr: seen.append(instr.op))
        soc.run()
        # The manual hook saw every retired instruction...
        assert len(seen) == core.instr_count
        # ...and the tracer installed earlier still saw the calls.
        assert [e.kind for e in tracer.call_history(0)] == \
            ["call", "ret", "call", "ret"]

    def test_remove_post_instr_hook(self):
        soc = SoC(SoCConfig(n_cores=1), {0: CALL_ASM})
        core = soc.cores[0]
        kept, removed = [], []
        core.add_post_instr_hook(lambda cpu, instr: kept.append(instr.op))
        hook = core.add_post_instr_hook(
            lambda cpu, instr: removed.append(instr.op))
        core.remove_post_instr_hook(hook)
        soc.run()
        assert len(kept) == core.instr_count
        assert removed == []


class TestErrorPropagation:
    """Bug 2: a crashed process must not wedge the simulator or hand its
    waiters a clean-looking ``None``."""

    @staticmethod
    def _bomb(sim, at=1.0):
        def body():
            yield Delay(at)
            raise RuntimeError("boom")
        return sim.spawn(body(), name="bomb")

    def test_run_reraises_and_resets_running(self):
        sim = Simulator()
        self._bomb(sim)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert sim._running is False

    def test_simulator_usable_after_failure(self):
        sim = Simulator()
        self._bomb(sim)
        with pytest.raises(RuntimeError):
            sim.run()
        ticks = []

        def ticker():
            yield Delay(1)
            ticks.append(sim.now)
        sim.spawn(ticker())
        sim.run()
        assert ticks == [2.0]

    def test_waiter_receives_process_failed(self):
        sim = Simulator()
        observed = []

        def parent():
            child = self._bomb(sim)
            try:
                yield WaitProcess(child)
                observed.append("clean")
            except ProcessFailed as failure:
                observed.append((sim.now, failure.process.name,
                                 type(failure.error).__name__))
        sim.spawn(parent())
        with pytest.raises(RuntimeError):
            sim.run()
        # The failure is delivered to the waiter on the next run, after
        # the caller has had its chance to see the raw error.
        sim.run()
        assert observed == [(1.0, "bomb", "RuntimeError")]

    def test_wait_on_already_dead_failed_process(self):
        sim = Simulator()
        child = self._bomb(sim)
        with pytest.raises(RuntimeError):
            sim.run()
        assert child.alive is False and child.error is not None
        observed = []

        def late_waiter():
            try:
                yield WaitProcess(child)
                observed.append("clean")
            except ProcessFailed as failure:
                observed.append(failure.error.args[0])
        sim.spawn(late_waiter())
        sim.run()
        assert observed == ["boom"]

    def test_done_event_waiters_also_see_the_failure(self):
        sim = Simulator()
        observed = []

        def watcher(child):
            try:
                yield WaitEvent(child.done)
                observed.append("clean")
            except ProcessFailed as failure:
                observed.append(type(failure.error).__name__)
        child = self._bomb(sim)
        sim.spawn(watcher(child))
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert observed == ["RuntimeError"]

    def test_successful_result_still_delivered(self):
        sim = Simulator()
        results = []

        def worker():
            yield Delay(2)
            return 42

        def parent():
            child = sim.spawn(worker())
            results.append((yield WaitProcess(child)))
        sim.spawn(parent())
        sim.run()
        assert results == [42]


class TestInterruptDuringDelay:
    """Bug 4: the stale timer of an interrupted ``Delay`` must not
    resume the process a second time (resume-epoch guard)."""

    def test_exactly_one_resume(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield Delay(10)
                log.append(("woke", sim.now))
            except Interrupted as exc:
                log.append(("interrupted", sim.now, exc.cause))
            # Stay alive well past the stale timer (t=10): if the epoch
            # guard were missing, the old wakeup would resume us early.
            yield Delay(20)
            log.append(("resumed", sim.now))
        proc = sim.spawn(sleeper())
        sim.at(3, lambda: proc.interrupt("stop"))
        sim.run()
        assert log == [("interrupted", 3.0, "stop"), ("resumed", 23.0)]

    def test_stale_wakeup_after_completion_is_discarded(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield Delay(10)
            except Interrupted:
                log.append(("interrupted", sim.now))
            # Process ends here; the t=10 timer is still queued.
        proc = sim.spawn(sleeper())
        sim.at(3, lambda: proc.interrupt())
        sim.run()
        assert log == [("interrupted", 3.0)]
        assert proc.alive is False
        assert sim.now == 10.0  # stale timer popped and ignored

    def test_interrupt_while_waiting_on_event(self):
        sim = Simulator()
        gate = Event("gate")
        log = []

        def waiter():
            try:
                yield WaitEvent(gate)
            except Interrupted:
                log.append(("interrupted", sim.now))
        proc = sim.spawn(waiter())
        sim.at(4, lambda: proc.interrupt())
        sim.at(6, lambda: gate.trigger("late"))
        sim.run()
        assert log == [("interrupted", 4.0)]


class TestPendingIsCheap:
    """Bug 3: ``pending`` is O(1) (the heap size minus its cancelled
    items) and ``peek_time`` only touches the heap top."""

    class _NoIterList(list):
        def __iter__(self):
            raise AssertionError(
                "pending/peek_time must not scan the whole queue")

    def test_pending_does_not_scan_the_queue(self):
        sim = Simulator()
        items = [sim.at(t, lambda: None) for t in range(100)]
        sim._queue = self._NoIterList(sim._queue)
        assert sim.pending == 100
        sim.cancel(items[10])
        sim.cancel(items[10])  # idempotent: no double decrement
        assert sim.pending == 99

    def test_peek_time_skips_cancelled_head_lazily(self):
        sim = Simulator()
        head = sim.at(1, lambda: None)
        sim.at(2, lambda: None)
        sim.cancel(head)
        sim._queue = self._NoIterList(sim._queue)
        assert sim.peek_time() == 2
        assert sim.pending == 1

    def test_cancel_after_execution_is_harmless(self):
        sim = Simulator()
        item = sim.at(1, lambda: None)
        sim.run()
        assert sim.pending == 0
        sim.cancel(item)  # already consumed: pending must not change
        assert sim.pending == 0

    def test_pending_counts_survive_a_full_run(self):
        sim = Simulator()

        def worker():
            for _ in range(5):
                yield Delay(1)
        sim.spawn(worker())
        sim.spawn(worker())
        sim.run()
        assert sim.pending == 0
        assert sim.peek_time() is None

    def test_pending_is_o1_microbench(self):
        """Micro-bench: querying ``pending`` must not get slower as the
        queue grows.  An O(n) scan makes the large case ~1000x the small
        one; the O(1) derivation keeps the ratio near 1 (generous bound to
        absorb timer noise)."""
        def time_queries(n, queries=2000):
            sim = Simulator()
            for t in range(n):
                sim.at(t + 1.0, lambda: None)
            start = time.perf_counter()
            total = 0
            for _ in range(queries):
                total += sim.pending
            elapsed = time.perf_counter() - start
            assert total == queries * n
            return elapsed

        small = min(time_queries(10) for _ in range(3))
        large = min(time_queries(10_000) for _ in range(3))
        assert large < small * 50 + 1e-3, \
            f"pending looks O(n): {small:.6f}s @10 vs {large:.6f}s @10k"


class TestEventBudget:
    """Bug 5: ``max_events`` is an exact budget, including zero."""

    @staticmethod
    def _sim_with_work():
        sim = Simulator()
        fired = []
        for t in range(3):
            sim.at(t, lambda t=t: fired.append(t))
        return sim, fired

    def test_zero_budget_executes_nothing(self):
        sim, fired = self._sim_with_work()
        assert sim.run(max_events=0) == 0
        assert fired == [] and sim.event_count == 0 and sim.pending == 3

    def test_zero_budget_does_not_advance_to_until(self):
        sim, fired = self._sim_with_work()
        assert sim.run(until=10, max_events=0) == 0
        assert fired == []

    def test_negative_budget_raises(self):
        sim, fired = self._sim_with_work()
        with pytest.raises(ValueError, match="max_events"):
            sim.run(max_events=-1)
        assert fired == [] and sim.pending == 3
        sim.run()  # the simulator stays usable
        assert fired == [0, 1, 2]

    def test_positive_budget_is_exact(self):
        sim, fired = self._sim_with_work()
        sim.run(max_events=2)
        assert fired == [0, 1]
        sim.run(max_events=1)
        assert fired == [0, 1, 2]


class TestNaNTimesRejected:
    """Bug 6: a NaN time is a documented ``ValueError``, never a queue
    entry."""

    def test_nan_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(math.nan)

    def test_nan_at_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="NaN"):
            sim.at(math.nan, lambda: None)
        with pytest.raises(ValueError, match="NaN"):
            sim.after(math.nan, lambda: None)
        assert sim.pending == 0

    def test_nan_start_delay_rejected(self):
        sim = Simulator()

        def body():
            yield Delay(1)
        with pytest.raises(ValueError):
            sim.spawn(body(), start_delay=math.nan)

    def test_rejected_spawn_registers_no_process(self):
        # The first resume is scheduled before the process is registered:
        # a failed spawn used to leave a live process that never ran.
        sim = Simulator()
        sim.run(until=5)

        def body():
            yield Delay(1)
        for delay in (math.nan, -1.0):
            with pytest.raises(ValueError):
                sim.spawn(body(), start_delay=delay)
        assert sim.processes == [] and sim.pending == 0
        proc = sim.spawn(body(), start_delay=2.0)
        sim.run()
        assert sim.processes == [proc] and not proc.alive and sim.now == 8

    def test_nan_delay_yield_fails_the_process(self):
        sim = Simulator()

        def body():
            yield Delay(1)
            yield Delay(math.nan)
        sim.spawn(body())
        with pytest.raises(ValueError):
            sim.run()
        assert sim.pending == 0


class TestRunUntilValidated:
    """Bug 7: ``run(until=)`` rejects a past or NaN bound, as ``at()``
    rejects a past or NaN time."""

    @staticmethod
    def _sim_at_ten():
        sim = Simulator()
        fired = []
        for t in (10, 20):
            sim.at(t, lambda t=t: fired.append(t))
        sim.run(until=10)
        return sim, fired

    def test_past_until_does_not_rewind_the_clock(self):
        sim, fired = self._sim_at_ten()
        assert sim.now == 10 and fired == [10]
        with pytest.raises(ValueError, match="past"):
            sim.run(until=5)
        assert sim.now == 10 and fired == [10] and sim.pending == 1

    def test_nan_until_does_not_drain_the_queue(self):
        sim, fired = self._sim_at_ten()
        with pytest.raises(ValueError, match="NaN"):
            sim.run(until=math.nan)
        assert sim.now == 10 and fired == [10] and sim.pending == 1

    def test_until_now_is_a_no_op_and_the_run_continues(self):
        sim, fired = self._sim_at_ten()
        assert sim.run(until=10) == 10
        assert fired == [10]
        assert sim.run() == 20
        assert fired == [10, 20]
