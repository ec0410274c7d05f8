"""Tests for the discrete-event simulation kernel."""

import hashlib
import random

import pytest

from repro.desim import (
    Delay, Event, Interrupted, ProcessFailed, SimObserver, Simulator,
    WaitEvent, WaitProcess,
)


def test_delay_ordering():
    sim = Simulator()
    log = []

    def proc(name, period):
        while True:
            log.append((sim.now, name))
            yield Delay(period)

    sim.spawn(proc("a", 2))
    sim.spawn(proc("b", 3))
    sim.run(until=6)
    assert log[:5] == [(0, "a"), (0, "b"), (2, "a"), (3, "b"), (4, "a")]


def test_run_until_advances_time_to_horizon():
    sim = Simulator()

    def empty():
        return
        yield  # pragma: no cover

    sim.spawn(empty())  # immediately-finished process
    end = sim.run(until=50)
    assert end == 50
    assert sim.now == 50


def test_run_returns_last_event_time_without_until():
    sim = Simulator()

    def proc():
        yield Delay(7)

    sim.spawn(proc())
    end = sim.run()
    assert end == 7


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1)


def test_wait_event_receives_payload():
    sim = Simulator()
    event = Event("e")
    got = []

    def waiter():
        payload = yield WaitEvent(event)
        got.append(payload)

    def firer():
        yield Delay(5)
        event.trigger("hello")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == ["hello"]


def test_yield_bare_event_waits():
    sim = Simulator()
    event = Event("e")
    got = []

    def waiter():
        value = yield event
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.after(3, lambda: event.trigger(42))
    sim.run()
    assert got == [(3, 42)]


def test_wait_process_returns_result():
    sim = Simulator()
    results = []

    def child():
        yield Delay(4)
        return 99

    def parent():
        proc = sim.spawn(child())
        value = yield WaitProcess(proc)
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(4, 99)]


def test_wait_on_finished_process_resumes_immediately():
    sim = Simulator()
    results = []

    def child():
        return "done"
        yield  # pragma: no cover

    def parent():
        proc = sim.spawn(child())
        yield Delay(10)  # child finishes long before
        value = yield WaitProcess(proc)
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(10, "done")]


def test_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield Delay(1)
        raise RuntimeError("boom")

    sim.spawn(bad())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_interrupt_waiting_process():
    sim = Simulator()
    event = Event("never")
    caught = []

    def waiter():
        try:
            yield WaitEvent(event)
        except Interrupted as exc:
            caught.append((sim.now, exc.cause))

    proc = sim.spawn(waiter())
    sim.after(5, lambda: proc.interrupt("timeout"))
    sim.run()
    assert caught == [(5, "timeout")]
    assert not event.has_waiters


def test_kill_process():
    sim = Simulator()
    log = []

    def worker():
        while True:
            log.append(sim.now)
            yield Delay(1)

    proc = sim.spawn(worker())
    sim.after(3, lambda: sim.kill(proc))
    sim.run(until=10)
    assert not proc.alive
    assert max(log) <= 3


def test_kill_reports_the_finish_to_observers():
    # A killed process has ended: observers hear of it through
    # on_process_finish (error None), so a probe's finish count covers
    # every ended process and no blocked-wait bookkeeping leaks.
    from repro.obs.probe import observe
    sim = Simulator()
    probe = observe(sim)
    gate = Event("gate")

    def waiter():
        yield WaitEvent(gate)

    def sleeper():
        yield Delay(100)

    targets = [sim.spawn(waiter(), name="waiter"),
               sim.spawn(sleeper(), name="sleeper")]

    def killer():
        yield Delay(5)
        for target in targets:
            sim.kill(target)

    sim.spawn(killer(), name="killer")
    sim.run()
    assert not any(target.alive for target in targets)
    assert all(target.error is None for target in targets)
    assert probe.metrics.counter("kernel.finishes").value == 3
    assert probe.metrics.counter("kernel.failures").value == 0
    assert probe._blocked_since == {}


def _rearm_trace(observer=None):
    """Delay-driven processes with tied times and priorities, plus an
    interrupt racing a Delay (the busy-record fallback); returns the
    executed order and the kernel's event count."""
    sim = Simulator()
    if observer is not None:
        sim.add_observer(observer)
    trace = []

    def ticker(name, period, count):
        try:
            for _ in range(count):
                yield Delay(period)
                trace.append((sim.now, name))
        except Interrupted:
            trace.append((sim.now, f"{name}!"))
            yield Delay(1)
            trace.append((sim.now, f"{name}:after"))

    procs = [sim.spawn(ticker(f"t{index}", 1 + index % 3, 12),
                       name=f"t{index}", priority=index % 2)
             for index in range(6)]
    sim.at(7.5, lambda: procs[2].interrupt("poke"))
    sim.run()
    return trace, sim.event_count


def test_schedule_hooks_see_every_rearm_in_unchanged_order():
    # With an on_schedule hook installed the Delay re-arm takes the
    # _schedule_resume path: every re-arm is still reported, and the
    # executed order equals the probe-less run.
    from repro.obs.probe import KernelProbe

    class Recording(KernelProbe):
        def __init__(self):
            super().__init__()
            self.scheduled = []
            self.executed = []

        def on_schedule(self, sim, item):
            super().on_schedule(sim, item)
            self.scheduled.append(item.seq)

        def on_execute(self, sim, item):
            super().on_execute(sim, item)
            self.executed.append(item.seq)

    probe = Recording()
    assert _rearm_trace(probe) == _rearm_trace()
    trace, events = _rearm_trace()
    assert len(probe.executed) == events
    # Every schedule (each re-arm included) was reported: no seq was
    # handed out unseen, and every executed item had been reported.
    assert probe.scheduled == list(range(1, len(probe.scheduled) + 1))
    assert set(probe.executed) <= set(probe.scheduled)
    assert (7.5, "t2!") in trace


def test_stop_halts_run_loop():
    sim = Simulator()
    log = []

    def worker():
        while True:
            log.append(sim.now)
            if sim.now >= 4:
                sim.stop()
            yield Delay(1)

    sim.spawn(worker())
    sim.run(until=100)
    assert sim.now <= 5  # did not advance to horizon after stop()


def test_step_executes_one_event():
    sim = Simulator()
    log = []

    def worker():
        for _ in range(3):
            log.append(sim.now)
            yield Delay(2)

    sim.spawn(worker())
    assert sim.step()  # first activation
    assert log == [0]
    assert sim.step()
    assert log == [0, 2]


def test_cancel_scheduled_action():
    sim = Simulator()
    fired = []
    item = sim.at(5, lambda: fired.append(1))
    sim.cancel(item)
    sim.run()
    assert fired == []


def test_schedule_in_past_rejected():
    sim = Simulator()

    def proc():
        yield Delay(10)

    sim.spawn(proc())
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5, lambda: None)


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    order = []
    sim.at(1, lambda: order.append("low"), priority=5)
    sim.at(1, lambda: order.append("high"), priority=1)
    sim.run()
    assert order == ["high", "low"]


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        log = []

        def proc(name, period):
            for _ in range(20):
                log.append((sim.now, name))
                yield Delay(period)

        sim.spawn(proc("a", 1.5))
        sim.spawn(proc("b", 2.5))
        sim.spawn(proc("c", 1.5))
        sim.run()
        return log

    assert build() == build()


def _stress_trace(seed):
    """Seeded kernel stress run; returns the executed (now, name) order.

    Many processes share tied wake times and tied priorities and mix
    every request kind (Delay, WaitEvent, WaitProcess, bare Event);
    scheduled callbacks trigger events, cancel other callbacks,
    interrupt processes mid-Delay and mid-wait and kill some; one
    process dies with an error that
    waiters receive as ProcessFailed.  The run itself alternates
    bounded ``run(max_events=k)`` slices with single ``step()`` calls.
    """
    rng = random.Random(seed)
    sim = Simulator()
    trace = []
    events = [Event(f"ev{i}") for i in range(4)]
    procs = []

    def worker(name, draws):
        try:
            for _ in range(draws.randint(4, 14)):
                trace.append((sim.now, name))
                kind = draws.random()
                if kind < 0.5:
                    yield Delay(draws.choice([0, 1, 1, 2, 3]))
                elif kind < 0.7:
                    payload = yield WaitEvent(draws.choice(events))
                    trace.append((sim.now, f"{name}<{payload}"))
                elif kind < 0.8:
                    target = draws.choice(procs)
                    try:
                        value = yield WaitProcess(target)
                    except ProcessFailed as failed:
                        value = f"failed:{failed.process.name}"
                    trace.append((sim.now, f"{name}<{value}"))
                else:
                    yield draws.choice(events)
        except Interrupted as exc:
            trace.append((sim.now, f"{name}!{exc.cause}"))
            yield Delay(1)
        return name

    def doomed():
        yield Delay(7)
        trace.append((sim.now, "doomed"))
        raise RuntimeError("doomed")

    def mourner(target):
        try:
            yield WaitProcess(target)
        except ProcessFailed as failed:
            trace.append((sim.now, f"mourn:{failed.process.name}"))

    def ticker():
        for tick in range(40):
            yield Delay(rng.choice([1, 2]))
            trace.append((sim.now, f"tick{tick}"))
            rng.choice(events).trigger(tick)

    for index in range(32):
        name = f"w{index}"
        procs.append(sim.spawn(worker(name, random.Random(rng.random())),
                               name=name, priority=rng.choice([0, 0, 1, 2]),
                               start_delay=rng.choice([0, 0, 1, 2])))
    dead = sim.spawn(doomed(), name="doomed", priority=1)
    procs.append(dead)
    sim.spawn(mourner(dead), name="mourner")
    sim.spawn(ticker(), name="ticker", priority=rng.choice([0, 1]))

    items = []

    def callback(tag):
        def action():
            trace.append((sim.now, tag))
            kind = rng.random()
            if kind < 0.3:
                rng.choice(events).trigger(tag)
            elif kind < 0.5 and items:
                sim.cancel(rng.choice(items))
            elif kind < 0.7:
                rng.choice(procs).interrupt(tag)
            elif kind < 0.8:
                sim.kill(rng.choice(procs))
        return action

    for index in range(120):
        items.append(sim.at(rng.choice(range(60)), callback(f"cb{index}"),
                            priority=rng.choice([-1, 0, 0, 1])))

    while sim.pending:
        try:
            if rng.random() < 0.3:
                sim.step()
            else:
                sim.run(max_events=rng.randint(1, 9))
        except RuntimeError as error:
            trace.append((sim.now, f"error:{error}"))
    trace.append((sim.now, f"events:{sim.event_count}"))
    return trace


def test_stress_event_order_is_pinned():
    """The exact executed order of a seeded stress run is pinned by
    digest: any kernel change that reorders events (heap layout, tie
    breaking, resume recycling, trigger order) changes it."""
    trace = _stress_trace(2009)
    assert trace == _stress_trace(2009)
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    assert len(trace) > 400
    assert digest == ("c1e5fa9c61f417e02ea73a90210dd98d"
                      "1f33c5d1cbfef6973aed0557b09c4a1e")


def _scripted(advance):
    """Delays, event waits, an interrupt racing a Delay, a failing
    process and a cancelled callback, advanced one event per
    ``advance(sim)`` call; returns ``(now, event_count, pending,
    trace)`` after every call."""
    sim = Simulator()
    trace = []
    gate = Event("gate")

    def sleeper():
        try:
            yield Delay(100)
            trace.append((sim.now, "sleeper:woke"))
        except Interrupted as exc:
            trace.append((sim.now, f"sleeper!{exc.cause}"))
            yield Delay(3)
            trace.append((sim.now, "sleeper:after"))

    def waiter(name):
        payload = yield WaitEvent(gate)
        trace.append((sim.now, f"{name}<{payload}"))
        yield Delay(1)

    def doomed():
        yield Delay(4)
        raise RuntimeError("doomed")

    def mourner(target):
        try:
            yield WaitProcess(target)
        except ProcessFailed as failed:
            trace.append((sim.now, f"mourn:{failed.process.name}"))

    target = sim.spawn(sleeper(), name="sleeper", priority=1)
    for index in range(3):
        sim.spawn(waiter(f"w{index}"), name=f"w{index}", start_delay=index)
    sim.spawn(mourner(sim.spawn(doomed(), name="doomed")), name="mourner")
    sim.at(5, lambda: gate.trigger("open"))
    sim.at(6, lambda: target.interrupt("poke"))
    dropped = sim.at(7, lambda: trace.append((sim.now, "never")))
    sim.at(2, lambda: sim.cancel(dropped))
    states = []
    while True:
        try:
            if not advance(sim):
                break
        except RuntimeError as error:
            trace.append((sim.now, f"error:{error}"))
        states.append((sim.now, sim.event_count, sim.pending, list(trace)))
    return states


def _run_one(sim):
    if not sim.pending:
        return False
    sim.run(max_events=1)
    return True


def test_step_is_run_with_a_budget_of_one():
    stepped = _scripted(lambda sim: sim.step())
    assert stepped == _scripted(_run_one)
    now, events, pending, trace = stepped[-1]
    assert (now, pending) == (100, 0)
    assert len(stepped) == events
    assert (4, "error:doomed") in trace and (4, "mourn:doomed") in trace
    assert (6, "sleeper!poke") in trace and (9, "sleeper:after") in trace
    assert all(tag != "never" for _, tag in trace)


def test_step_leaves_the_running_flag_as_found():
    sim = Simulator()
    sim.at(1, lambda: None)
    sim.at(2, lambda: None)
    assert sim.step() and not sim._running
    sim._running = True
    assert sim.step() and sim._running
    sim._running = False
    assert not sim.step()


def _queued(sim):
    return sum(1 for _ in sim.queued_items())


def test_pending_stays_exact():
    # pending is the heap size minus the cancelled items still in it;
    # every path that cancels or drops an item keeps it equal to a scan.
    sim = Simulator()
    items = [sim.at(t, lambda: None) for t in (1, 2, 3, 4, 5, 6)]
    sim.cancel(items[0])
    sim.cancel(items[0])  # double cancel
    sim.cancel(items[3])
    assert sim.pending == _queued(sim) == 4
    assert sim.peek_time() == 2  # drops the cancelled head
    assert sim.pending == _queued(sim) == 4
    sim.cancel(items[4])
    assert sim.run(until=3) == 3  # stops with cancelled items queued
    assert sim.pending == _queued(sim) == 1
    sim.cancel(items[1])  # cancel after execution
    assert sim.pending == _queued(sim) == 1
    sim.clear_queue()
    assert sim.pending == _queued(sim) == 0
    late = sim.at(10, lambda: None)
    sim.cancel(items[5])  # dropped by clear_queue: a no-op
    assert sim.pending == _queued(sim) == 1
    sim.cancel(late)
    assert sim.pending == _queued(sim) == 0
    assert sim.run() == 3 and sim.pending == 0


class _Resumes(SimObserver):
    def __init__(self):
        self.resumed = []

    def on_process_resume(self, sim, proc):
        self.resumed.append((sim.now, proc.name))


def test_stale_and_killed_records_pop_without_resuming():
    # An interrupted sleeper's original Delay record and a killed
    # sleeper's record stay queued and pop at t=100 as events that
    # resume nothing.
    sim = Simulator()
    resumes = sim.add_observer(_Resumes())

    def sleeper():
        try:
            yield Delay(100)
        except Interrupted:
            yield Delay(1)

    poked = sim.spawn(sleeper(), name="poked")
    killed = sim.spawn(sleeper(), name="killed")
    sim.at(5, lambda: poked.interrupt())
    sim.at(5, lambda: sim.kill(killed))
    assert sim.run() == 100
    assert not poked.alive and not killed.alive
    assert resumes.resumed == [(0, "poked"), (0, "killed"), (5, "poked"),
                               (6, "poked")]
    # 2 spawns, 2 callbacks, the interrupt, the 1-unit Delay, 2 no-ops.
    assert sim.event_count == 8


def test_unsupported_request_fails_the_process():
    sim = Simulator()
    closed = []
    failures = []

    def confused():
        try:
            yield 42
        finally:
            closed.append(sim.now)

    def waiter(target):
        try:
            yield WaitProcess(target)
        except ProcessFailed as failed:
            failures.append(failed.error)

    proc = sim.spawn(confused(), name="confused")
    watcher = sim.spawn(waiter(proc), name="watcher")
    with pytest.raises(TypeError, match=r"process 'confused' yielded "
                       r"unsupported request 42; expected "
                       r"Delay/WaitEvent/WaitProcess/Event"):
        sim.run()
    assert not proc.alive and isinstance(proc.error, TypeError)
    assert closed == [0]
    sim.run()
    assert failures == [proc.error]
    assert not watcher.alive and watcher.error is None


def test_a_process_cannot_kill_itself():
    sim = Simulator()
    log = []

    def body():
        yield Delay(1)
        try:
            sim.kill(proc)
        except RuntimeError as error:
            log.append(str(error))
        yield Delay(1)
        return "done"

    proc = sim.spawn(body(), name="self")
    assert sim.run() == 2
    assert log == ["process 'self' cannot kill itself; return from its "
                   "body instead"]
    assert proc.result == "done" and proc.error is None
