"""Tests for the discrete-event simulation kernel."""

import hashlib
import random

import pytest

from repro.desim import (
    Delay, Event, Interrupted, ProcessFailed, Simulator, WaitEvent,
    WaitProcess,
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
