"""Tests for FIFO channels (back-pressure) and mailboxes."""

import pytest

from repro.desim import ChannelClosed, Delay, Fifo, Mailbox, Simulator
from repro.desim.channels import drain
from repro.desim.events import EventGroup


def test_fifo_put_get_roundtrip():
    sim = Simulator()
    fifo = Fifo(capacity=4)
    got = []

    def producer():
        for i in range(5):
            yield from fifo.put(i)

    def consumer():
        for _ in range(5):
            value = yield from fifo.get()
            got.append(value)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_backpressure_blocks_producer():
    sim = Simulator()
    fifo = Fifo(capacity=2)
    put_times = []

    def producer():
        for i in range(4):
            yield from fifo.put(i)
            put_times.append(sim.now)

    def consumer():
        for _ in range(4):
            yield Delay(10)
            if not fifo.empty:
                fifo.get_nowait()

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run(until=100)
    # First two puts immediate; rest gated by consumer at t=10, 20.
    assert put_times == [0, 0, 10, 20]
    assert fifo.max_occupancy == 2


def test_unbounded_fifo_never_blocks():
    sim = Simulator()
    fifo = Fifo(capacity=None)

    def producer():
        for i in range(1000):
            yield from fifo.put(i)

    sim.spawn(producer())
    sim.run()
    assert len(fifo) == 1000
    assert not fifo.full


def test_put_nowait_overwrite_counts_corruption():
    fifo = Fifo(capacity=2)
    assert fifo.put_nowait(1)
    assert fifo.put_nowait(2)
    assert not fifo.put_nowait(3)          # full, no overwrite
    assert fifo.put_nowait(4, overwrite=True)
    assert fifo.overwrites == 1
    assert drain(fifo) == [2, 4]           # oldest item was destroyed


def test_get_nowait_empty_raises():
    fifo = Fifo(capacity=1)
    with pytest.raises(IndexError):
        fifo.get_nowait()


def test_capacity_validation():
    with pytest.raises(ValueError):
        Fifo(capacity=0)


def test_closed_fifo_raises_on_drained_get():
    sim = Simulator()
    fifo = Fifo(capacity=2)
    fifo.put_nowait(1)
    outcome = []

    def consumer():
        value = yield from fifo.get()
        outcome.append(value)
        try:
            yield from fifo.get()
        except ChannelClosed:
            outcome.append("closed")

    fifo.close()
    sim.spawn(consumer())
    sim.run()
    assert outcome == [1, "closed"]


def test_peek_does_not_consume():
    sim = Simulator()
    fifo = Fifo(capacity=2)
    fifo.put_nowait(7)
    seen = []

    def peeker():
        head = yield from fifo.peek()
        seen.append(head)
        value = yield from fifo.get()
        seen.append(value)

    sim.spawn(peeker())
    sim.run()
    assert seen == [7, 7]
    assert fifo.empty


def test_mailbox_async_send_never_blocks():
    sim = Simulator()
    mbox = Mailbox()
    for i in range(100):
        mbox.send(i, sender="x")
    received = []

    def receiver():
        for _ in range(100):
            sender, message = yield from mbox.receive()
            received.append((sender, message))

    sim.spawn(receiver())
    sim.run()
    assert received[0] == ("x", 0)
    assert len(received) == 100
    assert mbox.total_received == 100


def test_mailbox_blocking_receive():
    sim = Simulator()
    mbox = Mailbox()
    times = []

    def receiver():
        _, message = yield from mbox.receive()
        times.append((sim.now, message))

    sim.spawn(receiver())
    sim.after(8, lambda: mbox.send("late"))
    sim.run()
    assert times == [(8, "late")]


def test_fifo_stats_track_throughput():
    sim = Simulator()
    fifo = Fifo(capacity=3)

    def producer():
        for i in range(6):
            yield from fifo.put(i)

    def consumer():
        for _ in range(6):
            yield from fifo.get()
            yield Delay(1)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert fifo.total_puts == 6
    assert fifo.total_gets == 6


def test_unseen_fifo_triggers_are_counted_and_seen_ones_fire():
    """A put or get that nothing waits on only counts its trigger; a
    subscribed callback (an ``EventGroup``) still sees every one."""
    fifo = Fifo(capacity=2)
    fifo.put_nowait("a")
    fifo.put_nowait("b")
    fifo.get_nowait()
    assert fifo._not_empty.trigger_count == 2
    assert fifo._not_full.trigger_count == 1

    group = EventGroup([fifo._not_empty, fifo._not_full])
    seen = []
    group.any.subscribe(seen.append)
    fifo.put_nowait("c")
    fifo.get_nowait()
    assert seen == [None, None]
    assert fifo._not_empty.trigger_count == 3
    assert fifo._not_full.trigger_count == 2
    assert group.any.trigger_count == 2
