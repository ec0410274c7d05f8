"""Tests for events, signals, and shared resources."""

import pytest

from repro.desim import Delay, Event, Mutex, Resource, Signal, Simulator
from repro.desim.events import EventGroup


class TestEvent:
    def test_trigger_resumes_all_waiters(self):
        event = Event()
        seen = []
        event.add_waiter(lambda p: seen.append(("a", p)))
        event.add_waiter(lambda p: seen.append(("b", p)))
        event.trigger(5)
        assert seen == [("a", 5), ("b", 5)]
        assert event.trigger_count == 1

    def test_waiters_are_one_shot(self):
        event = Event()
        seen = []
        event.add_waiter(lambda p: seen.append(p))
        event.trigger(1)
        event.trigger(2)
        assert seen == [1]

    def test_callbacks_persist(self):
        event = Event()
        seen = []
        event.subscribe(seen.append)
        event.trigger(1)
        event.trigger(2)
        assert seen == [1, 2]
        event.unsubscribe(seen.append)
        event.trigger(3)
        assert seen == [1, 2]

    def test_rewait_during_trigger_not_rewoken(self):
        event = Event()
        count = []

        def rewait(_payload):
            count.append(1)
            event.add_waiter(rewait)

        event.add_waiter(rewait)
        event.trigger()
        assert len(count) == 1  # not immediately rewoken in same trigger


class TestSignal:
    def test_write_fires_changed_only_on_change(self):
        signal = Signal("s", 0)
        changes = []
        signal.changed.subscribe(changes.append)
        signal.write(0)  # same value: no event
        signal.write(1)
        signal.write(1)
        assert changes == [(0, 1)]
        assert signal.write_count == 3

    def test_edges(self):
        signal = Signal("s", 0)
        edges = []
        signal.posedge.subscribe(lambda p: edges.append("pos"))
        signal.negedge.subscribe(lambda p: edges.append("neg"))
        signal.write(1)
        signal.write(0)
        signal.write(5)
        assert edges == ["pos", "neg", "pos"]

    def test_unobserved_write_still_counts(self):
        # Writes nobody listens to trigger nothing, yet every write,
        # change and edge is counted exactly as on a listened-to signal.
        sequence = (0, 1, 1, 2, 0, 3, 0)
        quiet, heard = Signal("quiet", 0), Signal("heard", 0)
        seen = []
        heard.changed.subscribe(seen.append)
        heard.posedge.subscribe(seen.append)
        heard.negedge.subscribe(seen.append)
        for value in sequence:
            quiet.write(value)
            heard.write(value)
        assert not quiet.observed and heard.observed
        assert quiet.value == heard.value == 0
        for signal in (quiet, heard):
            assert signal.write_count == 7
            assert signal.changed.trigger_count == 5
            assert signal.posedge.trigger_count == 2
            assert signal.negedge.trigger_count == 2
        assert len(seen) == 5 + 2 + 2

    def test_callback_subscribed_mid_run_sees_the_next_change(self):
        sim = Simulator()
        signal = Signal("s", 0)
        changes, rises = [], []

        def writer():
            for value in (1, 2, 0, 3, 4, 0, 5):
                yield Delay(1)
                signal.write(value)

        def subscribe():
            signal.changed.subscribe(changes.append)
            signal.posedge.subscribe(rises.append)

        sim.spawn(writer())
        sim.at(2.5, subscribe)  # after the write of 2 at t=2
        sim.run()
        assert changes == [(2, 0), (0, 3), (3, 4), (4, 0), (0, 5)]
        assert rises == [(0, 3), (0, 5)]
        assert signal.changed.trigger_count == 7

    def test_force_bypasses_events(self):
        signal = Signal("s", 0)
        changes = []
        signal.changed.subscribe(changes.append)
        signal.force(42)
        assert signal.read() == 42
        assert changes == []

    def test_value_property(self):
        signal = Signal("s", 0)
        signal.value = 3
        assert signal.value == 3


class TestEventGroup:
    def test_any_fires_on_member(self):
        a, b = Event("a"), Event("b")
        group = EventGroup([a, b])
        seen = []
        group.any.subscribe(seen.append)
        a.trigger(1)
        b.trigger(2)
        assert seen == [1, 2]
        group.close()
        a.trigger(3)
        assert seen == [1, 2]


class TestResource:
    def test_fifo_grant_order(self):
        sim = Simulator()
        resource = Resource(1)
        order = []

        def user(name, hold):
            yield from resource.acquire()
            order.append(name)
            yield Delay(hold)
            resource.release()

        sim.spawn(user("first", 5))
        sim.spawn(user("second", 1))
        sim.spawn(user("third", 1))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_capacity_two_admits_two(self):
        sim = Simulator()
        resource = Resource(2)
        concurrent = []

        def user(name):
            yield from resource.acquire()
            concurrent.append((sim.now, name))
            yield Delay(10)
            resource.release()

        for name in ("a", "b", "c"):
            sim.spawn(user(name))
        sim.run()
        at_zero = [n for t, n in concurrent if t == 0]
        assert len(at_zero) == 2
        assert ("c" in [n for t, n in concurrent if t == 10])

    def test_try_acquire(self):
        resource = Resource(1)
        assert resource.try_acquire()
        assert not resource.try_acquire()
        resource.release()
        assert resource.try_acquire()

    def test_release_idle_raises(self):
        with pytest.raises(RuntimeError):
            Resource(1).release()

    def test_contention_counted(self):
        sim = Simulator()
        resource = Resource(1)

        def user():
            yield from resource.acquire()
            yield Delay(1)
            resource.release()

        for _ in range(3):
            sim.spawn(user())
        sim.run()
        assert resource.contention_count == 2
        assert resource.total_acquisitions == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(0)


class TestMutex:
    def test_owner_tracking(self):
        sim = Simulator()
        mutex = Mutex("m")
        owners = []

        def user(name):
            yield from mutex.lock(name)
            owners.append(mutex.owner)
            yield Delay(2)
            mutex.unlock()

        sim.spawn(user("t1"))
        sim.spawn(user("t2"))
        sim.run()
        assert owners == ["t1", "t2"]
        assert mutex.owner is None
