"""Event and signal primitives for the simulation kernel.

An :class:`Event` is a one-shot (but re-armable) synchronization point that
processes can wait on and that any code can ``trigger``.  A :class:`Signal`
is a value holder that fires an internal event whenever its value changes;
signals are the observable "wires" of the virtual platform, and the debugger
sets watchpoints on them (paper section VII).
"""

from __future__ import annotations

from typing import Any, Callable, List


class Event:
    """A named synchronization event.

    Processes wait on an event via ``yield WaitEvent(event)``; other
    processes or model code fire it with :meth:`trigger`.  After a trigger
    the event automatically re-arms, so the same object can be reused for
    periodic notification (like SystemC's ``sc_event``).
    """

    def __init__(self, name: str = "event") -> None:
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []
        self._callbacks: List[Callable[[Any], None]] = []
        self.trigger_count = 0
        self.last_payload: Any = None

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Register a persistent callback invoked on every trigger."""
        self._callbacks.append(callback)

    def unsubscribe(self, callback: Callable[[Any], None]) -> None:
        self._callbacks.remove(callback)

    def add_waiter(self, resume: Callable[[Any], None]) -> None:
        """Register a one-shot waiter (used by the kernel, not user code)."""
        self._waiters.append(resume)

    def remove_waiter(self, resume: Callable[[Any], None]) -> None:
        if resume in self._waiters:
            self._waiters.remove(resume)

    def trigger(self, payload: Any = None) -> None:
        """Fire the event, resuming all current waiters.

        Waiters registered *during* the trigger (e.g. a resumed process that
        immediately re-waits) are not woken by this trigger.
        """
        self.trigger_count += 1
        self.last_payload = payload
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for resume in waiters:
                resume(payload)
        if self._callbacks:
            for callback in list(self._callbacks):
                callback(payload)

    @property
    def has_waiters(self) -> bool:
        return bool(self._waiters)

    def __repr__(self) -> str:
        return f"Event({self.name!r}, triggers={self.trigger_count})"


class Signal:
    """A value holder with change notification.

    ``Signal`` models a hardware wire or register visible to the platform
    debugger.  Reads are free; a write that changes the value fires
    :attr:`changed` (and :attr:`posedge`/:attr:`negedge` for boolean-like
    transitions).  The virtual-platform debugger attaches watchpoints by
    subscribing to these events -- non-intrusively, since subscription does
    not alter simulated time.
    """

    def __init__(self, name: str = "signal", initial: Any = 0) -> None:
        self.name = name
        self._value = initial
        self.changed = Event(f"{name}.changed")
        self.posedge = Event(f"{name}.posedge")
        self.negedge = Event(f"{name}.negedge")
        self.write_count = 0

    @property
    def value(self) -> Any:
        return self._value

    @value.setter
    def value(self, new: Any) -> None:
        self.write(new)

    def read(self) -> Any:
        return self._value

    def write(self, new: Any) -> None:
        """Write ``new``; fires change/edge events only on a value change."""
        self.write_count += 1
        old = self._value
        if new == old:
            return
        self._value = new
        change = (old, new)
        self.changed.trigger(change)
        if not old and new:
            self.posedge.trigger(change)
        elif old and not new:
            self.negedge.trigger(change)

    def force(self, new: Any) -> None:
        """Write without firing events (debugger back-door, used for state
        injection during a suspended system)."""
        self._value = new

    @property
    def observed(self) -> bool:
        """True when anything subscribes to or waits on this signal's
        change/edge events.  An observed ``pc_signal`` is an ISS sync
        boundary (see :mod:`repro.vp.iss`), so signal watchpoints see
        every intermediate value."""
        changed, posedge, negedge = self.changed, self.posedge, self.negedge
        return bool(changed._waiters or changed._callbacks
                    or posedge._waiters or posedge._callbacks
                    or negedge._waiters or negedge._callbacks)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, value={self._value!r})"


class EventGroup:
    """Trigger-any aggregation of several events.

    Waiting on the group resumes when *any* member fires.  Used by executives
    that wait for "data on any input channel".
    """

    def __init__(self, events: List[Event], name: str = "group") -> None:
        self.name = name
        self.events = list(events)
        self.any = Event(f"{name}.any")
        for event in self.events:
            event.subscribe(self._on_member)

    def _on_member(self, payload: Any) -> None:
        self.any.trigger(payload)

    def close(self) -> None:
        for event in self.events:
            event.unsubscribe(self._on_member)


__all__ = ["Event", "EventGroup", "Signal"]
