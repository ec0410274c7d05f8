"""Shared-resource primitives: counting resources and mutexes.

These model the *shared platform resources* the paper's debugging section
warns about (semaphores, memory controllers, DMAs shared across software
stacks).  Acquisition order is deterministic: by priority, then FIFO.
"""

from __future__ import annotations

import bisect
from typing import Any, Generator, List, Optional, Tuple

from repro.desim.events import Event
from repro.desim.kernel import WaitEvent


class Resource:
    """Counting resource granting in (priority, ticket) order.

    Lower priority number = more urgent; equal priorities are granted
    FIFO, so a resource whose users all take the default priority is a
    plain FIFO resource.  Granting is non-preemptive: a waiting urgent
    user is admitted before earlier-queued less urgent ones, never
    ahead of a holder.  A capacity-1 resource is the dispatcher
    behind MVP's "scheduled dynamically according to their priority in
    best effort manner" (paper section IV).

    Usage from process code::

        yield from resource.acquire()
        ...critical work...
        resource.release()
    """

    def __init__(self, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._released = Event(f"{name}.released")
        # Waiters' (priority, ticket) entries, kept sorted.
        self._wait_queue: List[Tuple[int, int]] = []
        self._next_ticket = 0
        self.total_acquisitions = 0
        self.contention_count = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def waiting(self) -> int:
        return len(self._wait_queue)

    def acquire(self, priority: int = 0) -> Generator[Any, Any, None]:
        """Block until a unit is available and no more urgent (or equally
        urgent, earlier) waiter is queued.

        Cancellation-safe: a waiter that dies mid-wait (killed,
        interrupted, or failed) removes its entry on the way out, so
        the queue never blocks forever on a ghost entry.
        """
        entry = (priority, self._next_ticket)
        self._next_ticket += 1
        bisect.insort(self._wait_queue, entry)
        acquired = False
        if self.in_use >= self.capacity or self._wait_queue[0] != entry:
            self.contention_count += 1
        try:
            while self.in_use >= self.capacity or \
                    self._wait_queue[0] != entry:
                yield WaitEvent(self._released)
            self._wait_queue.pop(0)
            acquired = True
        finally:
            if not acquired:
                was_head = bool(self._wait_queue) and \
                    self._wait_queue[0] == entry
                try:
                    self._wait_queue.remove(entry)
                except ValueError:
                    pass
                # A dead head waiter may have been the only thing keeping
                # the next entry blocked.
                if was_head and self._wait_queue and \
                        self.in_use < self.capacity:
                    self._released.trigger(None)
        self.in_use += 1
        self.total_acquisitions += 1
        # Wake the next entry only when it can actually be admitted now
        # (capacity > 1); waking it just to re-block is a wakeup storm.
        if self._wait_queue and self.in_use < self.capacity:
            self._released.trigger(None)

    def try_acquire(self) -> bool:
        """Non-blocking acquire; only succeeds when nobody is queued."""
        if self.in_use < self.capacity and not self._wait_queue:
            self.in_use += 1
            self.total_acquisitions += 1
            return True
        return False

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        self.in_use -= 1
        if self._wait_queue:
            self._released.trigger(None)

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, {self.in_use}/{self.capacity})"


class Mutex(Resource):
    """Binary resource with owner tracking (lock-based synchronization).

    The paper (section V) notes that "the current practice of embedded
    software design is multithreaded programming with lock-based
    synchronization" and that debugging it is extremely difficult; the
    mutex records its acquisition history so benches can quantify contention.
    """

    def __init__(self, name: str = "mutex") -> None:
        super().__init__(capacity=1, name=name)
        self.owner: Optional[str] = None

    def lock(self, owner: str = "?") -> Generator[Any, Any, None]:
        yield from self.acquire()
        self.owner = owner

    def unlock(self) -> None:
        self.owner = None
        self.release()


__all__ = ["Mutex", "Resource"]
