"""Communication channels for simulation processes.

Two channel flavours are provided:

- :class:`Fifo` -- bounded FIFO with *back-pressure*: a producer blocks when
  the buffer is full and a consumer blocks when it is empty.  This is the
  channel used by the data-driven real-time executive (paper section III);
  back-pressure is precisely what makes data-driven systems robust to
  execution-time overruns.
- :class:`Mailbox` -- unbounded asynchronous message queue, the primitive of
  the section-II programming model ("asynchronously communicating,
  internally sequential components").

Both are generator-helpers: process code uses them as

    yield from fifo.put(item)
    item = yield from fifo.get()
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from repro.desim.events import Event
from repro.desim.kernel import WaitEvent


class ChannelClosed(Exception):
    """Raised when getting from a closed, drained channel."""


class Fifo:
    """Bounded FIFO channel with blocking put/get and back-pressure.

    ``capacity=None`` gives an unbounded FIFO (no back-pressure), which the
    E4/E5 benches use as the "no back-pressure" ablation: without a bound,
    an overrunning producer silently grows the buffer instead of blocking,
    and with a *bounded but non-blocking* write (see :meth:`put_nowait` with
    ``overwrite=True``) it corrupts data exactly as the paper describes for
    time-triggered systems.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "fifo") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._not_empty = Event(f"{name}.not_empty")
        self._not_full = Event(f"{name}.not_full")
        self.closed = False
        self.total_puts = 0
        self.total_gets = 0
        self.overwrites = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    # ------------------------------------------------------------------
    # blocking (process) interface
    # ------------------------------------------------------------------
    def put(self, item: Any) -> Generator[Any, Any, None]:
        """Blocking put; blocks while the FIFO is full (back-pressure)."""
        while self.full:
            yield WaitEvent(self._not_full)
        self._enqueue(item)

    def get(self) -> Generator[Any, Any, Any]:
        """Blocking get; blocks while the FIFO is empty."""
        while self.empty:
            if self.closed:
                raise ChannelClosed(self.name)
            yield WaitEvent(self._not_empty)
        return self._dequeue()

    def peek(self) -> Generator[Any, Any, Any]:
        """Block until non-empty, then return the head without removing it."""
        while self.empty:
            if self.closed:
                raise ChannelClosed(self.name)
            yield WaitEvent(self._not_empty)
        return self._items[0]

    # ------------------------------------------------------------------
    # non-blocking interface
    # ------------------------------------------------------------------
    def put_nowait(self, item: Any, overwrite: bool = False) -> bool:
        """Non-blocking put.

        When full: with ``overwrite=True`` the oldest item is *overwritten*
        (data corruption, counted in :attr:`overwrites`); otherwise the put
        fails and returns False.
        """
        if self.full:
            if not overwrite:
                return False
            self._items.popleft()
            self.overwrites += 1
        self._enqueue(item)
        return True

    def get_nowait(self) -> Any:
        """Non-blocking get; raises IndexError when empty."""
        if self.empty:
            raise IndexError(f"fifo {self.name!r} is empty")
        return self._dequeue()

    def close(self) -> None:
        """Close the channel; blocked getters see ChannelClosed when drained."""
        self.closed = True
        self._not_empty.trigger(None)

    def _enqueue(self, item: Any) -> None:
        if self.closed:
            raise ChannelClosed(f"put on closed fifo {self.name!r}")
        self._items.append(item)
        self.total_puts += 1
        self.max_occupancy = max(self.max_occupancy, len(self._items))
        self._not_empty.trigger(None)

    def _dequeue(self) -> Any:
        item = self._items.popleft()
        self.total_gets += 1
        self._not_full.trigger(None)
        return item

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else self.capacity
        return f"Fifo({self.name!r}, {len(self._items)}/{cap})"


class Mailbox:
    """Unbounded asynchronous message queue with sender identification.

    This is the messaging primitive of the section-II programming model:
    sends never block (asynchronous messages); receives block until a
    message is available.
    """

    def __init__(self, name: str = "mailbox") -> None:
        self.name = name
        self._messages: Deque[Any] = deque()
        self._arrived = Event(f"{name}.arrived")
        self.total_sent = 0
        self.total_received = 0

    def __len__(self) -> int:
        return len(self._messages)

    def send(self, message: Any, sender: Optional[str] = None) -> None:
        """Asynchronous, never-blocking send."""
        self._messages.append((sender, message))
        self.total_sent += 1
        self._arrived.trigger(None)

    def receive(self) -> Generator[Any, Any, Any]:
        """Blocking receive; returns ``(sender, message)``."""
        while not self._messages:
            yield WaitEvent(self._arrived)
        self.total_received += 1
        return self._messages.popleft()

    def receive_nowait(self) -> Any:
        if not self._messages:
            raise IndexError(f"mailbox {self.name!r} is empty")
        self.total_received += 1
        return self._messages.popleft()

    @property
    def arrived_event(self) -> Event:
        return self._arrived

    def __repr__(self) -> str:
        return f"Mailbox({self.name!r}, pending={len(self._messages)})"


def drain(fifo: Fifo) -> List[Any]:
    """Remove and return all items currently in a FIFO (test helper)."""
    items = []
    while not fifo.empty:
        items.append(fifo.get_nowait())
    return items


__all__ = ["ChannelClosed", "Fifo", "Mailbox", "drain"]
