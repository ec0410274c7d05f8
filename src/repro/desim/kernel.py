"""The discrete-event simulator core.

Processes are generators that yield scheduling requests:

- ``yield Delay(t)`` -- resume after ``t`` time units;
- ``yield WaitEvent(event)`` -- resume when the event triggers (the trigger
  payload becomes the value of the yield expression);
- ``yield WaitProcess(proc)`` -- resume when another process terminates.

The kernel is deterministic: simultaneous wakeups execute in (priority,
sequence-number) order, and event triggers resume waiters in registration
order.  Determinism is essential for the paper's section-VII argument that a
virtual platform reproduces concurrency bugs reliably.

A queued process resume is data, not a callback: :meth:`Simulator.run`
resumes the generator itself, so executing an event makes no Python call
into the kernel.  ``run`` is the only loop that executes events
(:meth:`Simulator.step` is ``run(max_events=1)``).  A yielded
unsupported request fails the process with :class:`TypeError`; a process
cannot :meth:`~Simulator.kill` itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator, List, Optional, Tuple

from repro.desim.events import Event


class Interrupted(Exception):
    """Raised inside a process that was interrupted via Process.interrupt."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class ProcessFailed(Exception):
    """Thrown into waiters of a process that terminated with an error.

    A ``WaitProcess`` (or a wait on ``proc.done``) whose target dies from an
    uncaught exception receives this instead of a silent ``None`` payload,
    so failures propagate along wait chains rather than vanishing.
    """

    def __init__(self, process: "Process", error: BaseException) -> None:
        super().__init__(f"process {process.name!r} failed: {error!r}")
        self.process = process
        self.error = error


class SimObserver:
    """Observer interface for kernel-level instrumentation.

    Subclass and override any subset.  The kernel calls only the hooks
    an observer overrides: each hook has its own dispatch list, so an
    un-observed :class:`Simulator` (or one whose observers ignore a
    hook) pays a single truthiness check per hook site and stays
    dependency-free.
    """

    def on_schedule(self, sim: "Simulator", item: "_ScheduledItem") -> None:
        """A callback was pushed onto the event queue."""

    def on_execute(self, sim: "Simulator", item: "_ScheduledItem") -> None:
        """A queued callback just ran (``sim.now`` is its time)."""

    def on_process_resume(self, sim: "Simulator", proc: "Process") -> None:
        """A process is about to advance by one yield."""

    def on_process_yield(self, sim: "Simulator", proc: "Process",
                         request: Any) -> None:
        """A process yielded ``request`` (Delay/WaitEvent/...)."""

    def on_process_finish(self, sim: "Simulator", proc: "Process") -> None:
        """A process terminated (``proc.error`` set on failure)."""


@dataclass(frozen=True)
class Delay:
    """Scheduling request: resume the process after ``duration`` time units.

    Frozen, so one instance can be shared: hot loops yield a prebuilt
    ``Delay`` per duration instead of allocating one per resume.
    """

    duration: float

    def __post_init__(self) -> None:
        if not self.duration >= 0:  # also rejects NaN
            raise ValueError(f"delay must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class WaitEvent:
    """Scheduling request: resume when ``event`` triggers."""

    event: Event


@dataclass(frozen=True)
class WaitProcess:
    """Scheduling request: resume when ``process`` terminates."""

    process: "Process"


ProcessBody = Generator[Any, Any, Any]


class Process:
    """A simulation process wrapping a generator.

    The process lifecycle is: created -> running/waiting -> terminated.  On
    termination (normal return or exception) the :attr:`done` event fires
    with the return value; ``WaitProcess`` waiters receive it.
    """

    _next_id = 0

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = "",
                 priority: int = 0) -> None:
        Process._next_id += 1
        self.pid = Process._next_id
        self.sim = sim
        self.body = body
        self.name = name or f"proc{self.pid}"
        self.priority = priority
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done = Event(f"{self.name}.done")
        self._pending_interrupt: Optional[Interrupted] = None
        # Set while the process waits on an event; cleared where that
        # wait ends (the wake closure, interrupt, kill).
        self._waiting_on: Optional[Event] = None
        self._resume_handle: Optional[Callable[[Any], None]] = None
        # The process's latest queued resume.  Once the run loop has
        # popped it (``consumed``), a Delay re-queues it in place instead
        # of allocating a new item per event.
        self._rearm_item: Optional["_ScheduledItem"] = None
        # Resume epoch: every actual resume bumps it, and every scheduled
        # resume carries the epoch it was issued for.  A stale wakeup
        # (e.g. the original timer of an interrupted Delay) then no longer
        # matches and is discarded instead of double-resuming the process.
        self._epoch = 0

    def interrupt(self, cause: Any = None) -> None:
        """Schedule an :class:`Interrupted` to be thrown into the process.

        If the process is currently waiting, it is detached from its wait
        and resumed immediately (at the current simulation time).
        """
        if not self.alive:
            return
        self._pending_interrupt = Interrupted(cause)
        if self._waiting_on is not None and self._resume_handle is not None:
            self._waiting_on.remove_waiter(self._resume_handle)
            self._waiting_on = None
            self._resume_handle = None
            self.sim._schedule_resume(self, None)
        # A process waiting on a Delay is resumed when its timer fires; the
        # interrupt is delivered then.  For prompt delivery the kernel also
        # schedules an immediate resume:
        elif self._resume_handle is None:
            self.sim._schedule_resume(self, None)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"Process({self.name!r}, pid={self.pid}, {state})"


@dataclass(eq=False, slots=True)
class _ScheduledItem:
    """A queued event.  The heap holds ``(time, priority, seq, item)``
    entries, so ``heapq`` orders them with C tuple comparisons; ``seq``
    is unique, so the item itself is never compared.

    An item is either a bare callback (``action``) or a process resume
    (``proc``, sending ``value``; skipped as stale unless the process is
    still at resume ``epoch``), which the run loop executes inline."""

    time: float
    priority: int
    action: Optional[Callable[[], None]]
    proc: Optional[Process] = None
    value: Any = None
    epoch: int = 0
    seq: int = 0
    cancelled: bool = False
    # Set once the item has been popped for execution: a late cancel()
    # is then a no-op, and a consumed resume may be re-queued in place.
    consumed: bool = False


class Simulator:
    """Deterministic discrete-event simulator.

    Time is a monotonically non-decreasing float (integers work too and are
    used as cycle counts by the virtual platform).
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, int, _ScheduledItem]] = []
        self._seq = 0
        self._running = False
        self.processes: List[Process] = []
        self.event_count = 0
        # Cancelled items still in the heap (popped lazily): pending is
        # the heap size minus these.
        self._cancelled = 0
        self._observers: List[SimObserver] = []
        self._dispatch_hooks()

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def add_observer(self, observer: SimObserver) -> SimObserver:
        """Install a :class:`SimObserver`; returns it for chaining."""
        self._observers.append(observer)
        self._dispatch_hooks()
        return observer

    def remove_observer(self, observer: SimObserver) -> None:
        self._observers.remove(observer)
        self._dispatch_hooks()

    def _dispatch_hooks(self) -> None:
        """Rebuild the per-hook dispatch lists: the bound hooks of every
        observer that overrides :class:`SimObserver`'s no-op.  The lists
        are replaced, never mutated, so a hook that adds or removes an
        observer does not disturb the loop calling it; the change
        applies from the next hook site on.

        Also refreshes :attr:`has_observers`: True when any observer is
        installed, whichever hooks it overrides.  The ISS polls it (a
        plain attribute, read per instruction): observers must see the
        per-instruction event stream, so batching is disabled while any
        are attached."""
        def overriding(name: str) -> List[Callable[..., None]]:
            default = getattr(SimObserver, name)
            hooks = (getattr(observer, name) for observer in self._observers)
            return [hook for hook in hooks
                    if getattr(hook, "__func__", None) is not default]

        self._on_schedule = overriding("on_schedule")
        self._on_execute = overriding("on_execute")
        self._on_process_resume = overriding("on_process_resume")
        self._on_process_yield = overriding("on_process_yield")
        self._on_process_finish = overriding("on_process_finish")
        self.has_observers = bool(self._observers)

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def at(self, time: float, action: Callable[[], None],
           priority: int = 0) -> _ScheduledItem:
        """Schedule a bare callback at an absolute time."""
        return self._push(_ScheduledItem(time, priority, action))

    def after(self, delay: float, action: Callable[[], None],
              priority: int = 0) -> _ScheduledItem:
        """Schedule a bare callback after a relative delay."""
        return self.at(self.now + delay, action, priority)

    def _push(self, item: _ScheduledItem) -> _ScheduledItem:
        """Validate ``item``'s time, give it the next seq and queue it."""
        time = item.time
        if not time >= self.now:  # also rejects NaN
            if time != time:
                raise ValueError("cannot schedule at a NaN time")
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self._seq += 1
        item.seq = seq = self._seq
        heapq.heappush(self._queue, (time, item.priority, seq, item))
        if self._on_schedule:
            for hook in self._on_schedule:
                hook(self, item)
        return item

    def cancel(self, item: _ScheduledItem) -> None:
        if item.cancelled or item.consumed:
            return
        item.cancelled = True
        self._cancelled += 1

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, body: ProcessBody, name: str = "",
              priority: int = 0, start_delay: float = 0.0) -> Process:
        """Create a process from a generator and schedule its first step."""
        proc = Process(self, body, name=name, priority=priority)
        self.processes.append(proc)
        self._schedule_resume(proc, None, delay=start_delay)
        return proc

    def _schedule_resume(self, proc: Process, value: Any,
                         delay: float = 0.0) -> None:
        """Queue a fresh resume of ``proc`` (it becomes ``proc``'s
        ``_rearm_item``).  The run loop re-queues a consumed record in
        place for a Delay; every other resume comes through here."""
        proc._rearm_item = self._push(_ScheduledItem(
            self.now + delay, proc.priority, None, proc, value, proc._epoch))

    def _dispatch_request(self, proc: Process, request: Any) -> None:
        if isinstance(request, Delay):
            self._schedule_resume(proc, None, delay=request.duration)
        elif isinstance(request, WaitEvent):
            self._wait_on_event(proc, request.event)
        elif isinstance(request, WaitProcess):
            target = request.process
            if not target.alive:
                if target.error is not None:
                    self._schedule_resume(
                        proc, ProcessFailed(target, target.error))
                else:
                    self._schedule_resume(proc, target.result)
            else:
                self._wait_on_event(proc, target.done)
        elif isinstance(request, Event):
            # Convenience: yielding a bare Event waits on it.
            self._wait_on_event(proc, request)
        else:
            # The process cannot go on: it fails, so its waiters see a
            # ProcessFailed instead of hanging on a done that never fires.
            proc.body.close()
            self._finish(proc, error=TypeError(
                f"process {proc.name!r} yielded unsupported request "
                f"{request!r}; expected Delay/WaitEvent/WaitProcess/Event"))

    def _wait_on_event(self, proc: Process, event: Event) -> None:
        def resume(payload: Any) -> None:
            proc._waiting_on = None
            proc._resume_handle = None
            self._schedule_resume(proc, payload)

        proc._waiting_on = event
        proc._resume_handle = resume
        event.add_waiter(resume)

    def _finish(self, proc: Process, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        proc.alive = False
        proc.result = result
        proc.error = error
        if self._on_process_finish:
            for hook in self._on_process_finish:
                hook(self, proc)
        if error is not None:
            # Waiters receive a ProcessFailed payload (thrown into them on
            # resume) instead of a silent None, then the error surfaces out
            # of run()/step() for the caller.
            proc.done.trigger(ProcessFailed(proc, error))
            raise error
        proc.done.trigger(result)

    def kill(self, proc: Process) -> None:
        """Terminate a process without delivering an exception into it.

        Observers see it finish (``on_process_finish``, ``error`` None)
        like any other ended process.  A process cannot kill itself (its
        generator is executing): that raises :class:`RuntimeError` and
        changes nothing; it returns from its body instead."""
        if proc.alive:
            if proc.body.gi_running:
                raise RuntimeError(
                    f"process {proc.name!r} cannot kill itself; return "
                    "from its body instead")
            if proc._waiting_on is not None and proc._resume_handle is not None:
                proc._waiting_on.remove_waiter(proc._resume_handle)
            proc._waiting_on = None
            proc._resume_handle = None
            proc.alive = False
            proc.body.close()
            self._finish(proc)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or the event
        budget is exhausted.  Returns the final simulation time.

        ``max_events=0`` executes nothing; a negative budget raises
        :class:`ValueError`, as does an ``until`` in the past or NaN
        (the clock never runs backwards).

        If a process dies with an uncaught exception it is re-raised here,
        with ``_running`` reset so the simulator stays usable: the caller
        can catch the error and ``run()`` again to let ``WaitProcess``
        waiters observe the :class:`ProcessFailed` payload.
        """
        if until is not None and not until >= self.now:  # also rejects NaN
            if until != until:
                raise ValueError("cannot run until a NaN time")
            raise ValueError(
                f"cannot run until the past: {until} < {self.now}")
        budget = max_events
        if budget is not None:
            if budget < 0:
                raise ValueError(f"max_events must be >= 0, got {budget}")
            if budget == 0:
                return self.now
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        self._running = True
        try:
            while queue and self._running:
                time, _priority, _seq, item = queue[0]
                if item.cancelled:
                    heappop(queue)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    self.now = until
                    break
                heappop(queue)
                item.consumed = True
                self.now = time
                self.event_count += 1
                proc = item.proc
                if proc is None:
                    item.action()
                elif proc.alive and proc._epoch == item.epoch:
                    # A process resume, inline.  A stale one (the process
                    # was interrupted or killed since) resumes nothing.
                    proc._epoch += 1
                    if self._on_process_resume:
                        for hook in self._on_process_resume:
                            hook(self, proc)
                    try:
                        interrupt = proc._pending_interrupt
                        if interrupt is not None:
                            proc._pending_interrupt = None
                            request = proc.body.throw(interrupt)
                        else:
                            value = item.value
                            if value is not None \
                                    and isinstance(value, ProcessFailed):
                                # The process we waited on died: re-throw
                                # its failure here.
                                request = proc.body.throw(value)
                            else:
                                request = proc.body.send(value)
                    except StopIteration as stop:
                        self._finish(proc, result=stop.value)
                    except Interrupted:
                        self._finish(proc, result=None)
                    except BaseException as error:  # noqa: BLE001 - to waiters
                        self._finish(proc, error=error)
                    else:
                        if self._on_process_yield:
                            for hook in self._on_process_yield:
                                hook(self, proc, request)
                        rearm = proc._rearm_item
                        if request.__class__ is not Delay:
                            self._dispatch_request(proc, request)
                        elif rearm.consumed and not self._on_schedule:
                            # The dominant request: re-queue the consumed
                            # record in place (no allocation, no call).
                            self._seq += 1
                            seq = rearm.seq = self._seq
                            wake = rearm.time = time + request.duration
                            priority = rearm.priority = proc.priority
                            rearm.value = None
                            rearm.epoch = proc._epoch
                            rearm.consumed = False
                            heappush(queue, (wake, priority, seq, rearm))
                        else:
                            self._schedule_resume(proc, None,
                                                  request.duration)
                if self._on_execute:
                    for hook in self._on_execute:
                        hook(self, item)
                if budget is not None:
                    budget -= 1
                    if budget <= 0:
                        break
            else:
                drained = not self._queue
                if drained and self._running and until is not None \
                        and self.now < until:
                    self.now = until
        finally:
            self._running = False
        return self.now

    def step(self) -> bool:
        """Execute exactly one queued event: ``run(max_events=1)``, with
        ``_running`` left as found.  Returns False if nothing is queued.

        This is the hook the virtual-platform debugger uses for synchronous
        system suspension: between two ``step`` calls the *entire* platform
        is frozen and can be inspected consistently (paper section VII).
        """
        if self.peek_time() is None:
            return False
        running = self._running
        try:
            self.run(max_events=1)
        finally:
            self._running = running
        return True

    def stop(self) -> None:
        """Stop the run loop after the current action returns."""
        self._running = False

    @property
    def pending(self) -> int:
        """Number of queued, non-cancelled events.  O(1): the heap size
        minus the cancelled items still in it (the debugger polls this
        between every kernel event)."""
        return len(self._queue) - self._cancelled

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled action, or None.

        Lazily discards cancelled items from the heap top instead of
        sorting the whole queue.
        """
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None

    def queued_items(self) -> Iterator[_ScheduledItem]:
        """Yield every queued, non-cancelled item, in no particular order
        (checkpointing claims them without knowing the heap layout)."""
        for entry in self._queue:
            if not entry[3].cancelled:
                yield entry[3]

    def clear_queue(self) -> None:
        """Drop every queued item (checkpoint restore rebuilds the queue
        from scratch).  Dropped items count as cancelled, so a late
        cancel() of one leaves ``pending`` exact."""
        for entry in self._queue:
            entry[3].cancelled = True
        self._queue.clear()
        self._cancelled = 0


__all__ = ["Delay", "Interrupted", "Process", "ProcessFailed", "SimObserver",
           "Simulator", "WaitEvent", "WaitProcess"]
