"""The non-intrusive virtual-platform debugger (section VII).

"Using a virtual platform the entire system can be synchronously suspended
from execution.  This non-intrusive system suspension does not impact the
system behaviour ... During a system suspend, a virtual platform provides a
consistent view into the state of all cores and peripherals."

The debugger drives the simulation one kernel event at a time
(:meth:`SoC.step`), checking stop conditions *between* events -- so when it
stops, **nothing** in the platform has advanced past the stop point: every
core register, peripheral register and signal is consistent, and resuming
continues bit-identically.  Crucially, none of the inspection APIs consume
simulated time, so debugging cannot change program behaviour.

:meth:`Debugger.run` is the only run loop: the system-level assertions of
:mod:`repro.vp.script` are evaluated inside it, after every event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.desim import Event
from repro.vp.iss import CoreState
from repro.vp.soc import SoC


@dataclass
class Breakpoint:
    """Stop before core ``core_id`` executes the instruction at ``pc``."""

    core_id: int
    pc: int
    enabled: bool = True
    hits: int = 0


@dataclass
class Watchpoint:
    """Stop on a matching bus access or signal change.

    ``kind`` is ``'write'``, ``'read'``, ``'access'`` (either) for bus
    watchpoints, or ``'signal'`` for signal watchpoints.  ``master``
    optionally restricts bus watchpoints to one bus master (e.g. ``"dma"``
    or ``"core1"``) -- the paper's "suspending execution when a specific
    core or DMA is writing to a shared resource".
    """

    kind: str
    address: Optional[int] = None
    length: int = 1
    master: Optional[str] = None
    signal_name: Optional[str] = None
    value_predicate: Optional[Callable[[int], bool]] = None
    enabled: bool = True
    hits: int = 0
    last_hit: Optional[Tuple[Any, ...]] = None


@dataclass
class StopReason:
    """Why the debugger suspended the system."""

    # 'breakpoint' | 'watchpoint' | 'halted' | 'limit' | 'idle' | 'step'
    # | 'rewind' (time travel: position restored from a ring checkpoint)
    kind: str
    detail: str = ""
    breakpoint: Optional[Breakpoint] = None
    watchpoint: Optional[Watchpoint] = None
    time: float = 0.0

    def __repr__(self) -> str:
        return f"StopReason({self.kind}: {self.detail} @ {self.time})"


@dataclass
class Assertion:
    """A system-level software assertion, checked after every kernel
    event of :meth:`Debugger.run`: a falsy or raising ``holds()`` is a
    violation, and ``stop_on_failure`` suspends the run at the first."""

    expression: str
    message: str
    holds: Callable[[], Any]
    stop_on_failure: bool = False
    violations: int = 0


@dataclass
class AssertionViolation:
    """One observed system-level assertion failure."""

    time: float
    expression: str
    message: str

    def __repr__(self) -> str:
        return f"VIOLATION @{self.time}: {self.message} ({self.expression})"


class Debugger:
    """Whole-system debugger over one :class:`SoC`."""

    def __init__(self, soc: SoC, injector: Any = None) -> None:
        self.soc = soc
        self.breakpoints: List[Breakpoint] = []
        self.watchpoints: List[Watchpoint] = []
        self.assertions: List[Assertion] = []
        self.violations: List[AssertionViolation] = []
        self._pending: List[StopReason] = []
        self.stops: List[StopReason] = []
        self.soc.bus.observe(self._on_bus_access)
        # (event, callback) per signal watchpoint, unsubscribed on detach.
        self._signal_hooks: List[Tuple[Event, Callable]] = []
        # Fault injector driving this platform (if any): its pending
        # faults and RNG streams ride along in time-travel checkpoints.
        self._injector = injector
        # Time travel (repro.snap): ring buffer of periodic restorable
        # checkpoints captured during run().  Hook mode gates the stop-
        # condition hooks while replaying history: 'live' is normal,
        # 'mute' swallows everything (replay to a known position),
        # 'scan' records matches into _pending without mutating
        # hits/last_hit (reverse_continue's search pass).
        self._ring: List[Any] = []
        self._tt_interval: Optional[float] = None
        self._tt_capacity = 0
        self._tt_next = 0.0
        self._hook_mode = "live"
        # Sync-boundary contract: the debugger inspects the platform
        # between kernel events, so every core must retire at most one
        # instruction per event while a debugger is attached (breakpoints
        # poll `core.pc` between events).  This forces quantum=1 behavior
        # on the ISS batching tiers until detach().
        self.soc.acquire_sync()
        self._attached = True

    def detach(self) -> None:
        """Release the debugger's hold on the platform: stop observing the
        bus and signals and let cores resume temporally-decoupled
        execution."""
        if not self._attached:
            return
        self._attached = False
        self.soc.bus.unobserve(self._on_bus_access)
        for event, callback in self._signal_hooks:
            event.unsubscribe(callback)
        self._signal_hooks.clear()
        self.soc.release_sync()

    # ------------------------------------------------------------------
    # condition registration
    # ------------------------------------------------------------------
    def add_breakpoint(self, core_id: int, pc: int) -> Breakpoint:
        bp = Breakpoint(core_id, pc)
        self.breakpoints.append(bp)
        return bp

    def add_watchpoint(self, kind: str, address: Optional[int] = None,
                       length: int = 1, master: Optional[str] = None,
                       value_predicate: Optional[Callable[[int], bool]] = None) -> Watchpoint:
        if kind not in ("read", "write", "access"):
            raise ValueError(f"bad bus watchpoint kind {kind!r}")
        if address is None:
            raise ValueError("bus watchpoint needs an address")
        wp = Watchpoint(kind, address, length, master,
                        value_predicate=value_predicate)
        self.watchpoints.append(wp)
        return wp

    def add_signal_watchpoint(self, signal_name: str,
                              edge: str = "change") -> Watchpoint:
        """Watch a platform signal ('change' | 'posedge' | 'negedge')."""
        signal = self.soc.signal(signal_name)
        edges = {"change": signal.changed, "posedge": signal.posedge,
                 "negedge": signal.negedge}
        if edge not in edges:
            raise ValueError(f"bad signal watchpoint edge {edge!r}")
        wp = Watchpoint("signal", signal_name=signal_name)
        self.watchpoints.append(wp)

        def on_event(payload: Any) -> None:
            if not wp.enabled or self._hook_mode == "mute":
                return
            if self._hook_mode == "live":
                wp.hits += 1
                wp.last_hit = (self.soc.sim.now, signal_name, payload)
            self._pending.append(StopReason(
                "watchpoint", f"signal {signal_name} {edge}",
                watchpoint=wp, time=self.soc.sim.now))

        event = edges[edge]
        event.subscribe(on_event)
        self._signal_hooks.append((event, on_event))
        return wp

    def _on_bus_access(self, kind: str, address: int, value: int,
                       master: str) -> None:
        if self._hook_mode == "mute":
            return
        for wp in self.watchpoints:
            if not wp.enabled or wp.kind == "signal":
                continue
            if wp.kind != "access" and wp.kind != kind:
                continue
            if not (wp.address <= address < wp.address + wp.length):
                continue
            if wp.master is not None and wp.master != master:
                continue
            if wp.value_predicate is not None and \
                    not wp.value_predicate(value):
                continue
            if self._hook_mode == "live":
                wp.hits += 1
                wp.last_hit = (self.soc.sim.now, kind, address, value,
                               master)
            self._pending.append(StopReason(
                "watchpoint",
                f"{master} {kind} [{address:#x}] = {value}",
                watchpoint=wp, time=self.soc.sim.now))

    # ------------------------------------------------------------------
    # execution control
    # ------------------------------------------------------------------
    def run(self, max_events: int = 1_000_000,
            until_time: Optional[float] = None) -> StopReason:
        """Run until a stop condition, whole-system halt, or budget.

        Assertions are evaluated after every kernel event; a failed
        ``stop_on_failure`` assertion suspends the run there."""
        self.soc.start()
        for _ in range(max_events):
            reason = self._check_stop_conditions()
            if reason is not None:
                return reason
            if self._tt_interval is not None \
                    and self.soc.sim.now >= self._tt_next:
                self._ring_capture()
            if until_time is not None and self.soc.sim.now >= until_time:
                return self._stopped(StopReason(
                    "limit", f"time {until_time}", time=self.soc.sim.now))
            if not self.soc.step():
                return self._stopped(StopReason(
                    "idle", "event queue empty", time=self.soc.sim.now))
            reason = self._check_assertions()
            if reason is not None:
                return reason
        return self._stopped(StopReason("limit", f"{max_events} events",
                                        time=self.soc.sim.now))

    def step_instruction(self, core_id: int,
                         max_events: int = 100_000) -> StopReason:
        """Advance until the given core retires exactly one instruction
        ("the execution of the interrupt handling routines can be inspected
        step by step on each core")."""
        self.soc.start()
        core = self.soc.cores[core_id]
        target = core.instr_count + 1
        for _ in range(max_events):
            if not self.soc.step():
                return self._stopped(StopReason("idle", "event queue empty",
                                                time=self.soc.sim.now))
            if core.instr_count >= target:
                return self._stopped(StopReason(
                    "step", f"core{core_id} at pc={core.pc}",
                    time=self.soc.sim.now))
        return self._stopped(StopReason("limit", "step budget",
                                        time=self.soc.sim.now))

    def _check_stop_conditions(self) -> Optional[StopReason]:
        if self._pending:
            reason = self._pending.pop(0)
            self._pending.clear()
            return self._stopped(reason)
        bp = self._breakpoint_hit()
        if bp is not None:
            bp.hits += 1
            bp.enabled = False  # one-shot arm; re-enable to reuse
            return self._stopped(StopReason(
                "breakpoint", f"core{bp.core_id} at pc={bp.pc}",
                breakpoint=bp, time=self.soc.sim.now))
        if self.soc.all_halted and self.soc.sim.pending == 0:
            return self._stopped(StopReason("halted", "all cores halted",
                                            time=self.soc.sim.now))
        return None

    def _breakpoint_hit(self) -> Optional[Breakpoint]:
        """The first enabled breakpoint whose running core sits at it."""
        for bp in self.breakpoints:
            if bp.enabled:
                core = self.soc.cores[bp.core_id]
                if not core.halted and core.pc == bp.pc:
                    return bp
        return None

    def _check_assertions(self) -> Optional[StopReason]:
        for assertion in self.assertions:
            try:
                ok = assertion.holds()
            except Exception:  # noqa: BLE001 - a failing probe is a violation
                ok = False
            if not ok:
                assertion.violations += 1
                now = self.soc.sim.now
                self.violations.append(AssertionViolation(
                    now, assertion.expression, assertion.message))
                if assertion.stop_on_failure:
                    return self._stopped(StopReason(
                        "assertion", assertion.message, time=now))
        return None

    def _stopped(self, reason: StopReason) -> StopReason:
        self.stops.append(reason)
        return reason

    # ------------------------------------------------------------------
    # time travel (restorable checkpoints, see repro.snap)
    # ------------------------------------------------------------------
    def checkpoint(self, note: str = ""):
        """Capture a real, restorable :class:`repro.snap.Snapshot`.

        Unlike :meth:`system_snapshot` (a read-only inspection dict),
        the returned snapshot restores via ``soc.restore()`` /
        :func:`repro.snap.restore` into a bit-identical continuation.
        While the debugger is attached every core already sits at a
        reference-path boundary, so capture is instantaneous and does
        not advance the simulation.
        """
        from repro.snap import checkpoint
        return checkpoint(self.soc, injector=self._injector, note=note)

    def enable_time_travel(self, interval: float = 1000.0,
                           capacity: int = 8) -> None:
        """Keep a ring of ``capacity`` checkpoints, one every
        ``interval`` simulated cycles during :meth:`run` -- the fuel for
        :meth:`rewind_to` and :meth:`reverse_continue`.  Captures a
        baseline checkpoint immediately."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._tt_interval = float(interval)
        self._tt_capacity = int(capacity)
        self._ring = []
        self._ring_capture()

    def disable_time_travel(self) -> None:
        self._tt_interval = None
        self._ring = []

    @property
    def checkpoints(self) -> List[Any]:
        """The current time-travel ring, oldest first (read-only view)."""
        return list(self._ring)

    def _ring_capture(self) -> None:
        from repro.snap import checkpoint
        snap = checkpoint(self.soc, injector=self._injector,
                          note=f"ring@{self.soc.sim.now:g}",
                          embed_programs=False)
        self._ring.append(snap)
        if len(self._ring) > self._tt_capacity:
            del self._ring[0]
        self._tt_next = self.soc.sim.now + self._tt_interval

    def _restore(self, snap) -> None:
        from repro.snap import restore
        restore(snap, self.soc, injector=self._injector)

    def rewind_to(self, cycle: float) -> StopReason:
        """Travel back: restore the newest ring checkpoint at or before
        ``cycle``, then deterministically re-execute (with stop hooks
        muted) until every event with time <= ``cycle`` has run.

        The platform afterwards sits exactly where the original run sat
        at that boundary -- same registers, RAM, peripherals and event
        queue -- and :meth:`run` continues bit-identically from there.
        """
        from repro.snap import SnapshotError
        candidates = [snap for snap in self._ring if snap.time <= cycle]
        if not candidates:
            raise SnapshotError(
                f"no time-travel checkpoint at or before cycle {cycle:g} "
                f"(ring covers {[snap.time for snap in self._ring]})")
        snap = candidates[-1]
        sim = self.soc.sim
        self._replay_muted(snap, lambda: sim.peek_time() is not None
                           and sim.peek_time() <= cycle)
        return self._stopped(StopReason(
            "rewind", f"rewound to t={sim.now:g} "
            f"(from checkpoint t={snap.time:g})", time=sim.now))

    def reverse_continue(self) -> Optional[StopReason]:
        """Travel back to the *latest* stop condition strictly earlier
        (in simulated time) than the current position.

        Scans backwards through the checkpoint ring: replays each
        segment once in 'scan' mode to locate the last boundary where a
        currently-enabled breakpoint or watchpoint fires, then replays
        again to land exactly there with normal stop semantics (the
        landing event's hooks run live, so ``hits``/``last_hit`` and
        one-shot breakpoint disarming behave as in a forward run).
        Returns ``None`` -- and restores the current position -- when no
        earlier hit exists in the ring's coverage.
        """
        sim = self.soc.sim
        target = sim.now
        here = self.checkpoint(note="reverse_continue origin")
        for snap in reversed(self._ring):
            if snap.time >= target:
                continue
            hit = self._scan_segment(snap, target)
            if hit is None:
                continue
            kind, steps = hit
            # Up to the hit boundary; a watchpoint's own event runs live.
            countdown = iter(range(steps if kind == "bp" else steps - 1))
            self._replay_muted(snap,
                               lambda: next(countdown, None) is not None)
            if kind == "wp":
                sim.step()  # the hit event itself, hooks live
            reason = self._check_stop_conditions()
            if reason is None:  # pragma: no cover - defensive
                reason = self._stopped(StopReason(
                    "rewind", "reverse_continue landed without a "
                    "matching condition", time=sim.now))
            return reason
        self._restore(here)
        return None

    def _replay_muted(self, snap, more: Callable[[], bool]) -> None:
        """Restore ``snap``, then execute events with every stop hook
        muted for as long as ``more()`` holds and events remain."""
        self._restore(snap)
        self._hook_mode = "mute"
        try:
            while more() and self.soc.sim.step():
                pass
        finally:
            self._hook_mode = "live"
            self._pending.clear()

    def _scan_segment(self, snap, target: float):
        """Replay ``snap``..``target`` in scan mode; return the last
        boundary strictly before ``target`` where a stop condition
        matches, as ``(kind, steps)`` -- or None."""
        sim = self.soc.sim
        self._restore(snap)
        self._pending.clear()
        last = None
        steps = 0
        self._hook_mode = "scan"
        try:
            while sim.now < target:
                kind = None
                if self._pending:
                    kind = "wp"
                    self._pending.clear()
                elif self._breakpoint_hit() is not None:
                    kind = "bp"
                if kind is not None:
                    last = (kind, steps)
                if not sim.step():
                    break
                steps += 1
        finally:
            self._hook_mode = "live"
            self._pending.clear()
        return last

    # ------------------------------------------------------------------
    # consistent inspection (all side-effect free)
    # ------------------------------------------------------------------
    def core_states(self) -> List[CoreState]:
        return [core.state() for core in self.soc.cores]

    def read_memory(self, address: int, length: int = 1) -> List[int]:
        return [self.soc.bus.peek(address + i) for i in range(length)]

    def peripheral_registers(self) -> Dict[str, Dict[str, int]]:
        """A consistent snapshot of every peripheral's registers."""
        snapshot: Dict[str, Dict[str, int]] = {}
        for index, timer in enumerate(self.soc.timers):
            snapshot[f"timer{index}"] = {
                "ctrl": timer.peek(0), "period": timer.peek(1),
                "count": timer.peek(2), "status": timer.peek(3)}
        snapshot["dma"] = {"src": self.soc.dma.peek(0),
                           "dst": self.soc.dma.peek(1),
                           "len": self.soc.dma.peek(2),
                           "status": self.soc.dma.peek(4)}
        snapshot["sem"] = {f"s{i}": self.soc.semaphores.peek(i)
                           for i in range(self.soc.semaphores.count)}
        for index, intc in enumerate(self.soc.intcs):
            snapshot[f"intc{index}"] = {"pending": intc.peek(0),
                                        "mask": intc.peek(1)}
        return snapshot

    def system_snapshot(self) -> Dict[str, Any]:
        """Everything at once -- the paper's 'consistent visibility'.

        This is a read-only *inspection view*: a plain dict of derived
        register/signal values whose shape is stable for existing
        callers.  It is **not restorable** -- it carries no kernel event
        queue, process wait-state, or RNG streams.  For a snapshot that
        restores into a bit-identical continuation use
        :meth:`checkpoint` (:mod:`repro.snap`).
        """
        return {
            "time": self.soc.sim.now,
            "cores": [vars(state) for state in self.core_states()],
            "peripherals": self.peripheral_registers(),
            "signals": {name: sig.read()
                        for name, sig in self.soc.signals().items()},
        }


__all__ = ["Assertion", "AssertionViolation", "Breakpoint", "Debugger",
           "StopReason", "Watchpoint"]
