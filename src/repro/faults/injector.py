"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`
to a live simulation, deterministically.

Scheduled faults are posted on the kernel's event queue at their exact
sim times; per-message rules are evaluated by a hook the NoC transport
calls once per transmission, drawing from one derived RNG stream in
kernel-event order (which the desim kernel keeps deterministic).  The
injector also installs itself as a :class:`~repro.desim.SimObserver`
so process failures anywhere in the system surface as fault-correlated
trace events -- and so virtual-platform cores drop to the event-exact
per-instruction path while a campaign is active (bit flips land between
the same two instructions on every run).

Subsystems opt in by *registering handlers* for fault kinds (the
resilient OS scheduler registers ``core_crash``/``core_hang``; a SoC
registers ``ram_flip``/``reg_flip``/``irq_stuck`` via
:meth:`FaultInjector.attach_soc`).  A scheduled fault with no handler is
recorded as unhandled -- a plan is allowed to out-run the attached
system, never to crash it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.desim.kernel import Process, SimObserver, Simulator
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.metrics import MetricsRegistry

Handler = Callable[[FaultSpec], bool]

# Trace-sink track every injected fault, recovery and observed process
# failure is emitted on.
TRACK = "faults"


class FaultInjector(SimObserver):
    """Applies a seeded :class:`FaultPlan` to one :class:`Simulator`.

    ``sink``/``metrics`` receive every injected fault (instants on the
    ``faults`` track; ``faults.injected[.<kind>]`` counters) and every
    process failure observed kernel-wide.  With no injector attached a
    simulation pays nothing -- the chaos path exists only here.
    """

    def __init__(self, sim: Simulator, plan: FaultPlan,
                 sink: Optional[Any] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.plan = plan
        self.sink = sink
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.injected: List[FaultSpec] = []
        self.unhandled: List[FaultSpec] = []
        self._handlers: Dict[Tuple[str, Any], Handler] = {}
        self._noc_rng = plan.rng("noc")
        # Checkpoint support (repro.snap): every kernel item this injector
        # owns is tracked so a snapshot can claim it.  `_scheduled` maps a
        # plan.scheduled index to its queue item; `_stuck_records` holds
        # one dict per asserted stuck-irq (core, deadline, release item).
        self._scheduled: Dict[int, Any] = {}
        self._stuck_records: List[Dict[str, Any]] = []
        self._soc: Any = None
        self.register("kill_process", None, self._kill_process_handler)
        sim.add_observer(self)
        for index, spec in enumerate(plan.scheduled):
            if spec.time >= sim.now:
                self._scheduled[index] = self.sim.at(
                    spec.time, lambda spec=spec: self._fire(spec))

    # ------------------------------------------------------------------
    # handler registry
    # ------------------------------------------------------------------
    def register(self, kind: str, target: Any, handler: Handler) -> None:
        """Install a handler for ``(kind, target)``; ``target=None``
        catches every target of that kind."""
        self._handlers[(kind, target)] = handler

    def _fire(self, spec: FaultSpec) -> None:
        handler = self._handlers.get((spec.kind, spec.target))
        if handler is None:
            handler = self._handlers.get((spec.kind, None))
        applied = bool(handler(spec)) if handler is not None else False
        if applied:
            self.injected.append(spec)
            self.metrics.counter("faults.injected").inc()
            self.metrics.counter(f"faults.injected.{spec.kind}").inc()
        else:
            self.unhandled.append(spec)
            self.metrics.counter("faults.unhandled").inc()
        if self.sink is not None:
            self.sink.instant(f"fault.{spec.kind}", track=TRACK,
                              ts=self.sim.now, target=spec.target,
                              applied=applied, **spec.as_dict())

    # ------------------------------------------------------------------
    # built-in generic handlers
    # ------------------------------------------------------------------
    def _kill_process_handler(self, spec: FaultSpec) -> bool:
        for proc in self.sim.processes:
            if proc.name == spec.target and proc.alive:
                self.sim.kill(proc)
                return True
        return False

    # ------------------------------------------------------------------
    # recovery-side observability (subsystems report through this)
    # ------------------------------------------------------------------
    def note_recovery(self, action: str, mttr: Optional[float] = None,
                      **details: Any) -> None:
        """Record a recovery action (task restart, retransmit success,
        ...).  ``mttr`` feeds the ``faults.mttr`` histogram: sim time
        from fault to restored service."""
        self.metrics.counter("faults.recoveries").inc()
        self.metrics.counter(f"faults.recoveries.{action}").inc()
        if mttr is not None:
            self.metrics.histogram("faults.mttr").observe(mttr)
        if self.sink is not None:
            self.sink.instant(f"recover.{action}", track=TRACK,
                              ts=self.sim.now, mttr=mttr, **details)

    # ------------------------------------------------------------------
    # NoC attachment: per-transmission probabilistic faults
    # ------------------------------------------------------------------
    def attach_noc(self, noc: Any) -> None:
        """Point a :class:`~repro.manycore.messaging.NoCModel`'s fault
        hook at this injector's message rules."""
        noc.fault_hook = self.message_faults
        if noc.sink is None:
            noc.sink = self.sink
        if noc.metrics is None:
            noc.metrics = self.metrics

    def message_faults(self, message: Any) -> Optional[Dict[str, Any]]:
        """Decide the fate of one transmission (called by the NoC).

        Exactly one uniform draw per configured rule per call, so RNG
        consumption -- and therefore the whole campaign -- is a pure
        function of (seed, transmission order).
        """
        rules = self.plan.message_rules
        if not rules:
            return None
        rng = self._noc_rng
        actions: Dict[str, Any] = {}
        rule = rules.get("drop")
        if rule is not None and rng.random() < rule.probability:
            actions["drop"] = True
        rule = rules.get("duplicate")
        if rule is not None and rng.random() < rule.probability:
            actions["duplicate"] = True
        rule = rules.get("delay")
        if rule is not None and rng.random() < rule.probability:
            actions["extra_delay"] = rule.max_extra * rng.random()
        rule = rules.get("corrupt")
        if rule is not None and rng.random() < rule.probability:
            actions["corrupt"] = True
        if not actions:
            return None
        self.metrics.counter("faults.message_faults").inc()
        return actions

    # ------------------------------------------------------------------
    # SoC attachment: RAM / register / interrupt faults
    # ------------------------------------------------------------------
    def attach_soc(self, soc: Any) -> None:
        """Register handlers for hardware-level transient faults on a
        :class:`~repro.vp.soc.SoC` (RAM bit flips, register bit flips,
        stuck interrupt lines)."""

        def ram_flip(spec: FaultSpec) -> bool:
            addr = spec.param("addr")
            bit = spec.param("bit", 0)
            if addr is None or not 0 <= addr < soc.ram.size:
                return False
            soc.ram.words[addr] ^= (1 << bit)
            return True

        def reg_flip(spec: FaultSpec) -> bool:
            core = spec.target
            reg = spec.param("reg")
            bit = spec.param("bit", 0)
            if core is None or not 0 <= core < len(soc.cores) or reg is None:
                return False
            cpu = soc.cores[core]
            if not 0 < reg < len(cpu.regs):  # r0 is hardwired to zero
                return False
            # Flip within the 32-bit word and store the canonical signed
            # image: registers are architecturally 32 bits wide, and a
            # raw Python XOR on a negative (two's-complement) value would
            # leave a value no 32-bit core could hold.
            flipped = (cpu.regs[reg] & 0xFFFFFFFF) ^ (1 << (bit & 31))
            if flipped & 0x80000000:
                flipped -= 0x1_0000_0000
            cpu.regs[reg] = flipped
            return True

        def irq_stuck(spec: FaultSpec) -> bool:
            core = spec.target
            if core is None or not 0 <= core < len(soc.cores):
                return False
            duration = spec.param("duration")
            deadline = self.sim.now + duration \
                if duration is not None else None
            self._assert_stuck(core, deadline)
            return True

        self._soc = soc
        self.register("ram_flip", None, ram_flip)
        self.register("reg_flip", None, reg_flip)
        self.register("irq_stuck", None, irq_stuck)

    def _assert_stuck(self, core: int, deadline: Optional[float],
                      assert_line: bool = True,
                      arm: bool = True) -> Dict[str, Any]:
        """Hold ``core``'s irq line high until ``deadline`` (or forever).

        ``assert_line=False`` re-installs only the hold subscription --
        the snapshot-restore path, where the line's value is restored
        separately via ``Signal.force``.
        """
        line = self._soc.cores[core].irq
        record: Dict[str, Any] = {"core": core, "deadline": deadline,
                                  "item": None, "active": True}

        def hold(_payload: Any) -> None:
            if not line.read():
                line.write(1)

        def release() -> None:
            if not record["active"]:
                return
            record["active"] = False
            line.negedge.unsubscribe(hold)
            line.write(0)

        record["hold"] = hold
        record["release"] = release
        record["line"] = line
        line.negedge.subscribe(hold)
        if assert_line:
            line.write(1)
        self._stuck_records.append(record)
        if arm and deadline is not None:
            record["item"] = self.sim.at(deadline, release)
        return record

    def release_stuck_interrupts(self) -> None:
        """Clear every stuck interrupt line this injector asserted."""
        for record in self._active_stuck():
            record["release"]()

    # ------------------------------------------------------------------
    # checkpoint/restore support (repro.snap)
    # ------------------------------------------------------------------
    def _active_stuck(self) -> List[Dict[str, Any]]:
        return [r for r in self._stuck_records if r["active"]]

    def snap_claims(self) -> List[Tuple[Any, str, int]]:
        """``(item, kind, index)`` for every live kernel item this
        injector owns: pending scheduled faults (index into
        ``plan.scheduled``) and armed stuck-irq releases (index into the
        active-stuck list, the order :meth:`snap_state` serializes)."""
        claims: List[Tuple[Any, str, int]] = []
        for index, item in self._scheduled.items():
            if not item.cancelled and not item.consumed:
                claims.append((item, "fault", index))
        for position, record in enumerate(self._active_stuck()):
            item = record["item"]
            if item is not None and not item.cancelled \
                    and not item.consumed:
                claims.append((item, "stuck_release", position))
        return claims

    def snap_state(self) -> Dict[str, Any]:
        """JSON-serializable injector state for a whole-SoC snapshot."""
        version, internal, gauss_next = self._noc_rng.getstate()
        return {
            "rng": [version, list(internal), gauss_next],
            "pending": sorted(index for index, item in
                              self._scheduled.items()
                              if not item.cancelled and not item.consumed),
            "stuck": [{"core": r["core"], "deadline": r["deadline"]}
                      for r in self._active_stuck()],
        }

    def snap_restore(self, state: Dict[str, Any]) -> None:
        """Reset this injector to a snapshot's state.

        Called *after* the kernel queue was cleared (so every item this
        injector had scheduled is already gone) and *before* the claims
        are re-armed in rank order via :meth:`snap_arm_fault` /
        :meth:`snap_arm_stuck`.  Stuck holds are re-subscribed without
        driving the line -- signal values are restored separately.
        """
        for record in self._stuck_records:
            if record["active"]:
                record["active"] = False
                record["line"].negedge.unsubscribe(record["hold"])
        self._stuck_records = []
        self._scheduled = {}
        version, internal, gauss_next = state["rng"]
        self._noc_rng.setstate((version, tuple(internal), gauss_next))
        if state["stuck"] and self._soc is None:
            raise RuntimeError("snapshot has stuck interrupts but this "
                               "injector has no SoC attached; call "
                               "attach_soc() before restore")
        for stuck in state["stuck"]:
            self._assert_stuck(stuck["core"], stuck["deadline"],
                               assert_line=False, arm=False)

    def snap_arm_fault(self, index: int) -> Any:
        """Re-arm pending scheduled fault ``plan.scheduled[index]``."""
        spec = self.plan.scheduled[index]
        item = self.sim.at(spec.time, lambda: self._fire(spec))
        self._scheduled[index] = item
        return item

    def snap_arm_stuck(self, position: int) -> Any:
        """Re-arm the timed release of active stuck-irq ``position``."""
        record = self._active_stuck()[position]
        item = self.sim.at(record["deadline"], record["release"])
        record["item"] = item
        return item

    # ------------------------------------------------------------------
    # SimObserver: fault-correlated failure monitoring
    # ------------------------------------------------------------------
    def on_process_finish(self, sim: Simulator, proc: Process) -> None:
        if proc.error is not None:
            self.metrics.counter("faults.process_failures").inc()
            if self.sink is not None:
                self.sink.instant("process_failed", track=TRACK,
                                  ts=sim.now, process=proc.name,
                                  error=repr(proc.error))

    def __repr__(self) -> str:
        return (f"FaultInjector({self.plan!r}, injected="
                f"{len(self.injected)}, unhandled={len(self.unhandled)})")


__all__ = ["FaultInjector", "Handler"]
