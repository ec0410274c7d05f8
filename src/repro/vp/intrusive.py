"""Model of an intrusive hardware-probe debugger (section VII).

"Debugging using real hardware is typically intrusive ... debuggers
typically cannot halt the entire system.  While the core under debug is
stalled, other cores or timers continue to operate."

A :class:`HardwareProbe` attaches to **one** core.  Its operations cost
that core real (simulated) cycles while the rest of the platform keeps
running:

- a per-instruction monitor overhead (JTAG run-control polling);
- a long stall when a probe breakpoint is hit (the core is halted for the
  human/probe round-trip while timers, DMA and the other cores race on);
- a stall for every register/memory inspection.

This is exactly the timing perturbation that makes a race-condition bug
disappear under debugging -- the "Heisenbug" the E11 bench measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.vp.iss import Cpu
from repro.vp.soc import SoC


@dataclass
class ProbeLog:
    """What the probe observed (at the cost of perturbing the system)."""

    breakpoint_stalls: int = 0
    inspection_stalls: int = 0
    cycles_injected: float = 0.0
    observations: List[Dict] = field(default_factory=list)


class HardwareProbe:
    """An intrusive single-core debug probe."""

    def __init__(self, soc: SoC, core_id: int,
                 monitor_overhead: float = 0.0,
                 breakpoint_stall: float = 200.0,
                 inspection_stall: float = 50.0) -> None:
        self.soc = soc
        self.core = soc.cores[core_id]
        if self.core.stall_hook is not None:
            # One stall hook per core: a second probe would silently
            # replace the first one's, and either detach would drop both.
            raise ValueError(f"{self.core.name} already has a stall hook "
                             f"(another probe is attached)")
        self.monitor_overhead = monitor_overhead
        self.breakpoint_stall = breakpoint_stall
        self.inspection_stall = inspection_stall
        self.breakpoints: Set[int] = set()
        self.inspect_at: Set[int] = set()  # pcs where registers are dumped
        self.log = ProbeLog()
        self._armed: Set[int] = set()
        self.core.stall_hook = self._stall_hook
        # Sync-boundary contract: the probe samples pc/registers before
        # every instruction of the core under debug, so that core must
        # run per-instruction (the stall hook alone already forces this
        # on the ISS batching tiers; the explicit request documents it and
        # keeps the core synchronous even with a zero-cost monitor).
        self.core.acquire_sync()
        self._attached = True

    def add_breakpoint(self, pc: int) -> None:
        self.breakpoints.add(pc)
        self._armed.add(pc)

    def add_inspection(self, pc: int) -> None:
        """Dump registers whenever the core reaches ``pc`` (each visit
        stalls the core under debug -- only it)."""
        self.inspect_at.add(pc)

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        if self.core.stall_hook == self._stall_hook:
            self.core.stall_hook = None
        self.core.release_sync()

    def _stall_hook(self, core: Cpu) -> float:
        stall = self.monitor_overhead
        if core.pc in self._armed:
            # One-shot halt: the probe stops THIS core only; the rest of
            # the platform keeps running for `breakpoint_stall` cycles.
            self._armed.discard(core.pc)
            self.log.breakpoint_stalls += 1
            self.log.observations.append({
                "kind": "breakpoint", "pc": core.pc,
                "time": self.soc.sim.now, "regs": list(core.regs)})
            stall += self.breakpoint_stall
        if core.pc in self.inspect_at:
            self.log.inspection_stalls += 1
            self.log.observations.append({
                "kind": "inspect", "pc": core.pc,
                "time": self.soc.sim.now, "regs": list(core.regs)})
            stall += self.inspection_stall
        self.log.cycles_injected += stall
        return stall


__all__ = ["HardwareProbe", "ProbeLog"]
