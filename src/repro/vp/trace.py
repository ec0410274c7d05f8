"""Hardware/software tracing (section VII).

"A history of function execution within the different processes, and their
access to memories and peripherals, is of great help to understand and
identify the cause of a defect."

The tracer records, without perturbing the platform:

- instruction retirement per core (optional, verbose);
- function call/return history (``jal``/``ret`` detection);
- every bus access with its master;
- interrupt-line edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import TraceSink
from repro.vp.isa import Instr
from repro.vp.iss import Cpu
from repro.vp.soc import SoC


@dataclass
class TraceEvent:
    """One recorded event."""

    time: float
    kind: str  # 'instr' | 'call' | 'ret' | 'mem' | 'irq'
    core: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        who = f"core{self.core}" if self.core is not None else "-"
        return f"[{self.time:>8}] {who:>6} {self.kind:<6} {self.detail}"


class Tracer:
    """Non-intrusive event recorder over one SoC.

    A thin adapter over the shared observability sink: every recorded
    event lands in the in-memory :attr:`events` list (the query API
    below), and -- when a :class:`~repro.obs.TraceSink` is supplied --
    is also emitted into it: ``jal``/``ret`` become call-stack spans on
    the per-core ``vp/core<N>`` tracks, bus accesses and irq edges
    become instants on ``vp/bus`` and ``vp/irq``.

    Registration is append-only (``Cpu.add_post_instr_hook``), so any
    number of tracers and debuggers can observe one SoC simultaneously;
    :meth:`detach` removes exactly this tracer's hooks.
    """

    def __init__(self, soc: SoC, trace_instructions: bool = False,
                 trace_memory: bool = True,
                 sink: Optional[TraceSink] = None) -> None:
        self.soc = soc
        self.trace_instructions = trace_instructions
        self.sink = sink
        self.events: List[TraceEvent] = []
        self.call_depth: Dict[int, int] = {c.core_id: 0 for c in soc.cores}
        self._instr_hooks = [
            (core, core.add_post_instr_hook(self._make_instr_hook()))
            for core in soc.cores]
        if trace_memory:
            soc.bus.observe(self._on_bus)
        self._irq_hooks = []
        for name, signal in soc.signals().items():
            if name.endswith(".irq"):
                hook = self._make_irq_hook(name)
                signal.changed.subscribe(hook)
                self._irq_hooks.append((signal, hook))

    def detach(self) -> None:
        """Remove every hook this tracer installed (idempotent); the
        recorded :attr:`events` stay queryable.  With nothing left
        observing them the cores return to their batching tiers."""
        for core, hook in self._instr_hooks:
            core.remove_post_instr_hook(hook)
        for signal, hook in self._irq_hooks:
            signal.changed.unsubscribe(hook)
        self._instr_hooks = self._irq_hooks = []
        self.soc.bus.unobserve(self._on_bus)

    def _record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def _core_track(self, core_id: int) -> str:
        return f"vp/core{core_id}"

    def _make_instr_hook(self):
        def hook(core: Cpu, instr: Instr) -> None:
            now = self.soc.sim.now
            if instr.op == "jal":
                self.call_depth[core.core_id] += 1
                self._record(TraceEvent(
                    now, "call", core.core_id,
                    {"target": instr.args[0],
                     "depth": self.call_depth[core.core_id]}))
                if self.sink is not None:
                    self.sink.begin(f"fn@{instr.args[0]}",
                                    track=self._core_track(core.core_id),
                                    ts=now)
            elif instr.op == "ret":
                self._record(TraceEvent(
                    now, "ret", core.core_id,
                    {"depth": self.call_depth[core.core_id]}))
                self.call_depth[core.core_id] = max(
                    0, self.call_depth[core.core_id] - 1)
                if self.sink is not None:
                    self.sink.end(track=self._core_track(core.core_id),
                                  ts=now)
            elif self.trace_instructions:
                self._record(TraceEvent(
                    now, "instr", core.core_id,
                    {"op": instr.op, "pc": core.pc}))
        return hook

    def _on_bus(self, kind: str, address: int, value: int,
                master: str) -> None:
        now = self.soc.sim.now
        region = self.soc.bus.region_of(address)
        self._record(TraceEvent(
            now, "mem", None,
            {"op": kind, "addr": address, "value": value,
             "master": master, "region": region}))
        if self.sink is not None:
            self.sink.instant(f"{kind}@{region}", track="vp/bus", ts=now,
                              addr=address, value=value, master=master)

    def _make_irq_hook(self, name: str):
        def hook(payload: Any) -> None:
            now = self.soc.sim.now
            old, new = payload
            self._record(TraceEvent(
                now, "irq", None,
                {"signal": name, "old": old, "new": new}))
            if self.sink is not None:
                self.sink.instant(name, track="vp/irq", ts=now,
                                  old=old, new=new)
        return hook

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def accesses_to(self, address: int, kind: Optional[str] = None) -> List[TraceEvent]:
        return [e for e in self.events
                if e.kind == "mem" and e.detail["addr"] == address
                and (kind is None or e.detail["op"] == kind)]

    def by_master(self, master: str) -> List[TraceEvent]:
        return [e for e in self.events
                if e.kind == "mem" and e.detail["master"] == master]

    def call_history(self, core_id: int) -> List[TraceEvent]:
        return [e for e in self.events
                if e.kind in ("call", "ret") and e.core == core_id]

    def interleaving_signature(self, address: int) -> str:
        """Order of masters touching an address -- a compact fingerprint of
        the schedule used by the determinism tests."""
        return ",".join(e.detail["master"]
                        for e in self.accesses_to(address))


__all__ = ["TraceEvent", "Tracer"]
