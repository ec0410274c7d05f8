"""MVP: the MAPS Virtual Platform (section IV).

"The resulting mapping can be exercised and refined with a fast,
high-level SystemC based simulation environment (MAPS Virtual Platform,
MVP), which has been designed to evaluate different software settings
specifically in a multi-application scenario."

MVP simulates mapped task graphs on the discrete-event kernel:

- every PE is a serial server (one task at a time, granted by the
  app's priority, FIFO among equals);
- each task instance waits for its input tokens, occupies its PE for its
  (class-scaled) cost, then emits tokens, paying communication costs on
  cross-PE edges (:func:`run_task`, shared with :mod:`repro.hopes`);
- task graphs run in *streaming* mode: ``iterations`` instances flow
  through, pipelining across PEs;
- several applications can run concurrently, contending for the PEs --
  the multi-application scenario MVP exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.desim import Delay, Fifo, Resource, Simulator
from repro.maps.mapping import Mapping
from repro.maps.spec import PlatformSpec


@dataclass
class AppRun:
    """One application instance to simulate."""

    name: str
    mapping: Mapping
    iterations: int = 1
    period: Optional[float] = None      # source activation period
    start_time: float = 0.0
    # Dynamic best-effort priority (section IV): lower = more urgent;
    # contending tasks on one PE are dispatched in priority order.
    priority: int = 10
    # Static dispatch (section IV: "hard real-time applications are
    # scheduled statically"): each task instance is released at its static
    # schedule time plus iteration * period, instead of self-timed.
    # Requires a mapping with a schedule and a period.
    static_dispatch: bool = False


@dataclass
class MvpReport:
    """Simulation outcome."""

    makespan: float = 0.0
    # app -> list of per-iteration (start, finish) pairs.
    iteration_spans: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=dict)
    pe_busy: Dict[str, float] = field(default_factory=dict)
    comm_cycles: float = 0.0
    # app -> count of statically-dispatched task instances whose inputs or
    # PE were not ready at their scheduled release (the schedule was
    # violated at run time -- admission should have prevented this).
    schedule_violations: Dict[str, int] = field(default_factory=dict)

    def latencies(self, app: str) -> List[float]:
        return [finish - start for start, finish in self.iteration_spans[app]]

    def throughput(self, app: str) -> float:
        spans = self.iteration_spans[app]
        if len(spans) < 2:
            return 0.0
        first_finish = spans[0][1]
        last_finish = spans[-1][1]
        if last_finish <= first_finish:
            return float("inf")
        return (len(spans) - 1) / (last_finish - first_finish)

    def deadline_misses(self, app: str, deadline: float) -> int:
        return sum(1 for lat in self.latencies(app) if lat > deadline + 1e-9)

    def utilization(self, pe: str) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.pe_busy.get(pe, 0.0) / self.makespan


def simulate_mapping(runs: List[AppRun], platform: PlatformSpec,
                     sim: Optional[Simulator] = None,
                     channel_capacity: int = 4) -> MvpReport:
    """Simulate one or more mapped applications sharing the platform."""
    sim = sim or Simulator()
    report = MvpReport()
    pe_resources: Dict[str, Resource] = {
        pe.name: Resource(1, name=pe.name) for pe in platform.pes}
    ledger = Ledger({pe.name: 0.0 for pe in platform.pes})

    for run in runs:
        report.iteration_spans[run.name] = []
        report.schedule_violations[run.name] = 0
        if run.static_dispatch:
            if run.period is None or not run.mapping.schedule:
                raise ValueError(
                    f"app {run.name!r}: static dispatch needs a period "
                    f"and a mapping with a static schedule")
        _spawn_app(sim, run, platform, pe_resources, ledger, report,
                   channel_capacity)

    sim.run()
    report.pe_busy = ledger.busy
    report.comm_cycles = ledger.comm
    report.makespan = max((finish for spans in
                           report.iteration_spans.values()
                           for _, finish in spans), default=0.0)
    return report


@dataclass
class Ledger:
    """One simulation's totals, added to at fixed points of each firing
    so that float sums follow the event order: ``busy[pe]`` right after
    the firing's hold, ``comm`` right before each transfer delay."""

    busy: Dict[str, float]
    comm: float = 0.0


def run_task(sim: Simulator, iterations: int, inputs: List[Fifo],
             pe: Resource, priority: int, fire: Callable, ledger: Ledger,
             release: Optional[Tuple[float, Optional[float]]] = None,
             fired: Optional[Callable] = None,
             done: Optional[Callable] = None):
    """Fire one mapped task ``iterations`` times on the serial PE ``pe``.

    ``fire(i, tokens)`` returns the hold (a ``Delay``) and the sends,
    ``(fifo, delay or None, value)``.  Firing ``i`` is released at
    ``offset + i * period`` for ``release=(offset, period)``, or with no
    period only firing 0 waits for ``offset``.  ``fired(duration)`` runs
    right after the hold, ``done(i, released, started)`` after the sends.
    """
    offset, period = release or (0.0, None)
    for i in range(iterations):
        if period is not None or i == 0:
            at = offset if period is None else offset + i * period
            if at > sim.now:
                yield Delay(at - sim.now)
        released = sim.now
        tokens = []
        for fifo in inputs:
            tokens.append((yield from fifo.get()))
        hold, sends = fire(i, tokens)
        yield from pe.acquire(priority)
        started = sim.now
        yield hold
        ledger.busy[pe.name] = ledger.busy.get(pe.name, 0.0) + hold.duration
        if fired is not None:
            fired(hold.duration)
        pe.release()
        for fifo, delay, value in sends:
            if delay is not None:
                ledger.comm += delay.duration
                yield delay
            yield from fifo.put(value)
        if done is not None:
            done(i, released, started)


def _spawn_app(sim: Simulator, run: AppRun, platform: PlatformSpec,
               pe_resources: Dict[str, Resource], ledger: Ledger,
               report: MvpReport, channel_capacity: int) -> None:
    graph = run.mapping.graph
    mapping = run.mapping
    # One FIFO per edge; tokens are iteration indices.
    edge_fifos = {id(edge): Fifo(capacity=channel_capacity,
                                 name=f"{run.name}.{edge.src}->{edge.dst}")
                  for edge in graph.edges}
    # Iteration bookkeeping for latency measurement.
    starts: Dict[int, float] = {}
    unfinished_sinks: Dict[int, int] = {}
    sink_names = set(graph.sinks())
    source_names = set(graph.sources())
    static = run.static_dispatch
    static_starts = {entry.task: entry.start for entry in mapping.schedule}

    def spawn(task_name: str) -> None:
        pe_name = mapping.pe_of(task_name)
        pe = platform.pe(pe_name)
        hold = Delay(graph.nodes[task_name].cost_on(pe.pe_class, pe.freq))
        # (fifo, transfer delay, or None for a same-PE edge)
        outputs = [(edge_fifos[id(edge)],
                    Delay(platform.comm_cost(edge.words))
                    if mapping.pe_of(edge.dst) != pe_name else None)
                   for edge in graph.out_edges(task_name)]
        is_source = task_name in source_names
        is_sink = task_name in sink_names

        def fire(i: int, _tokens: list) -> tuple:
            # A source has no inputs: it fires at its release time.
            if is_source and i not in starts:
                starts[i] = sim.now
                unfinished_sinks[i] = len(sink_names)
            return hold, [(fifo, delay, i) for fifo, delay in outputs]

        def done(i: int, released: float, started: float) -> None:
            if static and started > released + 1e-9:
                # Inputs or the PE were not ready at the scheduled
                # release: the static schedule was violated at run time.
                report.schedule_violations[run.name] += 1
            if is_sink:
                unfinished_sinks[i] -= 1
                if unfinished_sinks[i] == 0:
                    report.iteration_spans[run.name].append(
                        (starts[i], sim.now))

        sim.spawn(run_task(
            sim, run.iterations,
            [edge_fifos[id(edge)] for edge in graph.in_edges(task_name)],
            pe_resources[pe_name], run.priority, fire, ledger,
            # Static dispatch: at the scheduled start plus i * period.  A
            # source: periodically (annotation), else from start_time on.
            (run.start_time + static_starts[task_name], run.period)
            if static else (run.start_time, run.period) if is_source
            else None,
            done=done if static or is_sink else None),
            name=f"{run.name}.{task_name}")

    for task_name in graph.nodes:
        spawn(task_name)


__all__ = ["AppRun", "Ledger", "MvpReport", "run_task", "simulate_mapping"]
