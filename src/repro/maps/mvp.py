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
  cross-PE edges;
- task graphs run in *streaming* mode: ``iterations`` instances flow
  through, pipelining across PEs;
- several applications can run concurrently, contending for the PEs --
  the multi-application scenario MVP exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
    deadline: Optional[float] = None    # per-iteration latency budget
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
    pe_busy: Dict[str, float] = {pe.name: 0.0 for pe in platform.pes}
    remaining = [0]  # mutable completion counter across closures

    for run in runs:
        report.iteration_spans[run.name] = []
        report.schedule_violations[run.name] = 0
        if run.static_dispatch:
            if run.period is None or not run.mapping.schedule:
                raise ValueError(
                    f"app {run.name!r}: static dispatch needs a period "
                    f"and a mapping with a static schedule")
        remaining[0] += 1
        _spawn_app(sim, run, platform, pe_resources, pe_busy, report,
                   channel_capacity)

    sim.run()
    report.pe_busy = pe_busy
    report.makespan = max((finish for spans in
                           report.iteration_spans.values()
                           for _, finish in spans), default=0.0)
    return report


def _spawn_app(sim: Simulator, run: AppRun, platform: PlatformSpec,
               pe_resources: Dict[str, Resource],
               pe_busy: Dict[str, float], report: MvpReport,
               channel_capacity: int) -> None:
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

    static_starts: Dict[str, float] = {}
    if run.static_dispatch:
        static_starts = {entry.task: entry.start
                         for entry in mapping.schedule}

    def task_process(task_name: str):
        # The mapping is fixed for the whole simulation, so everything a
        # task instance needs from it is looked up once per task.
        pe_name = mapping.pe_of(task_name)
        pe = platform.pe(pe_name)
        duration = graph.nodes[task_name].cost_on(pe.pe_class, pe.freq)
        resource = pe_resources[pe_name]
        inputs = [edge_fifos[id(edge)] for edge in graph.in_edges(task_name)]
        # (fifo, communication cost, or None for a same-PE edge)
        outputs = [(edge_fifos[id(edge)],
                    platform.comm_cost(edge.words)
                    if mapping.pe_of(edge.dst) != pe_name else None)
                   for edge in graph.out_edges(task_name)]
        is_source = task_name in source_names
        is_sink = task_name in sink_names
        for iteration in range(run.iterations):
            if run.static_dispatch:
                release = (run.start_time + static_starts[task_name]
                           + iteration * run.period)
                if release > sim.now:
                    yield Delay(release - sim.now)
                if iteration not in starts and is_source:
                    starts[iteration] = sim.now
                    unfinished_sinks[iteration] = len(sink_names)
            elif is_source:
                # Periodic activation (annotation), else as fast as allowed.
                if run.period is not None:
                    release = run.start_time + iteration * run.period
                    if release > sim.now:
                        yield Delay(release - sim.now)
                elif run.start_time > sim.now and iteration == 0:
                    yield Delay(run.start_time - sim.now)
                if iteration not in starts:
                    starts[iteration] = sim.now
                    unfinished_sinks[iteration] = len(sink_names)
            release_point = sim.now
            for fifo in inputs:
                yield from fifo.get()
            yield from resource.acquire(priority=run.priority)
            if run.static_dispatch and sim.now > release_point + 1e-9:
                # Inputs or the PE were not ready at the scheduled release:
                # the static schedule was violated at run time.
                report.schedule_violations[run.name] += 1
            yield Delay(duration)
            pe_busy[pe_name] += duration
            resource.release()
            for fifo, comm in outputs:
                if comm is not None:
                    report.comm_cycles += comm
                    yield Delay(comm)
                yield from fifo.put(iteration)
            if is_sink:
                unfinished_sinks[iteration] -= 1
                if unfinished_sinks[iteration] == 0:
                    report.iteration_spans[run.name].append(
                        (starts[iteration], sim.now))

    for task_name in graph.nodes:
        sim.spawn(task_process(task_name), name=f"{run.name}.{task_name}")


__all__ = ["AppRun", "MvpReport", "simulate_mapping"]
