"""The end-to-end MAPS flow (Figure 1 of the paper).

:class:`MapsFlow` chains the phases: sequential C in -> dataflow analysis &
partitioning -> (optional data-parallel expansion) -> mapping -> MVP
simulation -> per-PE code generation -> semantic validation against the
sequential original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cir.interp import run_program
from repro.desim import Simulator
from repro.obs.trace import NullSink, TraceSink
from repro.cir.nodes import Program
from repro.cir.parser import parse
from repro.maps.codegen import generate_data_parallel_code, render_pe_sources
from repro.maps.mapping import Mapping, map_task_graph
from repro.maps.mvp import AppRun, MvpReport, simulate_mapping
from repro.maps.partition import (
    PartitionResult, partition_data_parallel, partition_function,
)
from repro.maps.spec import PlatformSpec
from repro.maps.taskgraph import TaskGraph


@dataclass
class FlowReport:
    """Everything the flow produced for one application."""

    app_name: str
    partition: PartitionResult
    expanded_graph: TaskGraph
    mapping: Mapping
    mvp: MvpReport
    pe_sources: Dict[str, str]
    sequential_result: object
    parallel_result: object
    semantics_preserved: bool
    estimated_speedup: float
    annotation: object = None  # MapsAnnotation of the entry, if any

    @property
    def measured_speedup(self) -> float:
        """Sequential critical cost over simulated makespan."""
        total = self.partition.task_graph.total_cost()
        if self.mvp.makespan <= 0:
            return 0.0
        return total / self.mvp.makespan


class MapsFlow:
    """Driver object mirroring Figure 1.

    With a :class:`~repro.obs.TraceSink` every phase of the flow becomes
    a span on the ``maps.flow`` track (host-clock microseconds), and the
    MVP simulations run under a kernel probe, so one dump shows the
    application phases, the simulated tasks and the kernel itself.
    """

    def __init__(self, platform: PlatformSpec,
                 sink: Optional[TraceSink] = None) -> None:
        self.platform = platform
        self.sink = sink if sink is not None else NullSink()

    def _observed_sim(self) -> Optional[Simulator]:
        """A kernel-probed simulator for MVP runs (None when untraced)."""
        if isinstance(self.sink, NullSink):
            return None
        from repro.obs.probe import observe
        sim = Simulator()
        observe(sim, sink=self.sink)
        return sim

    def run(self, source_or_program, entry: str = "main",
            split_k: Optional[int] = None,
            app_name: str = "app",
            iterations: int = 1,
            refine: bool = False,
            refine_iterations: int = 1200) -> FlowReport:
        """Run the full flow on sequential code.

        ``split_k`` data-parallel-splits every parallelizable loop task
        into ``split_k`` chunks (default: number of platform PEs).

        ``refine=True`` enables Figure 1's refinement loop: "the resulting
        mapping can be exercised and refined with ... MVP".  The HEFT
        mapping is exercised on MVP; an annealing pass seeded with it
        searches for a better assignment, and the candidate replaces the
        HEFT mapping only when MVP simulates it strictly faster.  A
        candidate with the HEFT assignment is not simulated again: MVP is
        a pure function of the graph, the assignment, the platform and
        ``iterations``, so its report would equal the one in hand, and a
        tie keeps the HEFT mapping.
        """
        sink = self.sink
        annotation = None
        with sink.span("parse", track="maps.flow", app=app_name):
            if isinstance(source_or_program, Program):
                program = source_or_program
            else:
                program = parse(source_or_program)
                # Lightweight C extensions: "// @maps pe=dsp period=..."
                # lines annotate the functions they precede (section IV).
                from repro.maps.annotations import parse_annotations
                annotation = parse_annotations(source_or_program).get(entry)
        split_k = split_k or len(self.platform.pes)

        # 1. dataflow analysis + partitioning.
        with sink.span("partition", track="maps.flow", app=app_name):
            partition = partition_function(program, entry)
            if annotation is not None and annotation.preferred_pe is not None:
                for node in partition.task_graph.nodes.values():
                    node.preferred_pe = annotation.preferred_pe

        # 2. data-parallel expansion of every parallelizable loop.
        with sink.span("expand", track="maps.flow", app=app_name):
            expanded = partition.task_graph
            for task_name in partition.parallelizable_tasks:
                staged = PartitionResult(expanded, partition.clusters,
                                         partition.loop_infos,
                                         partition.parallelizable_tasks,
                                         program, entry)
                expanded = partition_data_parallel(staged, task_name, split_k)

        # 3. mapping (HEFT list scheduling).
        with sink.span("map", track="maps.flow", app=app_name):
            mapping = map_task_graph(expanded, self.platform)

        # 4. MVP simulation (+ optional Figure-1 refinement loop).
        with sink.span("mvp_simulate", track="maps.flow", app=app_name):
            mvp = simulate_mapping(
                [AppRun(app_name, mapping, iterations=iterations)],
                self.platform, sim=self._observed_sim())
        if refine:
            with sink.span("refine", track="maps.flow", app=app_name):
                from repro.maps.annealing import map_task_graph_annealing
                candidate = map_task_graph_annealing(
                    expanded, self.platform, iterations=refine_iterations,
                    seed=1, initial=dict(mapping.assignment)).best
                if candidate.assignment != mapping.assignment:
                    candidate_mvp = simulate_mapping(
                        [AppRun(app_name, candidate, iterations=iterations)],
                        self.platform, sim=self._observed_sim())
                    if candidate_mvp.makespan < mvp.makespan:
                        mapping, mvp = candidate, candidate_mvp

        # 5. code generation + per-PE sources.
        with sink.span("codegen", track="maps.flow", app=app_name):
            generated, gen_entry = generate_data_parallel_code(
                PartitionResult(expanded, partition.clusters,
                                partition.loop_infos,
                                partition.parallelizable_tasks, program,
                                entry),
                expanded)
            pe_sources = render_pe_sources(partition, expanded, mapping)

        # 6. semantic validation: generated parallel code vs original.
        with sink.span("validate", track="maps.flow", app=app_name):
            sequential = run_program(program, entry=entry)
            parallel = run_program(generated, entry=gen_entry)
            preserved = (sequential.return_value == parallel.return_value
                         and sequential.output == parallel.output
                         and sequential.globals == parallel.globals)

        sequential_cost = partition.task_graph.total_cost()
        estimated = sequential_cost / max(mapping.makespan, 1e-9)
        return FlowReport(app_name, partition, expanded, mapping, mvp,
                          pe_sources, sequential, parallel, preserved,
                          estimated, annotation)


__all__ = ["FlowReport", "MapsFlow"]
