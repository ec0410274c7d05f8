"""Semi-automatic code partitioning (section IV).

"MAPS uses advanced dataflow analysis to extract the available parallelism
from the sequential codes ... and to form a set of fine-grained task graphs
based on a coarse model of the target architecture."

Three partitioners are provided:

- :func:`partition_function` -- cluster the entry function's top-level
  statements into tasks, with data-dependence edges between clusters and
  per-loop parallelizability analysis (the fine-grained task graph);
- :func:`partition_data_parallel` -- split a DOALL/REDUCTION loop task
  into ``k`` chunk tasks (plus a combine task for reductions);
- :func:`partition_pipeline` -- turn the body of an outer (frame) loop
  into pipeline stages communicating through channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cir.analysis.cfg import CFG, build_cfg
from repro.cir.analysis.cost import CostWeights, estimate_cost
from repro.cir.analysis.dataflow import (
    defs_of, liveness, stmt_defs, uses_of,
)
from repro.cir.analysis.dependence import (
    LoopClass, LoopInfo, analyze_loop, chunk_loop, chunk_refusal,
    counted_loop,
)
from repro.cir.nodes import (
    Assign, Decl, Expr, For, FuncDef, Ident, Program, Stmt,
)
from repro.cir.typesys import ArrayType
from repro.maps.spec import PEClass
from repro.maps.taskgraph import TaskGraph, TaskNode


@dataclass
class Cluster:
    """A candidate task: one loop or a run of straight-line statements."""

    name: str
    stmts: List[Stmt]
    loop_info: Optional[LoopInfo] = None

    def defs(self) -> Set[str]:
        return defs_of(self.stmts)

    def uses(self) -> Set[str]:
        return uses_of(self.stmts)


@dataclass
class PartitionResult:
    """Outcome of partitioning one application."""

    task_graph: TaskGraph
    clusters: Dict[str, Cluster] = field(default_factory=dict)
    loop_infos: Dict[str, LoopInfo] = field(default_factory=dict)
    parallelizable_tasks: List[str] = field(default_factory=list)
    program: Optional[Program] = None
    entry: str = "main"
    tool_decisions: int = 0  # automation metric used by the E6 bench


def _array_sizes(program: Program, func: FuncDef) -> Dict[str, int]:
    """Name -> size in words of every array ``func`` sees (a name not
    in the table is a scalar or unknown: 1 word).

    Global declarations come first, then local ``Decl``s in walk order,
    then parameters; the first array declaration of a name wins.
    """
    decls = [*program.globals,
             *(node for node in func.body.walk() if isinstance(node, Decl)),
             *func.params]
    sizes: Dict[str, int] = {}
    for decl in decls:
        if isinstance(decl.type, ArrayType) and decl.name not in sizes:
            sizes[decl.name] = decl.type.sizeof()
    return sizes


def partition_function(program: Program, entry: str = "main",
                       weights: Optional[CostWeights] = None) -> PartitionResult:
    """Build the fine-grained task graph of ``entry``.

    Top-level ``for`` loops become loop tasks (analyzed for
    parallelizability); maximal runs of other statements become block
    tasks.  Edges carry flow dependences with estimated transfer volumes.
    A parallel loop stays unsplit, with the reason in its ``reasons``,
    when :func:`chunk_refusal` refuses it or when its loop variable or a
    private scalar it writes is live after it: the chunks run last-first,
    so such a scalar would keep the first chunk's value.
    """
    func = program.function(entry)
    sizes = _array_sizes(program, func)
    weights = weights or CostWeights()
    pure = {f.name for f in program.functions
            if _function_is_pure(program, f)}
    cfg = build_cfg(func)
    live_in = liveness(cfg)[0]
    globals_ = {decl.name for decl in program.globals}  # live at exit

    clusters: List[Cluster] = []
    run: List[Stmt] = []
    decisions = 0

    def flush_run() -> None:
        nonlocal run
        if run:
            clusters.append(Cluster(f"block{len(clusters)}", run))
            run = []

    for stmt in func.body.stmts:
        if isinstance(stmt, For):
            flush_run()
            info = analyze_loop(stmt, pure_functions=pure)
            clusters.append(Cluster(f"loop{len(clusters)}_L{stmt.line}",
                                    [stmt], info))
            decisions += 1
        else:
            run.append(stmt)
    flush_run()

    graph = TaskGraph(f"{entry}.tasks")
    result = PartitionResult(graph, program=program, entry=entry)
    for cluster in clusters:
        cost = sum(estimate_cost(s, weights, program).total
                   for s in cluster.stmts)
        node = graph.add_task(cluster.name, cost=max(cost, 1.0),
                              stmts=cluster.stmts)
        node.class_factor = _class_factors(cluster, program)
        result.clusters[cluster.name] = cluster
        info = cluster.loop_info
        if info is not None:
            result.loop_infos[cluster.name] = info
            if info.classification.parallelizable():
                why = chunk_refusal(info.loop)
                live = (info.private_scalars | {info.header.var}) & (
                    _live_after(cfg, live_in, info.loop) | globals_)
                if why is None and live:
                    why = f"{', '.join(sorted(live))} live after the loop"
                if why is None:
                    result.parallelizable_tasks.append(cluster.name)
                else:
                    info.reasons.append(f"not split: {why}")
        decisions += 1

    result.tool_decisions = decisions + _connect_flow(graph, clusters, sizes)
    return result


def _connect_flow(graph: TaskGraph, clusters: List[Cluster],
                  sizes: Dict[str, int]) -> int:
    """Add a flow edge from each cluster to every later one that reads a
    name it defines; returns the number of edges."""
    edges = 0
    for i, earlier in enumerate(clusters):
        produced = earlier.defs()
        for later in clusters[i + 1:]:
            shared = produced & later.uses()
            if shared:
                words = sum(sizes.get(name, 1) for name in shared)
                graph.connect(earlier.name, later.name, words=words,
                              label=",".join(sorted(shared)))
                edges += 1
    return edges


def _live_after(cfg: CFG, live_in: Dict[int, Set[str]],
                loop: For) -> Set[str]:
    """Names live once ``loop`` is done: live into a successor of its
    test that lies outside the loop."""
    inside = {id(node) for node in loop.walk()}
    test = next(node for node in cfg.nodes.values()
                if node.kind == "branch" and node.test is loop.test)
    after: Set[str] = set()
    for nid in test.succs:
        succ = cfg.nodes[nid]
        if id(succ.stmt if succ.stmt is not None else succ.test) \
                not in inside:
            after |= live_in[nid]
    return after


def _function_is_pure(program: Program, func: FuncDef) -> bool:
    """Conservative purity: no global/array/pointer writes, no impure calls."""
    global_names = {d.name for d in program.globals}
    for node in func.body.walk():
        if isinstance(node, Assign):
            if not isinstance(node.target, Ident):
                return False
            if node.target.name in global_names:
                return False
    return True


def _class_factors(cluster: Cluster, program: Program) -> Dict[PEClass, float]:
    """Coarse per-PE-class cost ratios from the operation mix."""
    base = None
    factors: Dict[PEClass, float] = {}
    for pe_class in PEClass:
        total = sum(estimate_cost(s, pe_class.weights, program).total
                    for s in cluster.stmts)
        if base is None:
            factors[pe_class] = 1.0
            base = max(total, 1e-9)
        else:
            factors[pe_class] = total / base
    return factors


# ---------------------------------------------------------------------------
# data-parallel expansion
# ---------------------------------------------------------------------------

def partition_data_parallel(result: PartitionResult, task_name: str,
                            k: int) -> TaskGraph:
    """Split loop task ``task_name`` into ``k`` data-parallel chunks.

    The loop must be one of ``result.parallelizable_tasks``.  Returns a
    *new* task graph; the original is not modified.  Chunk tasks carry
    :func:`chunk_loop`'s loops, with reduction targets renamed to
    per-chunk partials, so the code generator can emit runnable per-PE
    code.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    info = result.loop_infos.get(task_name)
    if info is None:
        raise KeyError(f"{task_name!r} is not a loop task")
    if task_name not in result.parallelizable_tasks:
        raise ValueError(
            f"{task_name!r} is {info.classification.value}; reasons: "
            f"{info.reasons}")

    old = result.task_graph
    graph = TaskGraph(f"{old.name}+split({task_name},{k})")
    for name, node in old.nodes.items():
        if name != task_name:
            graph.add_node(TaskNode(name, node.cost, list(node.stmts),
                                    node.kind, node.preferred_pe,
                                    dict(node.class_factor)))
    original = old.nodes[task_name]
    chunk_names: List[str] = []
    for index, chunk in enumerate(chunk_loop(info.loop, k)):
        chunk_name = f"{task_name}.c{index}"
        chunk_names.append(chunk_name)
        for red_var in info.reductions:
            _rename_ident(chunk.body, red_var,
                          _partial_name(red_var, task_name, index))
        node = TaskNode(chunk_name, original.cost / k, [chunk],
                        kind="compute",
                        preferred_pe=original.preferred_pe,
                        class_factor=dict(original.class_factor))
        graph.add_node(node)

    combine_name: Optional[str] = None
    if info.classification == LoopClass.REDUCTION:
        combine_name = f"{task_name}.combine"
        combine_stmts = _make_combine_stmts(info, k, task_name)
        graph.add_node(TaskNode(combine_name, cost=max(2.0 * k, 1.0),
                                stmts=combine_stmts, kind="combine"))

    # Rewire edges.
    for edge in old.edges:
        if edge.src == task_name and edge.dst == task_name:
            continue
        if edge.src == task_name:
            src = combine_name or None
            if src is not None:
                graph.connect(src, edge.dst, edge.words, edge.label)
            else:
                for chunk in chunk_names:
                    graph.connect(chunk, edge.dst,
                                  max(1, edge.words // k), edge.label)
        elif edge.dst == task_name:
            for chunk in chunk_names:
                graph.connect(edge.src, chunk,
                              max(1, edge.words // k), edge.label)
        else:
            graph.connect(edge.src, edge.dst, edge.words, edge.label)
    if combine_name is not None:
        for chunk in chunk_names:
            graph.connect(chunk, combine_name, words=len(info.reductions),
                          label="partial")
    return graph


def _partial_name(var: str, task_name: str, chunk_index: int) -> str:
    """Chunk ``chunk_index``'s partial of ``var`` in loop task
    ``task_name``: each split loop owns its partials, so two reductions
    into one scalar do not share them."""
    return f"{var}__{task_name}_p{chunk_index}"


def _make_combine_stmts(info: LoopInfo, k: int, task_name: str) -> List[Stmt]:
    """``s = s op s__<task>_p0 op s__<task>_p1 ...`` for every reduction
    variable."""
    stmts: List[Stmt] = []
    for var, op in sorted(info.reductions.items()):
        for index in range(k):
            stmts.append(Assign(
                target=Ident(name=var),
                value=Ident(name=_partial_name(var, task_name, index)),
                op=op))
    return stmts


def _rename_ident(node, old: str, new: str) -> None:
    for child in node.walk():
        if isinstance(child, Ident) and child.name == old:
            child.name = new


# ---------------------------------------------------------------------------
# pipeline extraction
# ---------------------------------------------------------------------------

@dataclass
class PipelinePartition:
    """Stages of an outer (frame) loop, for pipelined execution."""

    task_graph: TaskGraph
    iterations_expr: Optional[Expr]
    loop_var: str
    stage_names: List[str] = field(default_factory=list)


def partition_pipeline(program: Program, entry: str = "main",
                       weights: Optional[CostWeights] = None) -> PipelinePartition:
    """Turn the body of the entry function's outermost loop into pipeline
    stages (one stage per top-level body statement group).

    Consecutive statements that exchange only scalars stay in one stage;
    a statement starting a new array-producing region opens a new stage.
    The resulting task graph is a chain with per-iteration semantics; the
    MVP executes it in streaming (pipelined) mode.
    """
    func = program.function(entry)
    weights = weights or CostWeights()
    outer: Optional[For] = None
    for stmt in func.body.stmts:
        if isinstance(stmt, For):
            outer = stmt
            break
    if outer is None:
        raise ValueError(f"{entry!r} has no outer loop to pipeline")
    sizes = _array_sizes(program, func)

    header = counted_loop(outer)
    # One stage per body statement; adjacent stages that share no array
    # traffic merge (cheap stages).
    merged: List[List[Stmt]] = []
    for stmt in outer.body.stmts:
        if merged and not _stage_produces_array(merged[-1], sizes) \
                and not _stage_produces_array([stmt], sizes):
            merged[-1].append(stmt)
        else:
            merged.append([stmt])

    graph = TaskGraph(f"{entry}.pipeline")
    stages = [Cluster(f"stage{index}", stmts)
              for index, stmts in enumerate(merged)]
    for stage in stages:
        cost = sum(estimate_cost(s, weights, program).total
                   for s in stage.stmts)
        graph.add_task(stage.name, cost=max(cost, 1.0), stmts=stage.stmts,
                       kind="stage")
    _connect_flow(graph, stages, sizes)
    names = [stage.name for stage in stages]
    if header is None:
        return PipelinePartition(graph, None, "", names)
    return PipelinePartition(graph, header.upper, header.var, names)


def _stage_produces_array(stmts: List[Stmt], sizes: Dict[str, int]) -> bool:
    for stmt in stmts:
        for node in stmt.walk():
            if isinstance(node, Assign):
                for name in stmt_defs(node):
                    if sizes.get(name, 1) > 1:
                        return True
    return False


__all__ = ["Cluster", "PartitionResult", "PipelinePartition",
           "partition_data_parallel", "partition_function",
           "partition_pipeline"]
