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
from typing import Dict, List, Optional, Set, Tuple

from repro.cir.analysis.cost import CostWeights, estimate_cost
from repro.cir.analysis.dataflow import stmt_defs, stmt_uses
from repro.cir.analysis.dependence import (
    LoopClass, LoopInfo, analyze_loop,
)
from repro.cir.clone import clone
from repro.cir.nodes import (
    Assign, BinOp, Decl, Expr, For, FuncDef, Ident, IntLit, Program,
    Stmt,
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
        names: Set[str] = set()
        for stmt in self.stmts:
            for node in stmt.walk():
                if isinstance(node, (Assign, Decl)):
                    names |= stmt_defs(node)
        return names

    def uses(self) -> Set[str]:
        names: Set[str] = set()
        for stmt in self.stmts:
            for node in stmt.walk():
                if isinstance(node, Stmt):
                    names |= stmt_uses(node)
        return names


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

    def loop_task_names(self) -> List[str]:
        return list(self.loop_infos)


def _array_words(program: Program, func: FuncDef, name: str) -> int:
    """Size of an array variable in words, 1 for scalars/unknown."""
    for decl in program.globals:
        if decl.name == name and isinstance(decl.type, ArrayType):
            return decl.type.sizeof()
    for node in func.body.walk():
        if isinstance(node, Decl) and node.name == name and \
                isinstance(node.type, ArrayType):
            return node.type.sizeof()
    for param in func.params:
        if param.name == name and isinstance(param.type, ArrayType):
            return param.type.sizeof()
    return 1


def partition_function(program: Program, entry: str = "main",
                       weights: Optional[CostWeights] = None) -> PartitionResult:
    """Build the fine-grained task graph of ``entry``.

    Top-level ``for`` loops become loop tasks (analyzed for
    parallelizability); maximal runs of other statements become block
    tasks.  Edges carry flow dependences with estimated transfer volumes.
    """
    func = program.function(entry)
    weights = weights or CostWeights()
    pure = {f.name for f in program.functions
            if _function_is_pure(program, f)}

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
        if cluster.loop_info is not None:
            result.loop_infos[cluster.name] = cluster.loop_info
            if cluster.loop_info.classification.parallelizable():
                result.parallelizable_tasks.append(cluster.name)
        decisions += 1

    # Flow-dependence edges between clusters (earlier -> later).
    for i, earlier in enumerate(clusters):
        produced = earlier.defs()
        for later in clusters[i + 1:]:
            shared = produced & later.uses()
            if shared:
                words = sum(_array_words(program, func, name)
                            for name in shared)
                graph.connect(earlier.name, later.name, words=words,
                              label=",".join(sorted(shared)))
                decisions += 1
    result.tool_decisions = decisions
    return result


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

    The loop must be classified DOALL or REDUCTION.  Returns a *new*
    task graph; the original is not modified.  Chunk tasks carry cloned
    loop statements with adjusted bounds so the code generator can emit
    runnable per-PE code.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    info = result.loop_infos.get(task_name)
    if info is None:
        raise KeyError(f"{task_name!r} is not a loop task")
    if not info.classification.parallelizable():
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
    bounds = _chunk_bounds(info, k)
    for index in range(k):
        chunk_name = f"{task_name}.c{index}"
        chunk_names.append(chunk_name)
        chunk_loop = _make_chunk_loop(info, bounds[index], index)
        node = TaskNode(chunk_name, original.cost / k, [chunk_loop],
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


def _chunk_bounds(info: LoopInfo, k: int) -> List[Tuple[Expr, Expr]]:
    """Per-chunk (lower, upper) bound expressions."""
    lower, upper = info.lower, info.upper
    if isinstance(lower, IntLit) and isinstance(upper, IntLit) and \
            info.step == 1:
        low, high = lower.value, upper.value
        span = high - low
        base = span // k
        remainder = span % k
        bounds: List[Tuple[Expr, Expr]] = []
        cursor = low
        for index in range(k):
            size = base + (1 if index < remainder else 0)
            bounds.append((IntLit(value=cursor), IntLit(value=cursor + size)))
            cursor += size
        return bounds
    # Symbolic bounds: lo + i*(up-lo)/k .. lo + (i+1)*(up-lo)/k.
    bounds = []
    for index in range(k):
        def offset(which: int) -> Expr:
            span = BinOp(op="-", left=clone(upper), right=clone(lower))
            scaled = BinOp(op="/", left=BinOp(op="*", left=span,
                                              right=IntLit(value=which)),
                           right=IntLit(value=k))
            return BinOp(op="+", left=clone(lower), right=scaled)
        bounds.append((offset(index), offset(index + 1)))
    return bounds


def _make_chunk_loop(info: LoopInfo, bounds: Tuple[Expr, Expr],
                     chunk_index: int) -> For:
    """Clone the loop with chunk bounds; reduction targets are renamed to
    per-chunk partials (``s`` -> ``s__p<i>``)."""
    loop = clone(info.loop)
    low, high = bounds
    var = info.loop_var
    loop.init = Assign(target=Ident(name=var), value=clone(low))
    loop.test = BinOp(op="<", left=Ident(name=var), right=clone(high))
    loop.step = Assign(target=Ident(name=var), value=IntLit(value=1), op="+")
    for red_var in info.reductions:
        _rename_ident(loop.body, red_var, _partial_name(red_var, chunk_index))
    return loop


def _partial_name(var: str, chunk_index: int) -> str:
    return f"{var}__p{chunk_index}"


def _make_combine_stmts(info: LoopInfo, k: int, task_name: str) -> List[Stmt]:
    """``s = s op s__p0 op s__p1 ...`` for every reduction variable."""
    stmts: List[Stmt] = []
    for var, op in sorted(info.reductions.items()):
        for index in range(k):
            stmts.append(Assign(target=Ident(name=var),
                                value=Ident(name=_partial_name(var, index)),
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

    info = analyze_loop(outer)
    stages: List[List[Stmt]] = []
    for stmt in outer.body.stmts:
        stages.append([stmt])
    # Merge adjacent stages that share no array traffic (cheap stages).
    merged: List[List[Stmt]] = []
    for stage in stages:
        if merged and not _stage_produces_array(merged[-1], program, func) \
                and not _stage_produces_array(stage, program, func):
            merged[-1].extend(stage)
        else:
            merged.append(stage)

    graph = TaskGraph(f"{entry}.pipeline")
    names: List[str] = []
    for index, stage_stmts in enumerate(merged):
        cost = sum(estimate_cost(s, weights, program).total
                   for s in stage_stmts)
        name = f"stage{index}"
        graph.add_task(name, cost=max(cost, 1.0), stmts=stage_stmts,
                       kind="stage")
        names.append(name)
    for earlier_index in range(len(merged)):
        produced: Set[str] = set()
        for stmt in merged[earlier_index]:
            for node in stmt.walk():
                if isinstance(node, (Assign, Decl)):
                    produced |= stmt_defs(node)
        for later_index in range(earlier_index + 1, len(merged)):
            used: Set[str] = set()
            for stmt in merged[later_index]:
                for node in stmt.walk():
                    if isinstance(node, Stmt):
                        used |= stmt_uses(node)
            shared = produced & used
            if shared:
                words = sum(_array_words(program, func, n) for n in shared)
                graph.connect(names[earlier_index], names[later_index],
                              words=words, label=",".join(sorted(shared)))
    return PipelinePartition(graph, info.upper, info.loop_var, names)


def _stage_produces_array(stmts: List[Stmt], program: Program,
                          func: FuncDef) -> bool:
    for stmt in stmts:
        for node in stmt.walk():
            if isinstance(node, Assign):
                for name in stmt_defs(node):
                    if _array_words(program, func, name) > 1:
                        return True
    return False


__all__ = ["Cluster", "PartitionResult", "PipelinePartition",
           "partition_data_parallel", "partition_function",
           "partition_pipeline"]
