"""Code generation: task graphs back to per-PE C code (section IV).

"a code generation phase translates the task graphs into C codes for
compilation onto the respective PEs with their native compilers and OS
primitives."

Two generators:

- :func:`generate_data_parallel_code` -- produces a *runnable* mini-C
  program in which a split loop executes as per-chunk partial loops plus a
  combine step.  Running it through the interpreter and comparing against
  the sequential original is the semantic validation of the partitioning
  (chunks of a DOALL loop commute, so sequential chunk execution is
  observationally equivalent to parallel execution).
- :func:`generate_pipeline_code` -- emits the per-PE C sources for a
  pipeline partition: each stage becomes a function communicating through
  ``ch_read``/``ch_write`` runtime primitives (the OS-primitive glue the
  paper mentions); channel-based execution itself is exercised by the
  HOPES runtime (section V), which owns that programming model.
"""

from __future__ import annotations

import re
from typing import Dict, List, Set, Tuple

from repro.cir.clone import clone, clone_list
from repro.cir.codegen import emit
from repro.cir.nodes import (
    Assign, Block, Call, Decl, ExprStmt, FuncDef, Ident, IntLit,
    Program, Stmt,
)
from repro.cir.typesys import INT, ScalarType
from repro.maps.mapping import Mapping
from repro.maps.partition import PartitionResult, PipelinePartition
from repro.maps.taskgraph import TaskGraph

_PARTIAL_RE = re.compile(r"^(?P<base>.+)__p(?P<index>\d+)$")

_NEUTRAL = {"+": 0, "|": 0, "^": 0, "*": 1, "&": -1}


def generate_data_parallel_code(result: PartitionResult,
                                expanded: TaskGraph,
                                entry_name: str = "main_par") -> Tuple[Program, str]:
    """Assemble a runnable program from an expanded (split) task graph.

    The generated entry executes every task's statements in topological
    order: chunk loops run over their sub-ranges into per-chunk partials,
    then combine tasks merge partials -- byte-for-byte the code a shared
    memory PE would run, minus the thread-spawn boilerplate.
    """
    source_program = result.program
    if source_program is None:
        raise ValueError("partition result has no source program")
    original_entry = source_program.function(result.entry)

    generated = Program()
    generated.globals = clone_list(source_program.globals)
    for func in source_program.functions:
        if func.name != result.entry:
            generated.functions.append(clone(func))

    body: List[Stmt] = []
    # Declare reduction partials up front, initialized to the neutral
    # element of their combine operator.
    for name, op in sorted(_collect_partials(expanded).items()):
        body.append(Decl(type=INT, name=name,
                         init=IntLit(value=_NEUTRAL.get(op, 0))))
    for task_name in expanded.topological_order():
        node = expanded.nodes[task_name]
        body.extend(clone_list(node.stmts))

    entry = FuncDef(return_type=original_entry.return_type,
                    name=entry_name,
                    params=clone_list(original_entry.params),
                    body=Block(stmts=body))
    generated.functions.append(entry)
    return generated, entry_name


def _collect_partials(graph: TaskGraph) -> Dict[str, str]:
    """Partial-variable name -> combine operator, from the graph's code."""
    ops: Dict[str, str] = {}
    partial_names: Set[str] = set()
    for node in graph.nodes.values():
        for stmt in node.stmts:
            for child in stmt.walk():
                if isinstance(child, Ident) and _PARTIAL_RE.match(child.name):
                    partial_names.add(child.name)
        if node.kind == "combine":
            for stmt in node.stmts:
                if isinstance(stmt, Assign) and stmt.op and \
                        isinstance(stmt.value, Ident):
                    ops[stmt.value.name] = stmt.op
    return {name: ops.get(name, "+") for name in partial_names}


# ---------------------------------------------------------------------------
# pipeline code generation (per-PE sources)
# ---------------------------------------------------------------------------

def generate_pipeline_code(pipeline: PipelinePartition,
                           mapping: Mapping) -> Dict[str, str]:
    """Emit one C source file per PE for a pipeline partition.

    Each stage becomes ``void <stage>_task(void)`` whose body is the stage's
    statements bracketed by ``ch_read``/``ch_write`` calls for its in/out
    channels, plus a PE main loop dispatching its stages -- the shape of
    code MAPS hands to each PE's native compiler.
    """
    graph = pipeline.task_graph
    sources: Dict[str, List[str]] = {}
    for task_name in graph.topological_order():
        pe = mapping.pe_of(task_name)
        sources.setdefault(pe, [])
        func = _stage_function(graph, task_name)
        sources[pe].append(emit(func))
    rendered: Dict[str, str] = {}
    for pe, chunks in sources.items():
        tasks_on_pe = [t for t in graph.topological_order()
                       if mapping.pe_of(t) == pe]
        main_lines = [f"void pe_main(void) {{"]
        main_lines.append("    while (rt_running()) {")
        for task in tasks_on_pe:
            main_lines.append(f"        {task}_task();")
        main_lines.append("    }")
        main_lines.append("}")
        header = (f"/* generated by MAPS for PE {pe!r} "
                  f"({len(tasks_on_pe)} tasks) */\n")
        rendered[pe] = header + "\n".join(chunks) + "\n" + \
            "\n".join(main_lines) + "\n"
    return rendered


def _stage_function(graph: TaskGraph, task_name: str) -> FuncDef:
    node = graph.nodes[task_name]
    body: List[Stmt] = []
    for edge in graph.in_edges(task_name):
        body.append(ExprStmt(expr=Call(
            name="ch_read",
            args=[IntLit(value=_channel_id(graph, edge))])))
    body.extend(clone_list(node.stmts))
    for edge in graph.out_edges(task_name):
        body.append(ExprStmt(expr=Call(
            name="ch_write",
            args=[IntLit(value=_channel_id(graph, edge)),
                  IntLit(value=edge.words)])))
    return FuncDef(return_type=ScalarType("void"), name=f"{task_name}_task",
                   params=[], body=Block(stmts=body))


def _channel_id(graph: TaskGraph, edge) -> int:
    return graph.edges.index(edge)


def render_pe_sources(result: PartitionResult, expanded: TaskGraph,
                      mapping: Mapping) -> Dict[str, str]:
    """Per-PE C sources for a data-parallel mapping (for inspection and
    the E6 effort metrics).  ``emit`` only reads the statements, so each
    task's own are printed, not a copy."""
    sources: Dict[str, List[str]] = {}
    for task_name in expanded.topological_order():
        pe = mapping.pe_of(task_name)
        node = expanded.nodes[task_name]
        func = FuncDef(return_type=ScalarType("void"),
                       name=f"{task_name.replace('.', '_')}_task",
                       params=[], body=Block(stmts=node.stmts))
        sources.setdefault(pe, []).append(emit(func))
    return {pe: f"/* generated by MAPS for PE {pe!r} */\n" + "\n".join(parts)
            for pe, parts in sources.items()}


__all__ = ["generate_data_parallel_code", "generate_pipeline_code",
           "render_pe_sources"]
