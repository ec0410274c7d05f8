"""Loop partitioning transformations: chunk split and fission.

- :func:`split_loop` -- "split loops into code partitions": one counted
  loop becomes ``k`` consecutive sub-range loops, built by
  :func:`~repro.cir.analysis.dependence.chunk_loop`.  The chunks run in
  the original iteration order, so the split preserves the semantics of
  every loop the chunker accepts, sequential ones included; it refuses
  the rest with :class:`TransformError`.  The partitions become units
  for mapping to cores.
- :func:`split_loop_fission` -- "expose pipelined parallelism": the loop
  body is distributed over two loops at a statement boundary (classic
  loop distribution).  Legal when no value flows backward across the cut;
  the analysis result is reported as warnings for the designer to concur
  with or overrule.
"""

from __future__ import annotations

from typing import List

from repro.cir.analysis.dataflow import defs_of, expr_uses, uses_of
from repro.cir.analysis.dependence import (
    chunk_loop, counted_loop, loop_exits,
)
from repro.cir.clone import clone, clone_list
from repro.cir.nodes import Block, IntLit, Program
from repro.recoder.transforms.base import (
    TransformError, TransformReport, find_enclosing_block, find_loop,
)


def split_loop(program: Program, func_name: str, line: int,
               k: int) -> TransformReport:
    """Split the counted loop at ``line`` into ``k`` sub-range loops."""
    if k < 2:
        raise TransformError("k must be >= 2")
    func = program.function(func_name)
    loop = find_loop(func, line)
    header = counted_loop(loop)
    if header is not None and not (isinstance(header.lower, IntLit)
                                   and isinstance(header.upper, IntLit)):
        raise TransformError("chunk split needs literal loop bounds")
    try:
        pieces = chunk_loop(loop, k)
    except ValueError as error:
        raise TransformError(f"loop at line {line} cannot be chunk-split: "
                             f"{error}") from None
    base = (header.upper.value - header.lower.value) // k

    block = find_enclosing_block(func, loop)
    position = block.stmts.index(loop)
    block.stmts[position:position + 1] = pieces
    return TransformReport(
        "split_loop",
        f"loop at line {line} split into {k} partitions of "
        f"~{base} iterations",
        nodes_changed=k)


def split_loop_fission(program: Program, func_name: str, line: int,
                       cut: int) -> TransformReport:
    """Distribute the loop at ``line`` into two loops at body index ``cut``.

    The first loop runs body statements ``[0, cut)`` for all iterations,
    then the second runs ``[cut, ...)`` for all iterations.  Warnings are
    produced when a value may flow from the second group back into the
    first across iterations (designer decides).  A loop whose iterations
    are not fixed by its header (not counted, left early by ``break``,
    ``continue`` or ``return``, or its test's names written in the body)
    is refused."""
    func = program.function(func_name)
    loop = find_loop(func, line)
    if not 0 < cut < len(loop.body.stmts):
        raise TransformError(
            f"cut {cut} out of range for a body of "
            f"{len(loop.body.stmts)} statements")
    first_stmts = loop.body.stmts[:cut]
    second_stmts = loop.body.stmts[cut:]

    warnings: List[str] = []
    # Backward flow check: second group defines something first group uses.
    first_uses, first_defs = uses_of(first_stmts), defs_of(first_stmts)
    second_defs = defs_of(second_stmts)
    header = counted_loop(loop)
    if header is None or loop_exits(loop) or \
            expr_uses(loop.test) & (first_defs | second_defs):
        raise TransformError(
            f"loop at line {line} has no fixed iteration range to "
            f"distribute")
    backward = (second_defs & first_uses) - {header.var}
    if backward:
        warnings.append(
            f"possible backward flow across the cut via "
            f"{sorted(backward)}; fission changes semantics if the flow is "
            f"loop-carried")
    # Scalars defined in group 1 and used in group 2 must be arrays or
    # per-iteration temporaries; a scalar carried between the loops only
    # keeps its last-iteration value.
    carried_scalars = sorted((first_defs & uses_of(second_stmts))
                             - {header.var})
    if carried_scalars:
        warnings.append(
            f"values {carried_scalars} flow from group 1 to group 2; after "
            f"fission group 2 sees only the LAST iteration's value unless "
            f"they are arrays indexed by the loop variable")

    first = clone(loop)
    first.body = Block(stmts=clone_list(first_stmts))
    second = clone(loop)
    second.body = Block(stmts=clone_list(second_stmts))
    block = find_enclosing_block(func, loop)
    position = block.stmts.index(loop)
    block.stmts[position:position + 1] = [first, second]
    return TransformReport(
        "split_loop_fission",
        f"loop at line {line} distributed at body index {cut}",
        warnings=warnings, nodes_changed=2)


__all__ = ["split_loop", "split_loop_fission"]
