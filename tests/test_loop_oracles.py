"""Oracles for the loop verdicts of
:func:`~repro.cir.analysis.dependence.analyze_loop` over seeded random
counted-loop programs from :func:`repro.gen.loops.generate_loops`.

- **iteration order**: every loop called DOALL or REDUCTION leaves the
  same arrays and accumulators (the program's globals) and return value
  when its iterations run forward, in reverse, and in a seeded permuted
  order (``for (pj ...) { i = P[pj]; ... }`` over a global ``P``).
- **MAPS flow**: :class:`~repro.maps.MapsFlow` splits every such
  top-level loop into k = 2, 3 and 4 chunks and validates the generated
  code, chunks last-first, against the sequential run; it must report
  ``semantics_preserved``.
- **recoder**: :func:`~repro.recoder.split_loop` at k = 2, 3, 4 and
  :func:`~repro.recoder.split_loop_fission` at every cut, on every
  top-level loop, either refuse with ``TransformError`` or keep the
  return value, the output and the globals; a fission that warns is
  left to the designer, one that does not must keep them too.

Each program's verdict census is pinned too, so that a generator change
that stops producing a shape shows.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.cir import parse
from repro.cir.analysis.dependence import (
    analyze_loop, counted_loop, find_loops,
)
from repro.cir.clone import clone
from repro.cir.interp import run_program
from repro.cir.nodes import ArrayIndex, Assign, BinOp, For, Ident, IntLit
from repro.gen.loops import generate_loops
from repro.maps import MapsFlow, PEClass, PlatformSpec
from repro.recoder import TransformError, split_loop, split_loop_fission

SEEDS = range(100)
FLOW_SEEDS = range(30)
RECODER_SEEDS = range(12)
PERMUTATION = "int P[48];\nint pj;\n"


def _verdicts(program):
    """``analyze_loop`` of every loop of ``main``, outermost first."""
    return [analyze_loop(loop)
            for loop in find_loops(program.function("main").body)]


def _reordered(original, index, order, rng):
    """A copy of the program with loop ``index`` run in ``order``: its
    iterations, read off :func:`counted_loop`, reversed or shuffled into
    a global ``P`` that ``for (pj ...) { i = P[pj]; ... }`` walks."""
    program = clone(original)
    main = program.function("main")
    loop = find_loops(main.body)[index]
    header = counted_loop(loop)
    low, high, step = header.lower.value, header.upper.value, header.step
    values = list(range(low, high, step) if step > 0
                  else range(high - 1, low - 1, step))
    if order == "reverse":
        values.reverse()
    else:
        rng.shuffle(values)
    main.body.stmts[:0] = [
        Assign(target=ArrayIndex(base=Ident(name="P"),
                                 index=IntLit(value=slot)),
               value=IntLit(value=value))
        for slot, value in enumerate(values)]
    loop.init = Assign(target=Ident(name="pj"), value=IntLit(value=0))
    loop.test = BinOp(op="<", left=Ident(name="pj"),
                      right=IntLit(value=len(values)))
    loop.step = Assign(target=Ident(name="pj"), value=IntLit(value=1),
                       op="+")
    loop.body.stmts.insert(0, Assign(
        target=Ident(name=header.var),
        value=ArrayIndex(base=Ident(name="P"), index=Ident(name="pj"))))
    return program


def _observed(result):
    state = {name: value for name, value in result.globals.items()
             if name not in ("P", "pj")}
    return result.return_value, state


def test_parallel_loops_are_order_independent():
    mismatches = []
    for seed in SEEDS:
        program = parse(PERMUTATION + generate_loops(seed))
        expected = _observed(run_program(program))
        rng = random.Random(f"{seed}:order")
        for index, info in enumerate(_verdicts(program)):
            if not info.classification.parallelizable():
                continue
            for order in ("reverse", "permuted"):
                variant = _reordered(program, index, order, rng)
                if _observed(run_program(variant)) != expected:
                    mismatches.append((seed, index, order))
    assert mismatches == []


def _platform():
    platform = PlatformSpec("pair")
    platform.add_pe("pe0", PEClass.RISC)
    platform.add_pe("pe1", PEClass.RISC)
    return platform


def test_maps_flow_preserves_split_loops():
    """Parallel loops the partitioner splits keep the program's results;
    the ones it leaves unsplit (a step of 2) are counted too."""
    split = unsplit = 0
    failures = []
    for seed in FLOW_SEEDS:
        source = generate_loops(seed)
        for k in (2, 3, 4):
            report = MapsFlow(_platform()).run(source, split_k=k)
            split += len(report.partition.parallelizable_tasks)
            unsplit += sum(
                reason.startswith("not split")
                for info in report.partition.loop_infos.values()
                for reason in info.reasons)
            if not report.semantics_preserved:
                failures.append((seed, k))
    assert failures == []
    assert (split, unsplit) == (135, 6)


def test_recoder_loop_transforms_refuse_or_preserve():
    outcomes = Counter()
    mismatches = []
    for seed in RECODER_SEEDS:
        source = generate_loops(seed)
        program = parse(source)
        expected = _observed(run_program(program))
        for loop in program.function("main").body.stmts:
            if not isinstance(loop, For):
                continue
            cases = [(split_loop, k) for k in (2, 3, 4)]
            cases += [(split_loop_fission, cut)
                      for cut in range(1, len(loop.body.stmts))]
            for transform, arg in cases:
                variant = parse(source)
                try:
                    report = transform(variant, "main", loop.line, arg)
                except TransformError:
                    outcomes["refused"] += 1
                    continue
                if report.warnings:
                    outcomes["warned"] += 1
                    continue
                outcomes["checked"] += 1
                if _observed(run_program(variant)) != expected:
                    mismatches.append((seed, loop.line, transform.__name__,
                                       arg))
    assert mismatches == []
    assert outcomes == {"refused": 44, "warned": 50, "checked": 143}


def test_verdict_census_is_pinned():
    """The verdicts the oracles above check: some parallel loops
    privatize a scalar or count in steps of 2, some sequential ones are
    so only for a same-element access, only for a carried scalar or
    only for a ``break``."""
    seen = Counter()
    for seed in SEEDS:
        for info in _verdicts(parse(generate_loops(seed))):
            seen[info.classification.value] += 1
            parallel = info.classification.parallelizable()
            if parallel and info.private_scalars:
                seen["private"] += 1
            if parallel and info.header.step == 2:
                seen["step 2"] += 1
            if not parallel and len(info.reasons) == 1:
                reason = info.reasons[0]
                if "same element" in reason:
                    seen["same element only"] += 1
                if reason.startswith("loop-carried scalar"):
                    seen["carried scalar only"] += 1
                if reason == "a break leaves the loop early":
                    seen["break only"] += 1
    assert seen == {"doall": 166, "reduction": 19, "sequential": 342,
                    "private": 52, "step 2": 15, "same element only": 20,
                    "carried scalar only": 56, "break only": 19}
