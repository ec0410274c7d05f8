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

Each program's verdict census is pinned too, so that a generator change
that stops producing a shape shows.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.cir import parse
from repro.cir.analysis.dependence import analyze_loop, find_loops
from repro.cir.clone import clone
from repro.cir.interp import run_program
from repro.cir.nodes import ArrayIndex, Assign, BinOp, Ident, IntLit
from repro.gen.loops import generate_loops
from repro.maps import MapsFlow, PEClass, PlatformSpec

SEEDS = range(100)
FLOW_SEEDS = range(30)
PERMUTATION = "int P[48];\nint pj;\n"


def _verdicts(program):
    """``analyze_loop`` of every loop of ``main``, outermost first."""
    return [analyze_loop(loop)
            for loop in find_loops(program.function("main").body)]


def _reordered(original, index, info, order, rng):
    """A copy of the program with loop ``index`` (analyzed as ``info``)
    run in ``order``."""
    program = clone(original)
    main = program.function("main")
    loop = find_loops(main.body)[index]
    var, low, high = info.loop_var, info.lower.value, info.upper.value
    if order == "reverse":
        loop.init = Assign(target=Ident(name=var),
                           value=IntLit(value=high - 1))
        loop.test = BinOp(op=">=", left=Ident(name=var),
                          right=IntLit(value=low))
        loop.step = Assign(target=Ident(name=var), value=IntLit(value=1),
                           op="-")
        return program
    values = list(range(low, high))
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
        target=Ident(name=var),
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
                variant = _reordered(program, index, info, order, rng)
                if _observed(run_program(variant)) != expected:
                    mismatches.append((seed, index, order))
    assert mismatches == []


def _platform():
    platform = PlatformSpec("pair")
    platform.add_pe("pe0", PEClass.RISC)
    platform.add_pe("pe1", PEClass.RISC)
    return platform


def test_maps_flow_preserves_split_loops():
    split = 0
    failures = []
    for seed in FLOW_SEEDS:
        source = generate_loops(seed)
        for k in (2, 3, 4):
            report = MapsFlow(_platform()).run(source, split_k=k)
            split += len(report.partition.parallelizable_tasks)
            if not report.semantics_preserved:
                failures.append((seed, k))
    assert failures == []
    assert split == 156


def test_verdict_census_is_pinned():
    """The verdicts the oracles above check: some parallel loops
    privatize a scalar, some sequential ones are so only for a
    same-element access or only for a carried scalar."""
    seen = Counter()
    for seed in SEEDS:
        for info in _verdicts(parse(generate_loops(seed))):
            seen[info.classification.value] += 1
            parallel = info.classification.parallelizable()
            if parallel and info.private_scalars:
                seen["private"] += 1
            if not parallel and len(info.reasons) == 1:
                reason = info.reasons[0]
                if "same element" in reason:
                    seen["same element only"] += 1
                if reason.startswith("loop-carried scalar"):
                    seen["carried scalar only"] += 1
    assert seen == {"doall": 179, "reduction": 25, "sequential": 323,
                    "private": 64, "same element only": 23,
                    "carried scalar only": 66}
