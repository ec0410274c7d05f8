"""Shrink-to-regression: minimize a divergence, emit a pinned test.

Given a scenario the differential harness flags as divergent, the
shrinker greedily minimizes it while *re-checking the divergence after
every candidate edit* (a candidate that stops diverging -- or stops
assembling -- is rejected, never kept):

1. **instruction deletion** -- multi-granularity chunk removal over the
   program's lines (halving chunk sizes down to single lines, the ddmin
   schedule);
2. **operand simplification** -- every integer literal is tried at
   ``0`` then ``1``;

repeated until a full round makes no progress.  The result is the
smallest program this schedule can reach that still reproduces the
divergence -- small enough to eyeball and to pin.

:func:`emit_regression_test` renders a minimized scenario as pytest
source asserting the scenario *no longer* diverges -- the form a fixed
bug is pinned in ``tests/test_fuzz_regressions.py`` forever.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional

from repro.gen.diff import compare_scenario

_INT_LITERAL = re.compile(r"-?\d+")


def _diverges(scenario: Dict[str, Any],
              compare: Callable[[Dict[str, Any]], Dict[str, Any]]) -> bool:
    """True iff the scenario still reproduces a divergence.  A scenario
    broken by shrinking (assembly error, runtime fault, interpreter
    error) is *not* a divergence -- the shrinker must reject it."""
    try:
        return bool(compare(scenario)["diverged"])
    except Exception:  # noqa: BLE001 -- any breakage means "reject edit"
        return False


def _delete_pass(lines: List[str],
                 check: Callable[[List[str]], bool]) -> List[str]:
    """Chunk-deletion with halving granularity (the ddmin schedule)."""
    size = max(1, len(lines) // 2)
    while size >= 1:
        index = 0
        while index < len(lines):
            candidate = lines[:index] + lines[index + size:]
            if candidate and check(candidate):
                lines = candidate  # keep the deletion, stay at index
            else:
                index += size
        size //= 2
    return lines


def _simplify_pass(lines: List[str],
                   check: Callable[[List[str]], bool]) -> List[str]:
    """Try every integer literal at 0 then 1, keeping what still
    diverges -- large magic constants rarely survive this.  The digit
    runs inside register names and labels count as literals too (an
    edit that breaks assembly is simply rejected by ``check``), so this
    pass also canonicalizes registers toward r0/r1.  Each line is
    rescanned after a successful edit; literals already at 0/1 are
    final, so the loop strictly shrinks and terminates."""
    for index in range(len(lines)):
        progressed = True
        while progressed:
            progressed = False
            line = lines[index]
            for match in _INT_LITERAL.finditer(line):
                if match.group() in ("0", "1"):
                    continue
                for simple in ("0", "1"):
                    candidate = list(lines)
                    candidate[index] = (line[:match.start()] + simple
                                        + line[match.end():])
                    if check(candidate):
                        lines = candidate
                        progressed = True
                        break
                if progressed:
                    break  # spans shifted: rescan this line
    return lines


def shrink_program(scenario: Dict[str, Any], core: str,
                   compare: Callable[[Dict[str, Any]], Dict[str, Any]],
                   max_rounds: int = 8) -> Dict[str, Any]:
    """Minimize one core's program while the whole scenario keeps
    diverging; returns the (possibly shrunk) scenario."""

    def check(candidate_lines: List[str]) -> bool:
        candidate = dict(scenario)
        candidate["programs"] = dict(scenario["programs"])
        candidate["programs"][core] = "\n".join(candidate_lines) + "\n"
        return _diverges(candidate, compare)

    lines = scenario["programs"][core].splitlines()
    for _ in range(max_rounds):
        before = list(lines)
        lines = _delete_pass(lines, check)
        lines = _simplify_pass(lines, check)
        if lines == before:
            break
    shrunk = dict(scenario)
    shrunk["programs"] = dict(scenario["programs"])
    shrunk["programs"][core] = "\n".join(lines) + "\n"
    return shrunk


def _with_args(scenario: Dict[str, Any], args: List[int]) -> Dict[str, Any]:
    """The expr scenario run on ``args``: its asm loads argument ``i``
    with ``li r<i+1>, <value>`` on line ``i`` (see
    :func:`repro.gen.expr.to_asm`), so those lines change with them."""
    lines = scenario["asm_source"].splitlines(keepends=True)
    for index, value in enumerate(args):
        register = f"r{index + 1}"
        if not re.fullmatch(rf"\s*li\s+{register},\s*-?\d+\s*",
                            lines[index]):
            raise ValueError(f"expr asm line {index} does not load "
                             f"{register}: {lines[index]!r}")
        lines[index] = f"    li {register}, {value}\n"
    return {**scenario, "args": args, "asm_source": "".join(lines)}


def shrink_scenario(scenario: Dict[str, Any],
                    compare: Callable[[Dict[str, Any]],
                                      Dict[str, Any]] = compare_scenario,
                    max_rounds: int = 8) -> Dict[str, Any]:
    """Minimize a divergent scenario (every core's program in turn).

    ``compare`` is injectable so tests can drive the pipeline against a
    deliberately broken backend.  Raises :class:`ValueError` if the
    scenario does not diverge to begin with -- shrinking a healthy
    scenario would "minimize" it to nothing and pin a lie.
    """
    if not _diverges(scenario, compare):
        raise ValueError("scenario does not diverge; nothing to shrink")
    if scenario["kind"] == "expr":
        # Paired scenarios shrink by argument simplification only: the
        # C and asm texts are two renderings of one tree and must stay
        # in lockstep, so structural edits would unpair them.
        shrunk = dict(scenario)
        for index in range(len(shrunk["args"])):
            for simple in (0, 1):
                args = list(shrunk["args"])
                args[index] = simple
                candidate = _with_args(shrunk, args)
                if _diverges(candidate, compare):
                    shrunk = candidate
                    break
        return shrunk
    shrunk = scenario
    for core in sorted(scenario["programs"]):
        shrunk = shrink_program(shrunk, core, compare,
                                max_rounds=max_rounds)
    return shrunk


def emit_regression_test(scenario: Dict[str, Any], name: str,
                         note: Optional[str] = None) -> str:
    """Render a minimized scenario as pytest source.

    The emitted test asserts the scenario is *equivalent* on every
    backend -- the form it is pinned in once the underlying bug is
    fixed.  ``name`` must be a valid identifier suffix.
    """
    if not name.isidentifier():
        raise ValueError(f"regression name must be an identifier, "
                         f"got {name!r}")
    doc = note or "Minimized by repro.gen.shrink; must stay equivalent."
    return (
        f"def test_regression_{name}():\n"
        f"    \"\"\"{doc}\"\"\"\n"
        f"    scenario = {scenario!r}\n"
        f"    report = compare_scenario(scenario)\n"
        f"    assert not report[\"diverged\"], report[\"mismatches\"]\n"
    )


__all__ = ["emit_regression_test", "shrink_program", "shrink_scenario"]
