"""Seeded counted-loop programs: the inputs of the loop-verdict oracle.

:func:`generate_loops` builds a mini-C ``main`` of 2--4 top-level counted
loops over 48-word global arrays; some of them hold one nested counted
loop.  The bodies mix the shapes the dependence analysis has to tell
apart:

- subscripts ``c*i + k`` with ``c`` in {-1, 0, 1, 2}, always in bounds
  (``c = 0`` names the same element every iteration);
- temporaries defined before use, defined under a guard only, or read
  in a branch test or an expression before their definition;
- ``+=`` / ``*=`` accumulators (global scalars), some of them also read
  in a branch test or an expression.

Only integer operations occur, and every ``%`` has a positive constant
divisor, so no run faults.  Every loop body owns its temporaries (a
nested loop has its own), and nothing reads them after the loop: the
value a private scalar leaves behind is not part of a loop verdict.
Accumulators are only ever reduced, never assigned outright.

Each loop header takes one of the forms
:func:`~repro.cir.analysis.dependence.counted_loop` reads (``<``, ``<=``
or the bound on the left; ``i = i + 1``, ``i++`` or ``i += 1``; an
``int`` declaration in the init), some loops count in steps of 2, and
some bodies leave their loop through a guarded ``break``.

Like every generator in :mod:`repro.gen`, the program is a pure function
of ``random.Random(f"{seed}:loops")``; the header forms and the breaks
are drawn from ``random.Random(f"{seed}:headers")``, so they leave the
loop bodies as they are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

WORDS = 48
ARRAYS = ("A", "B", "C", "D")
ACCUMULATORS = ("s0", "s1")


@dataclass
class _Scope:
    """What the statements of one loop body may name."""

    ranges: Dict[str, Tuple[int, int]]  # loop variable -> [lo, hi)
    temps: List[str]                    # written and read here
    outer_temps: List[str] = field(default_factory=list)  # read only
    homes: Dict[str, str] = field(default_factory=dict)  # written arrays


def generate_loops(seed: int) -> str:
    """A random counted-loop program; ``main`` returns ``s0 ^ s1``."""
    rng = random.Random(f"{seed}:loops")
    headers = random.Random(f"{seed}:headers")
    temps: List[str] = []
    loops = [_loop(rng, headers, number, temps)
             for number in range(rng.randint(2, 4))]
    fill = " ".join(
        f"{name}[i] = (i * {rng.randint(1, 13)} + {rng.randint(0, 9)}) "
        f"% {rng.randint(7, 40)};" for name in ARRAYS)
    lines = [f"int {name}[{WORDS}];" for name in ARRAYS]
    lines += [f"int {name};" for name in ACCUMULATORS]
    lines += ["int main() {", "  int i;", "  int j;"]
    lines += [f"  int {name} = {rng.randint(0, 3)};" for name in temps]
    lines += [f"  {name} = {rng.randint(0, 3)};" for name in ACCUMULATORS]
    lines += [f"  for (i = 0; i < {WORDS}; i = i + 1) {{ {fill} }}"]
    lines += [f"  {loop}" for loop in loops]
    lines += ["  return s0 ^ s1;", "}"]
    return "\n".join(lines) + "\n"


def _loop(rng: random.Random, headers: random.Random, number: int,
          temps: List[str]) -> str:
    low = rng.randint(0, 8)
    scope = _Scope({"i": (low, low + rng.randint(6, 16))},
                   [f"t{number}"])
    scope.homes = _homes(rng, scope)
    temps += scope.temps
    body = [_stmt(rng, scope) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.35:
        inner_low = rng.randint(0, 4)
        inner = _Scope({**scope.ranges,
                        "j": (inner_low, inner_low + rng.randint(3, 10))},
                       [f"v{number}"], scope.temps)
        inner.homes = _homes(rng, inner)
        temps += inner.temps
        inner_body = [_stmt(rng, inner) for _ in range(rng.randint(1, 3))]
        body.insert(rng.randint(0, len(body)),
                    _for(headers, "j", inner, inner_body))
    return _for(headers, "i", scope, body)


def _homes(rng: random.Random, scope: _Scope) -> Dict[str, str]:
    """The arrays a body writes (one or two), each with the subscript
    most of its accesses use."""
    return {name: _index(rng, scope)
            for name in rng.sample(ARRAYS, rng.randint(1, 2))}


def _for(rng: random.Random, var: str, scope: _Scope,
         body: List[str]) -> str:
    """A loop of ``var`` over ``scope.ranges[var]``; ``rng`` draws the
    header form, the step and a guarded ``break``."""
    low, high = scope.ranges[var]
    init = f"{var} = {low}"
    if rng.random() < 0.25:
        init = f"int {init}"
    test = rng.choice((f"{var} < {high}", f"{var} <= {high - 1}",
                       f"{high} > {var}"))
    step = rng.choice((f"{var} = {var} + 1", f"{var}++", f"{var} += 1"))
    if rng.random() < 0.15:
        step = f"{var} = {var} + 2"
    if rng.random() < 0.15:
        body = list(body)
        body.insert(rng.randint(0, len(body)),
                    f"if ({_element(rng, scope)} > {rng.randint(10, 30)}) "
                    f"{{ break; }}")
    return f"for ({init}; {test}; {step}) {{ {' '.join(body)} }}"


def _stmt(rng: random.Random, scope: _Scope) -> str:
    kind = rng.choice(("array", "array", "temp", "temp", "guarded temp",
                       "guarded array", "accumulate"))
    temp = rng.choice(scope.temps)
    if kind == "array":
        op = rng.choice(("", "", "", "+", "-"))
        value = _expr(rng, scope)
        if rng.random() < 0.5:  # most temporaries reach an array
            value = f"{temp} + {value}"
        return f"{_element(rng, scope, write=True)} {op}= {value};"
    if kind == "temp":
        return f"{temp} = {_expr(rng, scope)};"
    if kind == "guarded temp":
        update = (f"if ({_cond(rng, scope, names=False)}) {{ {temp} = "
                  f"{_expr(rng, scope)}; }}")
        if rng.random() < 0.5:
            update += f" else {{ {temp} = {_expr(rng, scope)}; }}"
        if rng.random() < 0.5:  # read on every path
            update += f" {_element(rng, scope, write=True)} = {temp};"
        return update
    if kind == "guarded array":
        return (f"if ({_cond(rng, scope)}) {{ "
                f"{_element(rng, scope, write=True)} = "
                f"{_expr(rng, scope)}; }}")
    accumulator = rng.choice(ACCUMULATORS)
    if rng.random() < 0.5:
        update = f"{accumulator} += {_expr(rng, scope)};"
    else:
        update = f"{accumulator} *= ({_expr(rng, scope)}) | 1;"
    if rng.random() < 0.3:  # the running value steers a write
        update += (f" if ({accumulator} > {rng.randint(0, 60)}) "
                   f"{{ {_element(rng, scope, write=True)} = "
                   f"{_expr(rng, scope)}; }}")
    return update


def _element(rng: random.Random, scope: _Scope, write: bool = False) -> str:
    """An array element.  A write goes to a written array, a read to any
    array; an access to a written array mostly uses its home subscript,
    so that not every pair of accesses conflicts."""
    name = rng.choice(sorted(scope.homes) if write else ARRAYS)
    if name in scope.homes and rng.random() < 0.85:
        return f"{name}[{scope.homes[name]}]"
    return f"{name}[{_index(rng, scope)}]"


def _index(rng: random.Random, scope: _Scope) -> str:
    """``c*v + k`` over a loop variable ``v`` in scope, in bounds."""
    var = rng.choice(sorted(scope.ranges))
    low, high = scope.ranges[var]
    coeff = rng.choice((-1, 0, 1, 2))
    ends = (coeff * low, coeff * (high - 1))
    offset = rng.randint(-min(ends), WORDS - 1 - max(ends))
    if coeff == 0:
        index = str(offset)
    elif coeff == -1:
        index = f"{offset} - {var}"
    else:
        index = f"{var}" if coeff == 1 else f"2 * {var}"
        index += f" + {offset}" if offset >= 0 else f" - {-offset}"
    return index


def _expr(rng: random.Random, scope: _Scope, depth: int = 2) -> str:
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng, scope)
    if rng.random() < 0.2:
        return f"({_expr(rng, scope, depth - 1)}) % {rng.randint(2, 9)}"
    op = rng.choice(("+", "-", "*", "&", "|", "^"))
    return (f"({_expr(rng, scope, depth - 1)} {op} "
            f"{_expr(rng, scope, depth - 1)})")


def _leaf(rng: random.Random, scope: _Scope) -> str:
    roll = rng.random()
    if roll < 0.4:
        return _element(rng, scope)
    if roll < 0.55:
        return rng.choice(sorted(scope.ranges))
    if roll < 0.75:
        return rng.choice(scope.temps + scope.outer_temps)
    if roll < 0.8:
        return rng.choice(ACCUMULATORS)
    return str(rng.randint(0, 9))


def _cond(rng: random.Random, scope: _Scope, names: bool = True) -> str:
    """A branch test on a loop variable or, with ``names``, half of the
    time on a temporary or an accumulator."""
    pool = sorted(scope.ranges)
    if names and rng.random() < 0.5:
        pool = scope.temps + scope.outer_temps + list(ACCUMULATORS)
    name = rng.choice(pool)
    roll = rng.random()
    if roll < 0.4:
        modulus = rng.randint(2, 4)
        return f"{name} % {modulus} == {rng.randrange(modulus)}"
    if roll < 0.7:
        return f"{name} > {rng.randint(0, 40)}"
    return f"{_expr(rng, scope, 1)} < {rng.randint(5, 40)}"


__all__ = ["ACCUMULATORS", "ARRAYS", "WORDS", "generate_loops"]
