"""Paired C/assembly expression scenarios for the mini-C differential.

One random expression tree is rendered twice -- as mini-C text for the
:mod:`repro.cir` interpreter and as lowered ``repro.vp.isa`` assembly --
so the two paths evaluate the *same* 32-bit computation and must agree
bit for bit on every ISS backend.

Lowering matches what a compiler for this ISA would emit:

- ``%`` has no instruction; it lowers to ``a - (a/b)*b``, which is the
  div/mod invariant ``_c_mod`` pins (``INT_MIN % -1 == 0`` included);
- division guards fold into the *expression on both sides*: every
  ``/`` or ``%`` right operand is wrapped as ``(rhs | 1)``, so neither
  path can fault and both compute the identical guarded value;
- unary ``-x`` is ``sub rd, r0, rx``; ``~x`` is ``xor`` with ``-1``;
  ``!x`` is ``seq rd, rx, r0``; shift counts need no guard because both
  paths mask the count to its low five bits.

The C side of a scenario whose tree has a binary root may deliver the
value through a pointer instead of returning it: the left operand goes
into a local ``t`` and ``t op= right`` happens through ``int *p = &t``
(as ``*p = *p op right`` or ``*p op= right``) or through an
out-parameter call ``f(&t, a, b)``; ``main`` then returns ``t``.  The
assembly side is the same either way.

Expressions are pure functions of the ``random.Random`` handed in.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.cir.parser import COMPOUND_ASSIGN

RESULT_ADDR = 200

# (C operator, ISS mnemonic or lowering tag)
_BIN_OPS = [("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "div"),
            ("%", "mod"), ("<<", "shl"), (">>", "shr"), ("&", "and"),
            ("|", "or"), ("^", "xor")]
_UN_OPS = ["-", "~", "!"]
_EDGE_CONSTS = [0, 1, -1, 2, 7, 31, 32, 2 ** 31 - 1, -2 ** 31,
                0x7FFF0000, -12345]
# How the C side delivers the value (see to_c_program); half return it.
_C_FORMS = ["return", "return", "return", "pointer", "compound", "out"]

# r1/r2 hold the arguments; r3..r12 are the evaluation stack; r13 is the
# scratch register mod/unary lowerings burn.
_ARG_REGS = {"a": 1, "b": 2}
_FIRST_TEMP = 3
_LAST_TEMP = 12
_SCRATCH = 13


def gen_expr(rng: random.Random, depth: int = 3):
    """A random expression tree (nested tuples, JSON-unfriendly on
    purpose -- trees never leave the process; scenarios carry text)."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return ("var", rng.choice(["a", "b"]))
        return ("const", rng.choice(_EDGE_CONSTS))
    if rng.random() < 0.2:
        return ("un", rng.choice(_UN_OPS), gen_expr(rng, depth - 1))
    c_op, mnem = rng.choice(_BIN_OPS)
    left = gen_expr(rng, depth - 1)
    right = gen_expr(rng, depth - 1)
    if mnem in ("div", "mod"):
        right = ("guard", right)  # (rhs | 1): never zero, both sides
    return ("bin", c_op, mnem, left, right)


def to_c(node) -> str:
    kind = node[0]
    if kind == "var":
        return node[1]
    if kind == "const":
        return f"({node[1]})" if node[1] < 0 else str(node[1])
    if kind == "guard":
        return f"({to_c(node[1])} | 1)"
    if kind == "un":
        return f"({node[1]}{to_c(node[2])})"
    _, c_op, _, left, right = node
    return f"({to_c(left)} {c_op} {to_c(right)})"


def to_c_program(node, form: str = "return") -> str:
    """The C side: ``main(a, b)`` returning the value of ``node``.  For a
    binary root, ``form`` may compute it by a write through a pointer to
    a local (``"pointer"``, ``"compound"``) or by an out-parameter call
    (``"out"``)."""
    if form == "return" or node[0] != "bin":
        return f"int main(int a, int b) {{ return {to_c(node)}; }}"
    _, c_op, _, left, right = node
    write = f"*p = *p {c_op} {to_c(right)};"
    if form == "compound" and f"{c_op}=" in COMPOUND_ASSIGN:
        write = f"*p {c_op}= {to_c(right)};"
    if form == "out":
        return (f"void f(int *p, int a, int b) {{ {write} }}\n"
                f"int main(int a, int b) {{ int t = {to_c(left)}; "
                f"f(&t, a, b); return t; }}")
    return (f"int main(int a, int b) {{ int t = {to_c(left)}; "
            f"int *p = &t; {write} return t; }}")


def _lower(node, dest: int, free: int, lines: List[str]) -> None:
    """Emit instructions leaving the node's value in ``r{dest}``;
    ``free`` is the next unused evaluation-stack register."""
    kind = node[0]
    if kind == "var":
        lines.append(f"    mov r{dest}, r{_ARG_REGS[node[1]]}")
        return
    if kind == "const":
        lines.append(f"    li r{dest}, {node[1]}")
        return
    if kind == "guard":
        _lower(node[1], dest, free, lines)
        lines.append(f"    li r{_SCRATCH}, 1")
        lines.append(f"    or r{dest}, r{dest}, r{_SCRATCH}")
        return
    if kind == "un":
        _, op, operand = node
        _lower(operand, dest, free, lines)
        if op == "-":
            lines.append(f"    sub r{dest}, r0, r{dest}")
        elif op == "~":
            lines.append(f"    li r{_SCRATCH}, -1")
            lines.append(f"    xor r{dest}, r{dest}, r{_SCRATCH}")
        else:  # !
            lines.append(f"    seq r{dest}, r{dest}, r0")
        return
    _, _, mnem, left, right = node
    if free > _LAST_TEMP:
        raise ValueError("expression too deep for the register stack")
    _lower(left, dest, free, lines)
    _lower(right, free, free + 1, lines)
    if mnem == "mod":
        # a % b  ->  a - (a/b)*b  (the _c_mod invariant, word-wrapped)
        lines.append(f"    div r{_SCRATCH}, r{dest}, r{free}")
        lines.append(f"    mul r{_SCRATCH}, r{_SCRATCH}, r{free}")
        lines.append(f"    sub r{dest}, r{dest}, r{_SCRATCH}")
    else:
        lines.append(f"    {mnem} r{dest}, r{dest}, r{free}")


def to_asm(node, a: int, b: int) -> str:
    """The complete firmware: arguments in r1/r2, result stored at
    :data:`RESULT_ADDR`, then halt."""
    lines = [f"    li r1, {a}", f"    li r2, {b}"]
    _lower(node, _FIRST_TEMP, _FIRST_TEMP + 1, lines)
    lines.append(f"    sw r{_FIRST_TEMP}, {RESULT_ADDR}(r0)")
    lines.append("    halt")
    return "\n".join(lines) + "\n"


def generate_expr_scenario(seed: int) -> Dict:
    """One JSON-pure paired scenario: C text, assembly text, arguments."""
    rng = random.Random(f"{seed}:expr")
    node = gen_expr(rng, depth=rng.choice([2, 3, 3, 4]))
    a = rng.choice(_EDGE_CONSTS + [rng.randint(-10 ** 6, 10 ** 6)])
    b = rng.choice(_EDGE_CONSTS + [rng.randint(-10 ** 6, 10 ** 6)])
    c_source = to_c_program(node, rng.choice(_C_FORMS))
    return {"kind": "expr", "seed": seed, "c_source": c_source,
            "asm_source": to_asm(node, a, b), "args": [a, b]}


__all__ = ["RESULT_ADDR", "gen_expr", "generate_expr_scenario", "to_asm",
           "to_c", "to_c_program"]
