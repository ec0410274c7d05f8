"""Differential tests: the mini-C interpreter vs the ISS on the operators
where host-Python semantics diverge from 32-bit C -- shifts on negative
and overflowing operands, truncating division, modulo sign, and
arithmetic that overflows the 32-bit word.

Both execution paths model the same 32-bit target, so for every (op, a, b)
the interpreted C expression and the assembled firmware must agree bit
for bit -- on every ISS backend (reference, compiled, vector).  Any
divergence here is exactly the class of bug that makes a program "work
in simulation, fail on hardware" (or vice versa).
"""

import random

import pytest

from repro.cir import InterpError, parse, run_program
from repro.vp import SoC, SoCConfig

RESULT_ADDR = 200

# (backend, quantum) legs every ISS-side check runs under.
BACKEND_RUNS = [("reference", 1), ("compiled", 64), ("vector", 64)]


def _wrap32(value: int) -> int:
    """The independent 32-bit two's-complement model both paths target."""
    return ((value + 2 ** 31) % 2 ** 32) - 2 ** 31


def interp_binop(op: str, a: int, b: int) -> int:
    source = f"int main(int a, int b) {{ return a {op} b; }}"
    return run_program(parse(source), args=[a, b]).return_value


def iss_binop(op_mnemonic: str, a: int, b: int, backend: str = "compiled",
              quantum: int = 64) -> int:
    """Run one reg-reg ALU op on the ISS; operands are materialized with
    li (the assembler accepts negative immediates)."""
    asm = f"""
        li r1, {a}
        li r2, {b}
        {op_mnemonic} r3, r1, r2
        li r4, {RESULT_ADDR}
        sw r3, 0(r4)
        halt
    """
    soc = SoC(SoCConfig(n_cores=1, backend=backend, quantum=quantum),
              {0: asm})
    soc.run()
    return soc.mem(RESULT_ADDR)


SHIFT_CASES = [
    (1, 3),                    # plain
    (0x40000000, 2),           # overflow out of the sign bit
    (0x7FFFFFFF, 1),           # positive -> negative wrap
    (-1, 4),                   # negative left operand
    (-8, 1),                   # arithmetic right shift
    (-1, 31),
    (1, 35),                   # count > 31: masked to 3
    (123456, 0),
]


class TestShiftSemantics:
    @pytest.mark.parametrize("a,b", SHIFT_CASES)
    def test_shl_matches(self, a, b):
        assert interp_binop("<<", a, b) == iss_binop("shl", a, b)

    @pytest.mark.parametrize("a,b", SHIFT_CASES)
    def test_shr_matches(self, a, b):
        assert interp_binop(">>", a, b) == iss_binop("shr", a, b)

    def test_shl_wraps_to_signed_32_bits(self):
        # 0x40000000 << 1 overflows into the sign bit on a 32-bit target.
        assert interp_binop("<<", 0x40000000, 1) == -(2 ** 31)
        assert iss_binop("shl", 0x40000000, 1) == -(2 ** 31)

    def test_shr_is_arithmetic(self):
        assert interp_binop(">>", -8, 1) == -4
        assert iss_binop("shr", -8, 1) == -4

    def test_shift_count_uses_low_five_bits(self):
        assert interp_binop("<<", 1, 32) == 1
        assert iss_binop("shl", 1, 32) == 1
        assert interp_binop("<<", 1, 33) == 2
        assert iss_binop("shl", 1, 33) == 2


DIV_CASES = [(7, 2), (-7, 2), (7, -2), (-7, -2), (1, 3), (-1, 3)]


class TestDivModSemantics:
    @pytest.mark.parametrize("a,b", DIV_CASES)
    def test_division_truncates_toward_zero_like_the_iss(self, a, b):
        assert interp_binop("/", a, b) == iss_binop("div", a, b)

    def test_modulo_sign_follows_dividend(self):
        assert interp_binop("%", -7, 3) == -1
        assert interp_binop("%", 7, -3) == 1

    def test_modulo_rejects_float_operands(self):
        # C rejects % on floats at compile time; silently computing a
        # Python float remainder would diverge from any compiled target.
        with pytest.raises(InterpError, match="float"):
            run_program(parse(
                "int main() { float x; x = 7.5; return x % 2; }"))
        with pytest.raises(InterpError, match="float"):
            run_program(parse(
                "int main() { float y; y = 2.5; return 7 % y; }"))

    def test_int_modulo_still_works(self):
        assert interp_binop("%", 17, 5) == 2


# Operand pairs that overflow the 32-bit word: the sign-bit edge, sums
# past INT_MAX, products past 2**32, and negative products.
OVERFLOW_CASES = [
    ("+", "add", 2 ** 31 - 1, 1),          # INT_MAX + 1 -> INT_MIN
    ("+", "add", 2 ** 31 - 1, 2 ** 31 - 1),
    ("-", "sub", -(2 ** 31), 1),           # INT_MIN - 1 -> INT_MAX
    ("-", "sub", 0, -(2 ** 31)),           # -INT_MIN has no 32-bit home
    ("*", "mul", 65536, 65536),            # 2**32 exactly -> 0
    ("*", "mul", 100000, 100000),          # 10**10, far past 2**32
    ("*", "mul", -100000, 100000),         # negative overflow
    ("*", "mul", -46341, 46341),           # just past -2**31
    ("*", "mul", 2 ** 31 - 1, -1),
    ("*", "mul", -(2 ** 31), -1),          # the classic UB corner
]


class TestOverflowWrapDifferential:
    @pytest.mark.parametrize("c_op,mnemonic,a,b", OVERFLOW_CASES)
    def test_overflow_wraps_identically_everywhere(self, c_op, mnemonic,
                                                   a, b):
        # The independent model, the C interpreter, and every ISS backend
        # must all land on the same signed-32 image.
        import operator
        expected = _wrap32(
            {"+": operator.add, "-": operator.sub,
             "*": operator.mul}[c_op](a, b))
        assert -(2 ** 31) <= expected < 2 ** 31
        assert interp_binop(c_op, a, b) == expected
        for backend, quantum in BACKEND_RUNS:
            assert iss_binop(mnemonic, a, b, backend, quantum) == expected, \
                f"backend {backend!r}"


class TestRandomChainSweep:
    """Seeded fuzz down payment: random +/-/* chains over word-scale
    constants, checked interp vs every ISS backend vs the wrap model."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_arith_chain_agrees_on_all_paths(self, seed):
        rng = random.Random(0xC1A0 + seed)
        consts = [rng.randint(-(2 ** 31), 2 ** 31 - 1) for _ in range(7)]
        ops = [rng.choice("+-*") for _ in range(6)]

        # Left-folded C expression...
        expr = str(consts[0])
        for op, const in zip(ops, consts[1:]):
            expr = f"({expr} {op} ({const}))"
        c_value = run_program(
            parse(f"int main() {{ return {expr}; }}")).return_value

        # ...the independent wrap model...
        import operator
        table = {"+": operator.add, "-": operator.sub, "*": operator.mul}
        model = consts[0]
        for op, const in zip(ops, consts[1:]):
            model = _wrap32(table[op](model, const))
        assert c_value == model

        # ...and the same chain as firmware, on every backend.
        mnemonic = {"+": "add", "-": "sub", "*": "mul"}
        lines = [f"li r1, {consts[0]}"]
        for op, const in zip(ops, consts[1:]):
            lines.append(f"li r2, {const}")
            lines.append(f"{mnemonic[op]} r1, r1, r2")
        lines += [f"li r4, {RESULT_ADDR}", "sw r1, 0(r4)", "halt"]
        asm = "\n".join(lines)
        for backend, quantum in BACKEND_RUNS:
            soc = SoC(SoCConfig(n_cores=1, backend=backend,
                                quantum=quantum), {0: asm})
            soc.run()
            assert soc.mem(RESULT_ADDR) == model, f"backend {backend!r}"


def iss_mod(a: int, b: int, backend: str = "compiled",
            quantum: int = 64) -> int:
    """``a % b`` the way a compiler lowers it for this ISA (there is no
    mod instruction): ``a - (a/b)*b`` -- each step wrapping to the
    32-bit word.  This is exactly the lowering repro.gen.expr emits."""
    asm = f"""
        li r1, {a}
        li r2, {b}
        div r3, r1, r2
        mul r3, r3, r2
        sub r3, r1, r3
        li r4, {RESULT_ADDR}
        sw r3, 0(r4)
        halt
    """
    soc = SoC(SoCConfig(n_cores=1, backend=backend, quantum=quantum),
              {0: asm})
    soc.run()
    return soc.mem(RESULT_ADDR)


MOD_CASES = [
    (7, 3), (-7, 3), (7, -3), (-7, -3),          # sign matrix
    (2 ** 31 - 1, 7), (-(2 ** 31), 7),           # word-edge dividends
    (-(2 ** 31), 1), (-(2 ** 31), -1),           # INT_MIN % -1 -> 0
    (2 ** 31 - 1, -(2 ** 31)),                   # |divisor| > |dividend|
    (0, -5), (5, 2 ** 31 - 1),
]


class TestModLoweringDifferential:
    """The `%` satellite: _c_mod's pinned corner semantics must match
    the div/mul/sub lowering on every ISS backend."""

    @pytest.mark.parametrize("a,b", MOD_CASES)
    def test_mod_matches_lowering_on_every_backend(self, a, b):
        expected = interp_binop("%", a, b)
        for backend, quantum in BACKEND_RUNS:
            assert iss_mod(a, b, backend, quantum) == expected, \
                f"backend {backend!r}: {a} % {b}"

    def test_int_min_mod_minus_one_is_zero(self):
        # The pinned corner: INT_MIN / -1 wraps to INT_MIN (the _c_div
        # convention), so the invariant a == (a/b)*b + a%b forces
        # INT_MIN % -1 == 0 -- host Python would happily say 0 too, but
        # only after the intermediate product wraps correctly.
        assert interp_binop("%", -(2 ** 31), -1) == 0
        for backend, quantum in BACKEND_RUNS:
            assert iss_mod(-(2 ** 31), -1, backend, quantum) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_div_mod_invariant_on_the_word(self, seed):
        # a == (a/b)*b + a%b, evaluated entirely in wrapped 32-bit
        # arithmetic, for random word-scale operands on both paths.
        rng = random.Random(0x30D + seed)
        for _ in range(8):
            a = rng.randint(-(2 ** 31), 2 ** 31 - 1)
            b = rng.choice([rng.randint(-(2 ** 31), 2 ** 31 - 1),
                            rng.choice([-2, -1, 1, 2, 3])])
            if b == 0:
                b = 1
            quotient = interp_binop("/", a, b)
            remainder = interp_binop("%", a, b)
            assert _wrap32(_wrap32(quotient * b) + remainder) == a, \
                (a, b, quotient, remainder)
            assert iss_mod(a, b) == remainder, (a, b)
