"""Tests for the mini-C interpreter: C semantics, memory model, counting."""

import pytest

from repro.cir import InterpError, Interpreter, parse, run_program


def run(source, entry="main", args=None, externals=None, **kwargs):
    return run_program(parse(source), entry=entry, args=args,
                       externals=externals, **kwargs)


class TestArithmetic:
    def test_truncating_division(self):
        assert run("int main() { return 7 / 2; }").return_value == 3
        assert run("int main() { return (0-7) / 2; }").return_value == -3
        assert run("int main() { return 7 / (0-2); }").return_value == -3

    def test_modulo_sign_follows_dividend(self):
        assert run("int main() { return 7 % 3; }").return_value == 1
        assert run("int main() { return (0-7) % 3; }").return_value == -1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpError, match="division by zero"):
            run("int main() { return 1 / 0; }")

    def test_float_promotion(self):
        result = run("float main() { return 1 / 2 + 1.5; }")
        assert result.return_value == pytest.approx(1.5)

    def test_int_coercion_on_return(self):
        assert run("int main() { float x; x = 3.7; return x; }"
                   ).return_value == 3

    def test_bitwise_and_shifts(self):
        assert run("int main() { return (5 & 3) | (1 << 4) ^ 2; }"
                   ).return_value == (5 & 3) | (1 << 4) ^ 2

    def test_comparisons_return_int(self):
        assert run("int main() { return (3 < 5) + (5 <= 5) + (2 > 7); }"
                   ).return_value == 2


class TestControlFlow:
    def test_short_circuit_and(self):
        # RHS would divide by zero; short circuit must skip it.
        assert run("int main() { return 0 && (1 / 0); }").return_value == 0

    def test_short_circuit_or(self):
        assert run("int main() { return 1 || (1 / 0); }").return_value == 1

    def test_while_break_continue(self):
        source = """
        int main() {
          int i; int s; s = 0;
          for (i = 0; i < 10; i++) {
            if (i == 3) { continue; }
            if (i == 7) { break; }
            s += i;
          }
          return s;
        }"""
        assert run(source).return_value == 0 + 1 + 2 + 4 + 5 + 6

    def test_nested_loops(self):
        source = """
        int main() {
          int i; int j; int s; s = 0;
          for (i = 0; i < 3; i++) {
            for (j = 0; j < 4; j++) { s += i * j; }
          }
          return s;
        }"""
        assert run(source).return_value == sum(i * j for i in range(3)
                                               for j in range(4))

    def test_ternary(self):
        assert run("int main() { int x; x = 5; return x > 3 ? 10 : 20; }"
                   ).return_value == 10

    def test_step_limit_guards_infinite_loop(self):
        with pytest.raises(InterpError, match="step limit"):
            run("int main() { while (1) { } return 0; }", step_limit=1000)


class TestArraysAndPointers:
    def test_2d_array(self):
        source = """
        int m[3][4];
        int main() {
          int i; int j;
          for (i = 0; i < 3; i++)
            for (j = 0; j < 4; j++)
              m[i][j] = i * 10 + j;
          return m[2][3];
        }"""
        assert run(source).return_value == 23

    def test_out_of_bounds_raises(self):
        with pytest.raises(InterpError, match="out of bounds"):
            run("int a[4]; int main() { return a[9]; }")

    def test_pointer_to_array_element(self):
        source = """
        int a[8];
        int main() {
          int *p;
          int i;
          for (i = 0; i < 8; i++) { a[i] = i * i; }
          p = &a[2];
          return *p + *(p + 3) + p[1];
        }"""
        assert run(source).return_value == 4 + 25 + 9

    def test_pointer_store(self):
        source = """
        int a[4];
        int main() { int *p; p = &a[1]; *p = 42; return a[1]; }"""
        assert run(source).return_value == 42

    @pytest.mark.parametrize("body, printed", [
        # element stores convert to the element type
        ("float fl[3]; fl[2] = 7 / 2; print(fl[2]);", [3.0]),
        ("float m[2][2]; m[1][1] = 5; print(m[1][1]);", [5.0]),
        ("int a[2]; a[0] = 2.5; a[1] += 1.5; print(a[0], a[1]);", [2, 1]),
        # stores through a pointer convert to the pointee's type
        ("int a[2]; int *p = a; *p = 2.5; print(a[0]);", [2]),
        ("float b[2]; float *q = b; q[1] = 4; print(b[1]);", [4.0]),
        ("int x; int *p = &x; *p = 2.5; print(x);", [2]),
        # and scalar assignment follows the same rule
        ("float f = 1.5; f = 3; print(f / 2);", [1.5]),
        ("int i; i = 9.75; print(i);", [9]),
    ])
    def test_stores_convert_to_the_destination_type(self, body, printed):
        source = "int main() { " + body + " return 0; }"
        output = run(source).output
        assert [(type(v), v) for v in output] \
            == [(type(v), v) for v in printed]

    def test_address_of_scalar(self):
        source = """
        int main() { int x; int *p; x = 7; p = &x; *p = 9; return *p; }"""
        assert run(source).return_value == 9

    def test_pointer_write_and_name_see_one_value(self):
        source = """
        int g;
        void set(int *q, int v) { *q = v; }
        int main() {
          int x = 1; int *p = &x;
          *p = 5; p[0] += x;
          set(&g, x);
          { int x = 3; g += x; }
          return x * 100 + g;
        }"""
        result = run(source)
        assert result.return_value == 1013
        assert result.globals == {"g": 13}

    @pytest.mark.parametrize("expr,expected", [
        ("&x == &x", 1), ("&x == &y", 0), ("&x != &y", 1),
        ("&a[1] == &b[1]", 0), ("p + 1 == &a[2]", 1), ("p == &a[2]", 0),
    ])
    def test_pointer_equality_is_by_address(self, expr, expected):
        source = f"""
        int a[4]; int b[4];
        int main() {{ int x = 0; int y = 0; int *p = &a[1];
          return {expr}; }}"""
        assert run(source).return_value == expected

    @pytest.mark.parametrize("use", ["return *p;", "*p = 4; return 0;"])
    def test_pointer_to_a_left_block_local_is_an_interp_error(self, use):
        source = f"""
        int main() {{ int *p; {{ int y = 3; p = &y; }} {use} }}"""
        with pytest.raises(InterpError, match="dangling pointer to 'y'"):
            run(source)

    def test_array_decays_to_pointer(self):
        source = """
        int main() { int a[4]; int *p = a; *p = 9; return a[0]; }"""
        assert run(source).return_value == 9
        source = """
        int a[4];
        int main() { int *p; p = a; p[2] = 4; return a[2]; }"""
        assert run(source).return_value == 4

    def test_array_passed_to_pointer_parameter(self):
        source = """
        int sum(int *p, int n) {
          int s = 0; int i;
          for (i = 0; i < n; i++) { s += *(p + i); p[i] = 0; }
          return s;
        }
        int a[4];
        int main() { int i;
          for (i = 0; i < 4; i++) { a[i] = i + 1; }
          return sum(a, 4) * 10 + a[3]; }"""
        assert run(source).return_value == 100

    def test_array_passed_by_reference(self):
        source = """
        void fill(int buf[4], int v) {
          int i;
          for (i = 0; i < 4; i++) { buf[i] = v; }
        }
        int a[4];
        int main() { fill(a, 5); return a[0] + a[3]; }"""
        assert run(source).return_value == 10


class TestFunctions:
    def test_recursion(self):
        source = """
        int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        int main() { return fib(10); }"""
        assert run(source).return_value == 55

    def test_scalar_args_by_value(self):
        source = """
        void bump(int x) { x = x + 1; }
        int main() { int v; v = 3; bump(v); return v; }"""
        assert run(source).return_value == 3

    def test_wrong_arity_raises(self):
        with pytest.raises(InterpError, match="expects"):
            run("int f(int a) { return a; } int main() { return f(); }")

    def test_unknown_function_raises(self):
        with pytest.raises(InterpError, match="unknown function"):
            run("int main() { return mystery(); }")

    def test_externals(self):
        calls = []

        def ch_write(channel, value):
            calls.append((channel, value))
            return 0

        run("int main() { ch_write(3, 14); return 0; }",
            externals={"ch_write": ch_write})
        assert calls == [(3, 14)]

    def test_intrinsics(self):
        source = """
        int main() {
          return abs(0-4) + min(3, 1) + max(2, 7) + floor(2.9) + ceil(2.1);
        }"""
        assert run(source).return_value == 4 + 1 + 7 + 2 + 3

    def test_print_collects_output(self):
        result = run('int main() { print(1); print(2, 3); return 0; }')
        assert result.output == [1, 2, 3]


class TestScopingAndState:
    def test_block_scoping_shadows(self):
        source = """
        int main() {
          int x; x = 1;
          if (1) { int x; x = 99; }
          return x;
        }"""
        assert run(source).return_value == 1

    def test_for_header_decl_scoped_to_loop(self):
        source = """
        int main() {
          int i; i = 100;
          for (int i = 0; i < 3; i++) { }
          return i;
        }"""
        assert run(source).return_value == 100

    def test_globals_persist_across_calls(self):
        source = """
        int counter;
        int tick() { counter += 1; return counter; }
        int main() { tick(); tick(); return tick(); }"""
        assert run(source).return_value == 3

    def test_global_initializer(self):
        assert run("int g = 5 * 4; int main() { return g; }"
                   ).return_value == 20


class TestCounting:
    def test_op_count_scales_with_work(self):
        small = run("""int main() { int i; int s; s=0;
                       for (i=0;i<10;i++){s+=i;} return s; }""")
        large = run("""int main() { int i; int s; s=0;
                       for (i=0;i<100;i++){s+=i;} return s; }""")
        assert large.op_count > small.op_count * 5

    def test_call_counts(self):
        result = run("""
        int f() { return 1; }
        int main() { int i; int s; s = 0;
          for (i = 0; i < 4; i++) { s += f(); } return s; }""")
        assert result.call_counts["f"] == 4

    def test_persistent_interpreter_state(self):
        program = parse("int n; int task_go() { n += 1; return n; }")
        interp = Interpreter(program)
        assert interp.call("task_go", []) == 1
        assert interp.call("task_go", []) == 2


# ---------------------------------------------------------------------------
# Exactness: every RunResult field, the op count at every call boundary and
# the state a step-limit error leaves behind are pinned by digest.  The
# digests were recorded with the AST tree-walking interpreter; any
# execution strategy must reproduce them bit for bit.
# ---------------------------------------------------------------------------

import hashlib
import json
import random


def _digest(value):
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fields(result):
    return {"return_value": result.return_value, "output": result.output,
            "op_count": result.op_count, "stmt_count": result.stmt_count,
            "call_counts": result.call_counts,
            "func_op_counts": result.func_op_counts,
            "globals": result.globals}


def _maps_jpeg_source(seed, n=256):
    """The JPEG-skeleton encoder the ``maps_jpeg`` workload feeds the MAPS
    flow, with the same seeded constants."""
    rng = random.Random(f"{seed}:maps_jpeg")
    a = rng.randrange(3, 200, 2)
    b = rng.randrange(256)
    q0 = rng.randrange(2, 9)
    q1 = rng.randrange(1, 5)
    return f"""
int pixels[{n}];
int shifted[{n}];
int coeff[{n}];
int quant[{n}];
int qtable[8];
int main() {{
  int i;
  int bits = 0;
  for (i = 0; i < 8; i++) {{ qtable[i] = {q0} + i * {q1}; }}
  for (i = 0; i < {n}; i++) {{ pixels[i] = (i * {a} + {b}) % 256; }}
  for (i = 0; i < {n}; i++) {{ shifted[i] = pixels[i] - 128; }}
  for (i = 0; i < {n}; i++) {{
    int block = i / 8;
    int k = i % 8;
    coeff[i] = shifted[block * 8 + k] * (8 - k) - shifted[i] / 2;
  }}
  for (i = 0; i < {n}; i++) {{ quant[i] = coeff[i] / qtable[i % 8]; }}
  for (i = 0; i < {n}; i++) {{ bits += abs(quant[i]) % 16; }}
  return bits;
}}
"""


# Everything the subset has, in one program: globals with initializers,
# floats, pointers to arrays and scalars, 2-D arrays passed by reference,
# shadowing blocks, for-header declarations, break/continue, ternaries,
# short circuits, shifts, bitwise ops, compound assignments, wrapping
# arithmetic, intrinsics and print.
KITCHEN_SINK = """
int g = 5 * 4 - 3;
float h = -2.5;
int t = 1 ? 7 : 9;
int big = 2147483647;
int grid[3][4];
int flat[6];
float fl[3];
int counter;

int bump(int d) { counter += d; return counter; }
void fill(int m[3][4], int v) {
  int i;
  for (i = 0; i < 3; i++) {
    int j;
    for (j = 0; j < 4; j++) { m[i][j] = v * i + j; }
  }
}
float scale(float x, int k) { return x * k + 0.5; }
int sum_ptr(int *p, int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i++) { s += *(p + i); }
  return s;
}
int main() {
  int x = 3;
  int *px = &x;
  int *pf = &flat[1];
  float f;
  int r;
  fill(grid, 10);
  for (int i = 0; i < 6; i++) { flat[i] = i * i - 4; }
  *px = *px + 4;
  pf[2] = 99;
  *(pf + 1) = *(pf + 1) + 3;
  *px += 1;
  flat[2] += 1;
  grid[1][2] -= 4;
  if (x > 5) { int x; x = -1; print(x); } else { print(0); }
  f = scale(h, 3);
  fl[0] = f; fl[1] = f / 2; fl[2] = 7 / 2;
  r = big + 1;
  print(r, big * 2, -r, ~x, !x, !0);
  print(grid[2][3], grid[1][0] << 3, grid[2][1] >> 1, 13 & 6, 13 | 6, 13 ^ 6);
  print(0 - 7 / 2, (0 - 7) % 3, 7 % -3);
  print(x && bump(1), 0 && bump(100), x || bump(100), 0 || bump(2));
  print(t > 5 ? bump(3) : bump(4), counter);
  r = 0;
  while (1) {
    r++;
    if (r % 2 == 0) { continue; }
    if (r > 7) { break; }
    g -= r;
  }
  x <<= 2; x >>= 1; x = (x | 64) & 127 ^ 5; x %= 37; x /= 2; x *= -3;
  print(g, r, x, sum_ptr(&flat[0], 6), sum_ptr(pf, 3));
  print(abs(-8), min(4, 2, 9), max(1, 11, 3), floor(2.5), ceil(2.5),
        sqrt(16.0), f, fl[1]);
  return x + g + counter;
}
"""

# Recorded with the tree-walking interpreter (sha256 prefix of the
# canonical JSON of every RunResult field).  ``kitchen_sink`` was
# re-recorded when stores through ``&x`` began to reach ``x``: after
# ``*px = *px + 4; *px += 1;`` x is 8, not 3, which moves output[0],
# output[4] and output[24], the return value (-38 -> -8), op_count
# (384 -> 387, main 380 -> 383) and stmt_count (155 -> 157).  It was
# re-recorded again when element stores began to convert to the element
# type: ``fl[2] = 7 / 2;`` leaves 3.0 in the float array, not the int 3
# (``globals["fl"][2]``, the only field that moved).
EXACT_DIGESTS = {
    "maps_jpeg_1": "cb0042c61ad62a37",
    "maps_jpeg_97": "d44a377ba65a08d9",
    "jpeg_stress": "cc3633a099da2a1f",
    "recoder_split_loop": "27f8bd33be3e2603",
    "recoder_pointers": "5aeee72a989202d7",
    "kitchen_sink": "879d8687c6432b37",
    "hopes": "5879c11a1c3a2bbf",
    "step_sweep_ops": 141,
    "step_sweep": "67c5b581b4f4f883",
}


def _maps_flow_results(seed):
    from repro.maps import MapsFlow, PEClass, PlatformSpec
    platform = PlatformSpec("terminal", channel_setup_cost=5.0,
                            channel_word_cost=0.05)
    platform.add_pe("arm0", PEClass.RISC)
    platform.add_pe("arm1", PEClass.RISC)
    platform.add_pe("dsp0", PEClass.DSP)
    platform.add_pe("dsp1", PEClass.DSP)
    report = MapsFlow(platform).run(
        _maps_jpeg_source(seed), split_k=4, app_name="jpeg", iterations=4,
        refine=True, refine_iterations=400)
    return report.sequential_result, report.parallel_result


def _recoder_results(name):
    from repro.recoder import recode_pointers, split_loop
    if name == "split_loop":
        from tests.test_recoder import KERNEL as source

        def transform(program):
            split_loop(program, "main", 8, 3)
    else:
        source = """
        int A[32];
        int main() {
          int i;
          int *p = &A[4];
          for (i = 0; i < 8; i++) { *(p + i) = i * i; }
          return A[4] + A[11] + p[2];
        }
        """

        def transform(program):
            recode_pointers(program, "main")
    before = run_program(parse(source))
    program = parse(source)
    transform(program)
    return before, run_program(program)


def _exact_record(case):
    if case.startswith("maps_jpeg_"):
        results = _maps_flow_results(int(case.rsplit("_", 1)[1]))
    elif case == "jpeg_stress":
        from tests.test_jpeg_stress import JPEG
        results = (run_program(parse(JPEG)),)
    elif case.startswith("recoder_"):
        results = _recoder_results(case[len("recoder_"):])
    else:
        results = (run_program(parse(KITCHEN_SINK)),)
    return [_fields(result) for result in results]


@pytest.mark.parametrize("case", ["maps_jpeg_1", "maps_jpeg_97",
                                  "jpeg_stress", "recoder_split_loop",
                                  "recoder_pointers", "kitchen_sink"])
def test_run_results_pinned(case):
    assert _digest(_exact_record(case)) == EXACT_DIGESTS[case]


def _hopes_firing_ops(monkeypatch):
    """Op deltas of every top-level ``interp.call`` in a HOPES run: the
    cost model turns exactly these into simulated time."""
    import repro.hopes.runtime as runtime
    from repro.hopes import CICTranslator, parse_arch_xml
    from tests.test_hopes import SMP_XML, pipeline_app

    deltas = []

    class Recording(runtime.Interpreter):
        depth = 0

        def call(self, name, args):
            self.depth += 1
            before = self.op_count
            try:
                return super().call(name, args)
            finally:
                self.depth -= 1
                if self.depth == 0:
                    deltas.append((name, self.op_count - before))

    monkeypatch.setattr(runtime, "Interpreter", Recording)
    report = CICTranslator(pipeline_app(), parse_arch_xml(SMP_XML)
                           ).translate().run(iterations=12)
    return deltas, report.output_of("sink"), report.end_time


def test_hopes_firing_op_deltas_pinned(monkeypatch):
    assert _digest(_hopes_firing_ops(monkeypatch)) == EXACT_DIGESTS["hopes"]


STEP_SWEEP = """
int acc;
int data[5];
int step(int x) {
  acc = acc + x * 2;
  return acc % 7;
}
int main() {
  int i; int s; s = 0;
  for (i = 0; i < 5; i++) {
    int d = step(i) + (i > 1 && acc > 3 ? 1 : -1);
    data[i] = d;
    s += data[i];
    if (s > 3) { print(s, i); }
    while (s > 6) { s = s - 4; }
  }
  print(acc);
  return s;
}
"""


def _step_sweep():
    """For every step limit below the program's full op count: the error
    and the counters and output it leaves behind."""
    program = parse(STEP_SWEEP)
    total = run_program(program).op_count
    rows = []
    for limit in range(total):
        interp = Interpreter(program, step_limit=limit)
        with pytest.raises(InterpError) as info:
            interp.run()
        rows.append((limit, str(info.value), interp.op_count,
                     interp.stmt_count, interp.output, interp.call_counts,
                     interp.func_op_counts))
    return total, rows


def test_step_limit_sweep_pinned():
    total, rows = _step_sweep()
    assert total == EXACT_DIGESTS["step_sweep_ops"]
    assert all(row[2] == row[0] + 1 for row in rows)
    assert _digest(rows) == EXACT_DIGESTS["step_sweep"]


# Runtime errors keep their exact messages.
ERROR_MESSAGES = [
    ("int a[4]; int main() { return a[4]; }",
     "index 4 out of bounds for dimension 4"),
    ("int a[4]; int main() { a[-1] = 2; return 0; }",
     "index -1 out of bounds for dimension 4"),
    ("int m[2][3]; int main() { return m[1][3]; }",
     "index 3 out of bounds for dimension 3"),
    ("int m[2][3]; int main() { m[2][0] = 1; return 0; }",
     "index 2 out of bounds for dimension 2"),
    ("int m[2][3]; int main() { return m[1]; }",
     "partial array indexing is unsupported"),
    ("int a[4]; int main() { int *p = &a[3]; return p[1]; }",
     "pointer dereference out of bounds (4/4)"),
    ("int a[4]; int main() { int *p = &a[3]; *(p + 2) = 1; return 0; }",
     "pointer store out of bounds (5/4)"),
    ("int main() { int x; return x[0]; }",
     "indexing a non-array value via Ident(line=1, col=28, "),
    ("int main() { return 1 / 0; }", "division by zero"),
    ("int main() { return 1 % 0; }", "modulo by zero"),
    ("int main() { return 1.5 % 2; }",
     "invalid operands to %: floats are not allowed"),
    ("int main() { return y; }", "undefined variable 'y'"),
    ("int main() { y = 1; return 0; }", "undefined variable 'y'"),
    ("int a[2]; int main() { a = 1; return 0; }",
     "cannot assign to array 'a'"),
    ("int main() { int x; x = 1; return *x; }",
     "dereferencing a non-pointer"),
    ("int main() { return nope(1); }", "call to unknown function 'nope'"),
    ("int f(int a) { return a; } int main() { return f(1, 2); }",
     "f() expects 1 args, got 2"),
    ("int main() { while (1) { } return 0; }",
     "step limit 1000 exceeded (infinite loop?)"),
]


@pytest.mark.parametrize("source,message", ERROR_MESSAGES)
def test_error_messages_pinned(source, message):
    with pytest.raises(InterpError) as info:
        run(source, step_limit=1000)
    assert str(info.value).startswith(message)


class TestCompoundAssignmentTarget:
    """``a[e] op= v`` resolves its target once, as C does."""

    def test_index_with_call_runs_once(self):
        result = run("""
        int a[4]; int n;
        int next() { n = n + 1; return n; }
        int main() { a[next()] += 5; return n * 100 + a[1] * 10 + a[2]; }""")
        assert result.return_value == 150
        assert result.call_counts["next"] == 1

    def test_deref_target_with_call_runs_once(self):
        result = run("""
        int a[4]; int n;
        int next() { n = n + 1; return n; }
        int main() { int *p = &a[0]; *(p + next()) += 5;
                     return n * 100 + a[1] * 10 + a[2]; }""")
        assert result.return_value == 150
        assert result.call_counts["next"] == 1

    def test_read_costs_one_index_op(self):
        # The statement is one op and the element read one more; the
        # operator of a compound assignment is free.
        plain = run("int a[4]; int main() { a[1 + 1] = 1; return 0; }")
        compound = run("int a[4]; int main() { a[1 + 1] += 1; return 0; }")
        assert compound.op_count - plain.op_count == 1


class TestIntrinsicErrors:
    @pytest.mark.parametrize("call,message", [
        ("abs()", "abs() expects 1 args, got 0"),
        ("abs(1, 2)", "abs() expects 1 args, got 2"),
        ("min()", "min() expects at least 1 args, got 0"),
        ("max()", "max() expects at least 1 args, got 0"),
        ("sqrt(0 - 1)", "sqrt() domain error"),
        ('floor("a")', "floor() domain error"),
        ("ceil(1, 2)", "ceil() expects 1 args, got 2"),
    ])
    def test_bad_calls_raise_interp_error(self, call, message):
        with pytest.raises(InterpError) as info:
            run(f"int main() {{ return {call}; }}")
        assert str(info.value).startswith(message)

    def test_abs_of_int_min_wraps(self):
        assert run("int main() { return abs(-2147483648); }"
                   ).return_value == -2147483648
        assert run("int main() { return abs(-2147483647); }"
                   ).return_value == 2147483647

    def test_type_checker_reads_the_same_arities(self):
        from repro.cir import check_program
        messages = [d.message for d in check_program(parse(
            "int main() { return min() + abs(1, 2) + max(3); }"))]
        assert "min() expects at least 1 argument(s)" in messages
        assert "abs() expects 1 argument(s)" in messages
        assert not any("max()" in message for message in messages)


class TestOperandTypeErrors:
    @pytest.mark.parametrize("body,message", [
        ("int *p = &a[0]; return p < 3;",
         "invalid operands to <: pointer and int"),
        ('return "a" + 1;', "invalid operands to +: string and int"),
        ("int *p = &a[0]; return 1 - p;",
         "invalid operands to -: int and pointer"),
        ("int *p = &a[0]; int *q = &a[1]; return q - p;",
         "invalid operands to -: pointer and pointer"),
        ('return "a" & 1;', "invalid operands to &: string and int"),
        ("return a * 2;", "invalid operands to *: array and int"),
        ("int x = 1; x += a; return x;",
         "invalid operands to +: int and array"),
        ("return -a;", "invalid operands to -: array"),
        ('return ~"a";', "invalid operands to ~: string"),
    ])
    def test_raise_interp_error_naming_the_operator(self, body, message):
        with pytest.raises(InterpError) as info:
            run(f"int a[4]; int main() {{ {body} }}")
        assert str(info.value) == message


def test_break_outside_a_loop_is_an_interp_error():
    with pytest.raises(InterpError, match=r"break outside a loop in f\(\)"):
        run("void f() { break; } int main() { while (1) { f(); } }")
