"""Pinned fuzz regressions + the shrink-to-regression pipeline proof.

Every divergence the fuzzer finds lands here twice: once as the fix in
the code under test, once as a shrinker-minimized scenario asserting
the four execution paths (the mini-C interpreter and the reference,
compiled and vector ISS backends) agree forever after.

The development campaign for this harness (200 seeds x interp + every
ISS backend) found **no backend divergence** -- but it did catch two bugs
in the *harness's own* early scenario generator, pinned below:

1. an ``iret``-style ISR that acked the timer but not the INTC; the
   INTC latches edges, so the core-facing line stayed high and ``iret``
   re-entered the ISR forever (``test_regression_irq_oneshot_iret``);
2. non-terminating programs truncate at the event cutoff at *different
   architectural points per backend* and masquerade as divergences;
   the harness now rejects them loudly
   (``test_nonterminating_scenario_is_rejected_not_diverged``).

The pipeline itself is proven against a planted backend bug: ``xor`` is
broken in the superblock emitter of :mod:`repro.vp.jit` (the reference
path executes its own ops, and the emitter is the one implementation
behind both batching tiers, so exactly the compiled and vector legs
drift), then the real harness finds it, the real shrinker minimizes it,
and the emitted regression pins it.
"""

import random

import pytest

import repro.vp.jit as jit
import repro.vp.soc as soc_module
from repro.gen import (
    compare_scenario,
    differential_job,
    emit_regression_test,
    generate_scenario,
    run_firmware_leg,
    shrink_scenario,
)


@pytest.fixture
def broken_jit_xor():
    """Plant a wrong ``xor`` in the superblock emitter: every compiled
    ``xor`` into a real register flips the result's low bit.

    Compiled blocks are cached on each program for the life of the
    process, so the SoC program memo (whose programs carry their
    superblocks) is emptied on entry and on exit: no block compiled by
    the healthy emitter is reused inside, and no planted-bug block
    outlives the fixture."""
    good = jit._Emitter.emit

    def emit(self, instr, pc, fault_charge, fault_writeback):
        good(self, instr, pc, fault_charge, fault_writeback)
        rd = instr.args[0] if instr.op == "xor" else 0
        if rd:
            self.body.append(f"r{rd} = r{rd} ^ 1")

    soc_module._program_of.cache_clear()
    jit._Emitter.emit = emit
    try:
        yield
    finally:
        jit._Emitter.emit = good
        soc_module._program_of.cache_clear()


class TestShrinkToRegressionPipeline:
    def test_planted_bug_is_found_shrunk_and_pinned(self, broken_jit_xor):
        # 1. the fuzzer finds the planted bug within a handful of seeds
        found = None
        for seed in range(20):
            result = differential_job({"kind": "firmware"}, seed)
            if result["diverged"]:
                found = result
                break
        assert found is not None, "planted xor bug not found in 20 seeds"
        assert {m["backend"] for m in found["mismatches"]} == \
            {"compiled", "vector"}

        # 2. the shrinker minimizes it while re-checking every edit
        scenario = found["scenario"]
        original_lines = sum(len(p.splitlines())
                             for p in scenario["programs"].values())
        shrunk = shrink_scenario(scenario)
        shrunk_lines = sum(len(p.splitlines())
                           for p in shrunk["programs"].values())
        assert shrunk_lines < original_lines
        assert shrunk_lines <= 6, shrunk["programs"]
        assert any("xor" in p for p in shrunk["programs"].values())
        assert compare_scenario(shrunk)["diverged"]

        # 3. the emitted regression is valid pinned-test source
        text = emit_regression_test(shrunk, "planted_xor")
        compile(text, "<regression>", "exec")
        assert repr(shrunk) in text

    def test_planted_bug_scenario_is_clean_after_unpatch(self):
        # The same seeds that diverge under the planted bug must be
        # equivalent on the healthy tree -- the post-fix half of the
        # pipeline's contract.
        for seed in range(5):
            result = differential_job({"kind": "firmware"}, seed)
            assert not result["diverged"], (seed, result["mismatches"])

    def test_healthy_scenario_refuses_to_shrink(self):
        with pytest.raises(ValueError):
            shrink_scenario(generate_scenario(0))


class TestHarnessSelfChecks:
    def test_nonterminating_scenario_is_rejected_not_diverged(self):
        # Development find #2: truncated runs land at different
        # architectural points per backend; comparing them would report
        # false divergences, so the harness must reject the scenario.
        scenario = {"kind": "firmware", "n_cores": 1, "quantum": 64,
                    "ram_words": 2048, "irq": None,
                    "programs": {"0": "spin:\n    jmp spin\n"}}
        with pytest.raises(ValueError, match="did not terminate"):
            compare_scenario(scenario)


# ---------------------------------------------------------------------------
# pinned minimized regressions
# ---------------------------------------------------------------------------

# Minimized by repro.gen.shrink from the planted-xor hunt (seed 2 of the
# development campaign, 34 lines -> 3).  Kept pinned: this exact shape
# -- a batchable ALU op inside an irq scenario -- is the cheapest
# witness that every backend agrees on it.
PINNED_XOR_SCENARIO = {
    "kind": "firmware", "seed": 2, "family": "irq", "quantum": 128,
    "ram_words": 2048,
    "irq": {"isr_label": "isr", "core": 0, "timer": 0},
    "n_cores": 1,
    "programs": {"0": "    xor r1, r0, r6\n    halt\nisr:\n"},
}


def test_regression_pinned_xor():
    """Minimized by repro.gen.shrink; must stay equivalent."""
    report = compare_scenario(PINNED_XOR_SCENARIO)
    assert not report["diverged"], report["mismatches"]


# Development find #1, hand-minimized: a one-shot iret ISR must disable
# the timer, ack its STATUS *and* ack the INTC pending bit -- the INTC
# latches edges, so skipping the last write leaves the irq line high and
# iret re-enters the ISR forever.  The pinned program does all three and
# must terminate and stay equivalent on every backend.
PINNED_IRQ_ONESHOT = {
    "kind": "firmware", "seed": -1, "family": "irq", "quantum": 64,
    "ram_words": 2048,
    "irq": {"isr_label": "isr", "core": 0, "timer": 0},
    "n_cores": 1,
    "programs": {"0": """
    li r2, 0x8100
    li r3, 13
    sw r3, 1(r2)     ; timer period
    li r3, 1
    sw r3, 0(r2)     ; timer enable
    li r5, 0
    li r6, 400
spin:
    addi r9, r9, 1
    addi r5, r5, 1
    blt r5, r6, spin
    halt
isr:
    li r4, 0x8100
    sw r0, 0(r4)     ; disable timer: one-shot
    li r4, 0x8103
    sw r0, 0(r4)     ; ack timer status
    li r4, 0x8402
    li r3, 1
    sw r3, 0(r4)     ; ack intc line 0 (the latch!)
    iret
"""},
}


def test_regression_irq_oneshot_iret():
    """A fully-acked one-shot iret ISR terminates and is equivalent."""
    reference = run_firmware_leg(PINNED_IRQ_ONESHOT, "reference",
                                 quantum=1)
    assert reference["halted"] == [True]
    assert reference["ram"][90] == 0  # isr body is marker-free here
    report = compare_scenario(PINNED_IRQ_ONESHOT)
    assert not report["diverged"], report["mismatches"]


def test_regression_irq_scenarios_from_dev_campaign():
    """The two irq seeds that exposed the generator's missing-INTC-ack
    bug during development; as generated today they must terminate and
    stay equivalent."""
    for seed in (2, 12):
        scenario = generate_scenario(seed)
        assert scenario["family"] == "irq"
        leg = run_firmware_leg(scenario, "reference", quantum=1)
        assert all(leg["halted"]), f"seed {seed} no longer terminates"
        report = compare_scenario(scenario)
        assert not report["diverged"], (seed, report["mismatches"])


# Mini-C robustness find, shrunk: unbounded recursion overflowed the host
# Python stack and escaped as RecursionError instead of the documented
# InterpError.
PINNED_DEEP_RECURSION = "int f() { return f(); }\nint main() { return f(); }\n"


def test_regression_deep_recursion_raises_interp_error():
    from repro.cir import InterpError, Interpreter, parse
    interp = Interpreter(parse(PINNED_DEEP_RECURSION))
    with pytest.raises(InterpError, match="recursion too deep"):
        interp.run()
    # Shallow recursion is unaffected.
    program = parse("int f(int n) { if (n == 0) return 0; "
                    "return f(n - 1) + 1; }\nint main() { return f(50); }\n")
    assert Interpreter(program).run().return_value == 50


# Mini-C pointer writes: a store through ``&x`` used to update a second
# copy of ``x`` (a one-slot cell) that reads of ``x`` by name never saw.
# The expr fuzzer's pointer and out-parameter forms found it at 15 of
# the 200 seeds of the CI sweep; these are the hand-minimized shapes.
PINNED_POINTER_WRITES = [
    ("int main() { int x = 1; int *p = &x; *p = 5; return x; }", 5),
    ("int g;\nint main() { int *p = &g; *p = 7; return g; }", 7),
    ("void f(int *q) { *q = 3; }\n"
     "int main() { int x = 0; f(&x); return x; }", 3),
    ("int main() { int x = 2; int *p = &x; *p += 5; x = x + 1; "
     "return *p; }", 8),
    ("int main() { int x = 0; int *p = &x; *p = 2.5; return x; }", 2),
]


@pytest.mark.parametrize("source,expected", PINNED_POINTER_WRITES)
def test_regression_pointer_write_reaches_the_variable(source, expected):
    from repro.cir import parse, require_clean, run_program
    program = parse(source)
    require_clean(program)
    result = run_program(program)
    assert result.return_value == expected
    if "int g;" in source:
        assert result.globals == {"g": 7}


# A pointer to ``x`` taken before an inner block declares another ``x``
# used to read and write the inner one while that block ran: the inner
# declaration reused the outer one's ``env`` slot, so the first program
# printed [5] and returned 1.  C keeps addressing the outer ``x``.
PINNED_SHADOWED_POINTERS = [
    ("int main() { int x = 1; int *p = &x; "
     "{ int x = 2; *p = 5; print(x); } return x; }", [2], 5),
    ("int main() { int x = 1; int *p = &x; { int x = 2; int *q = &x; "
     "{ int x = 3; *p = 10; *q = 20; print(x); } print(x); } return x; }",
     [3, 20], 10),
    ("int main() { int i = 7; int *p = &i; int s = 0; "
     "for (int i = 0; i < 3; i++) { *p += 1; s += i; } print(s); "
     "return i; }", [3], 10),
    ("int f(int x) { int *p = &x; { int x = 4; *p = 9; print(x); } "
     "return x; }\nint main() { return f(1); }", [4], 9),
]


@pytest.mark.parametrize("source,output,expected", PINNED_SHADOWED_POINTERS)
def test_regression_pointer_keeps_its_shadowed_variable(source, output,
                                                        expected):
    from repro.cir import parse, require_clean, run_program
    program = parse(source)
    require_clean(program)
    result = run_program(program)
    assert (result.output, result.return_value) == (output, expected)


# Loop bodies the dependence analysis used to call parallel.  The first
# two touch one element every iteration (``A[3]`` takes the last
# iteration's value, ``H[0]`` a running sum); in the next two ``t`` is
# read before any definition on some path, once in a branch test; in the
# last the running sum ``s`` steers a branch, so it is no reduction.
# Each is a loop-carried dependence: the verdict is now SEQUENTIAL and
# its reasons name it.
PINNED_LOOP_VERDICTS = [
    ("H[0] += B[i];", "loop-carried flow dependence on 'H' "
                      "(same element every iteration)"),
    ("A[3] = B[i];", "loop-carried output dependence on 'A' "
                     "(same element every iteration)"),
    ("if (i % 3 == 0) { t = A[i]; } B[i] = t;", "loop-carried scalar 't'"),
    ("if (t > 5) { B[i] = 1; } t = A[i];", "loop-carried scalar 't'"),
    ("s += A[i]; if (s > 300) { B[i] = 1; }", "loop-carried scalar 's'"),
]


def _loop_info(body):
    from repro.cir import parse
    from repro.cir.analysis.dependence import analyze_loop, find_loops
    program = parse(
        "int A[48]; int B[48]; int H[4];\n"
        "int main() { int i; int t; int s; int c; c = 1;"
        f" for (i = 0; i < 48; i = i + 1) {{ {body} }} return 0; }}")
    return analyze_loop(find_loops(program.function("main").body)[0])


@pytest.mark.parametrize("body,reason", PINNED_LOOP_VERDICTS)
def test_regression_loop_carried_dependence_is_sequential(body, reason):
    from repro.cir.analysis.dependence import LoopClass
    info = _loop_info(body)
    assert info.classification is LoopClass.SEQUENTIAL
    assert reason in info.reasons
    assert not info.reductions


def test_regression_scalar_defined_on_every_path_stays_private():
    from repro.cir.analysis.dependence import LoopClass
    info = _loop_info("if (c) { t = A[i]; } else { t = 1; } B[i] = t;")
    assert info.classification is LoopClass.DOALL
    assert info.private_scalars == {"t"}
    assert not info.carried_scalars


# A ``break`` of the loop itself, or a ``return`` anywhere in it, ends
# the loop early: both were ignored, so such a loop was DOALL and split.
@pytest.mark.parametrize("body,reason", [
    ("if (A[i] == 20) { break; } B[i] = 1;",
     "a break leaves the loop early"),
    ("if (A[i] == 20) { return i; } B[i] = 1;",
     "a return leaves the loop early"),
])
def test_regression_early_exit_is_sequential(body, reason):
    from repro.cir.analysis.dependence import LoopClass
    info = _loop_info(body)
    assert info.classification is LoopClass.SEQUENTIAL
    assert info.reasons == [reason]


def test_regression_nested_break_and_continue_keep_the_loop_parallel():
    from repro.cir.analysis.dependence import LoopClass
    info = _loop_info("for (c = 0; c < 4; c = c + 1) "
                      "{ if (H[c] > 3) { break; } } "
                      "if (A[i] > 2) { continue; } B[i] = A[i];")
    assert info.classification is LoopClass.DOALL, info.reasons


# ``A[3] = B[i]`` was called DOALL and split; the generated ``main_par``
# emitted the tasks in the topological order of a graph with flow edges
# only, ``int i; return 0; for ...``, so it did no work, and the flow
# compared only the return value and the output.  Tasks now run in
# program order (each split loop's chunks last-first) and the globals
# are compared too.
CONSTANT_RETURN = """int A[48];
int B[48];
int main() { int i;
  for (i = 0; i < 48; i = i + 1) { B[i] = i * 5 + 2; }
  for (i = 0; i < 48; i = i + 1) { A[3] = B[i]; }
  return 0; }
"""


def test_regression_flow_validates_globals_in_program_order():
    from repro.maps import MapsFlow, PEClass, PlatformSpec
    platform = PlatformSpec("pair")
    platform.add_pe("pe0", PEClass.RISC)
    platform.add_pe("pe1", PEClass.RISC)
    report = MapsFlow(platform).run(CONSTANT_RETURN)
    sequential, parallel = report.sequential_result, report.parallel_result
    assert sequential.globals["A"][3] == 47 * 5 + 2
    assert parallel.globals == sequential.globals
    assert report.semantics_preserved


# Loop shapes the chunk split got wrong, each run on two RISC PEs
# (sequential vs ``main_par``): ``<=`` lost its last iteration (1128 vs
# 1081); a down-counting loop was split into chunks that did nothing
# (1176 vs 0); a step of 2 became a step of 1 (24 vs 48); a private
# ``t`` and the loop variable read after the loop took the first
# chunk's value (141 vs 69, 48 vs 24); a ``break`` or a ``return`` did
# not stop the other chunks (``A`` summed to 20 vs 44); ``for (int i
# ...)`` chunks lost the declaration ("undefined variable 'i'"); a body
# that wrote its loop's bound ``n`` was split at the bound's first value
# (``A`` summed to 10 vs 6); two reduction loops into one ``s`` shared
# their partials, so the second started from the first's (72 vs 66).
# The loop header is now read once
# (``counted_loop``), the chunks are built once (``chunk_loop``), early
# exits and written bounds are sequential, and a loop whose scalars are
# live after it stays unsplit; each split loop names its own partials.
# The value is how many loops MAPS splits.
# Only the ``decl`` shape has no ``int i`` outside its loops.
PINNED_SPLIT_SHAPES = {
    "le": ("int i;\n"
           "for (i = 0; i < 48; i = i + 1) { B[i] = i; }\n"
           "for (i = 0; i <= 46; i = i + 1) { A[i] = B[i] + 1; }\n"
           "for (i = 0; i < 48; i = i + 1) { s += A[i]; }\n"
           "return s;", 3),
    "down": ("int i;\n"
             "for (i = 47; i >= 0; i = i - 1) { A[i] = i + 1; }\n"
             "for (i = 0; i < 48; i = i + 1) { s += A[i]; }\n"
             "return s;", 1),
    "step2": ("int i;\n"
              "for (i = 0; i < 48; i = i + 2) { A[i] = 1; }\n"
              "for (i = 0; i < 48; i = i + 1) { s += A[i]; }\n"
              "return s;", 1),
    "last-private": ("int i;\n"
                     "for (i = 0; i < 48; i = i + 1) "
                     "{ t = i * 3; A[i] = t; }\n"
                     "return t;", 0),
    "var-after": ("int i;\n"
                  "for (i = 0; i < 48; i = i + 1) { A[i] = 1; }\n"
                  "return i;", 0),
    "break": ("int i;\n"
              "for (i = 0; i < 48; i = i + 1) { B[i] = i; }\n"
              "for (i = 0; i < 48; i = i + 1) "
              "{ if (B[i] == 20) { break; } A[i] = 1; }\n"
              "for (i = 0; i < 48; i = i + 1) { s += A[i]; }\n"
              "return s;", 2),
    "return": ("int i;\n"
               "for (i = 0; i < 48; i = i + 1) { B[i] = i; }\n"
               "for (i = 0; i < 48; i = i + 1) "
               "{ if (B[i] == 20) { return i; } A[i] = 1; }\n"
               "return 0;", 1),
    "decl": ("for (int i = 0; i < 48; i++) { A[i] = i; }\n"
             "for (int i = 0; i < 48; i++) { s += A[i]; }\n"
             "return s;", 2),
    "bound-written": ("int i;\nint n = 48;\n"
                      "for (i = 0; i < n; i = i + 1) { A[i] = 1; n = 10; }\n"
                      "return 0;", 0),
    "two-reductions": ("int i;\n"
                       "for (i = 0; i < 4; i = i + 1) { s += i; }\n"
                       "for (i = 0; i < 4; i = i + 1) { s += i * 10; }\n"
                       "return s;", 2),
}


def _split_shape(name):
    body, _split = PINNED_SPLIT_SHAPES[name]
    return ("int A[48];\nint B[48];\n"
            "int main() {\n int t;\n int s = 0;\n" + body + "\n}\n")


def _results(program):
    from repro.cir.interp import run_program
    result = run_program(program)
    return result.return_value, result.output, result.globals


@pytest.mark.parametrize("name", sorted(PINNED_SPLIT_SHAPES))
def test_regression_maps_split_keeps_the_results(name):
    from repro.maps import MapsFlow, PEClass, PlatformSpec
    platform = PlatformSpec("pair")
    platform.add_pe("pe0", PEClass.RISC)
    platform.add_pe("pe1", PEClass.RISC)
    report = MapsFlow(platform).run(_split_shape(name))
    assert report.semantics_preserved
    assert len(report.partition.parallelizable_tasks) == \
        PINNED_SPLIT_SHAPES[name][1]


@pytest.mark.parametrize("name", sorted(PINNED_SPLIT_SHAPES))
def test_regression_recoder_split_refuses_or_keeps_the_results(name):
    from repro.cir import parse
    from repro.recoder import (
        TransformError, split_loop, split_shared_vector,
    )
    source = _split_shape(name)
    expected = _results(parse(source))
    lines = [line for line, text in enumerate(source.splitlines(), 1)
             if text.startswith("for")]
    for line in lines:
        for transform, arg in [(split_loop, 2), (split_loop, 3),
                               (split_shared_vector, "A")]:
            program = parse(source)
            try:
                if transform is split_loop:
                    split_loop(program, "main", line, arg)
                else:
                    split_shared_vector(program, "main", arg, [line])
            except TransformError:
                continue
            assert _results(program) == expected, (line, transform, arg)
