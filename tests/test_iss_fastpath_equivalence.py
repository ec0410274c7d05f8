"""Differential tests: every batching ISS backend must be cycle-exact
against the ``quantum=1`` reference path.

Every scenario runs the same firmware once per backend -- the reference
(``quantum=1``, the historical one-event-per-instruction behavior), the
superblock-compiled backend and the lane-lockstep vector backend -- and
asserts identical final ``CoreState``, ``cycle_count``, ``instr_count``,
final simulation time, RAM image, and the exact bus access *sequence*
(order included).  Scenarios cover randomized straight-line/branchy/
loopy/overflowing programs, loads/stores, multi-core races on shared
memory, timer interrupts, and active stall hooks.

Set ``REPRO_ISS_BACKEND=compiled`` or ``=vector`` to restrict
the batching side of the comparison to one backend (the CI equivalence
matrix); ``=reference`` degrades the suite to a reference-path smoke run.
"""

from __future__ import annotations

import os
import random

from repro.vp import HardwareProbe, SoC, SoCConfig, assemble
from repro.vp.soc import SEM_BASE

FAST_QUANTUM = 64

# The batching backends under test, optionally filtered by the CI matrix.
_FILTER = os.environ.get("REPRO_ISS_BACKEND")
BATCHING_BACKENDS = [name for name in ("compiled", "vector")
                     if _FILTER in (None, "", name)]

# Fields a batching run must reproduce bit-for-bit.
_COMPARED = ("states", "cycles", "instrs", "pc_signals", "now", "ram",
             "accesses")


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _run_one(programs, n_cores, quantum, irq_vector=None, setup=None,
             probe_core=None, max_events=500_000, backend="compiled"):
    config = SoCConfig(n_cores=n_cores, quantum=quantum,
                       irq_vector=irq_vector, backend=backend)
    soc = SoC(config, dict(programs))
    accesses = []
    soc.bus.observe(
        lambda kind, addr, value, master: accesses.append(
            (kind, addr, value, master)))
    if probe_core is not None:
        probe = HardwareProbe(soc, core_id=probe_core, monitor_overhead=1.0)
        probe.add_breakpoint(2)
    if setup is not None:
        setup(soc)
    soc.run(max_events=max_events)
    return {
        "states": [core.state() for core in soc.cores],
        "cycles": [core.cycle_count for core in soc.cores],
        "instrs": [core.instr_count for core in soc.cores],
        "pc_signals": [core.pc_signal.read() for core in soc.cores],
        "now": soc.sim.now,
        "ram": [soc.mem(i) for i in range(128)],
        "accesses": accesses,
    }


def assert_equivalent(programs, n_cores=1, irq_vector=None, setup=None,
                      probe_core=None):
    ref = _run_one(programs, n_cores, 1, irq_vector, setup, probe_core,
                   backend="reference")
    fast = ref
    for backend in BATCHING_BACKENDS:
        fast = _run_one(programs, n_cores, FAST_QUANTUM, irq_vector, setup,
                        probe_core, backend=backend)
        for field in _COMPARED:
            assert fast[field] == ref[field], \
                f"backend {backend!r} diverged on {field}"
    return ref, fast


# ---------------------------------------------------------------------------
# random program generator (always terminates, never faults)
# ---------------------------------------------------------------------------

_ALU = ["add", "sub", "mul", "and", "or", "xor", "slt", "sltu", "seq"]
_DATA_REGS = list(range(1, 10))  # r1..r9; r10 divisor, r11 shift, r12/13 loop


def random_program(rng: random.Random, n_segments: int = 8) -> str:
    lines = []
    subs = []
    uid = 0

    def reg():
        return f"r{rng.choice(_DATA_REGS)}"

    def alu_line():
        op = rng.choice(_ALU)
        src = rng.choice(["r0"] + [f"r{i}" for i in range(1, 12)])
        return f"    {op} {reg()}, {reg()}, {src}"

    # Prologue: seed the register file (negatives included), a guaranteed
    # non-zero divisor in r10 and a small shift amount in r11.
    for index in _DATA_REGS:
        lines.append(f"    li r{index}, {rng.randint(-5000, 5000)}")
    lines.append(f"    li r10, {rng.choice([-7, -3, 2, 3, 7, 11])}")
    lines.append(f"    li r11, {rng.randint(0, 3)}")

    for _ in range(n_segments):
        uid += 1
        kind = rng.choice(["alu", "alu", "div", "shift", "mem", "loop",
                           "fwd", "call", "ovf", "ovf"])
        if kind == "alu":
            for _ in range(rng.randint(2, 8)):
                lines.append(alu_line())
        elif kind == "ovf":
            # Overflow stress: seed word-edge constants, then chain the
            # wrapping ops so intermediate values cross +/-2**31 and
            # multiplication products blow far past 2**32.
            edge = rng.choice([2**31 - 1, -2**31, 2**31 - 17,
                               -(2**31 - 5), 0x7FFF0000, 123456789])
            lines.append(f"    li {reg()}, {edge}")
            for _ in range(rng.randint(2, 6)):
                op = rng.choice(["add", "sub", "mul", "mul"])
                lines.append(f"    {op} {reg()}, {reg()}, {reg()}")
        elif kind == "div":
            lines.append(f"    div {reg()}, {reg()}, r10")
        elif kind == "shift":
            lines.append(f"    {rng.choice(['shl', 'shr'])} "
                         f"{reg()}, {reg()}, r11")
        elif kind == "mem":
            for _ in range(rng.randint(1, 4)):
                address = rng.randint(0, 63)
                op = rng.choice(["sw", "lw", "swap"])
                lines.append(f"    {op} {reg()}, {address}(r0)")
        elif kind == "loop":
            trips = rng.randint(2, 6)
            lines.append("    li r12, 0")
            lines.append(f"    li r13, {trips}")
            lines.append(f"loop{uid}:")
            for _ in range(rng.randint(1, 4)):
                lines.append(alu_line())
            lines.append("    addi r12, r12, 1")
            lines.append(f"    blt r12, r13, loop{uid}")
        elif kind == "fwd":
            op = rng.choice(["beq", "bne", "blt", "bge"])
            lines.append(f"    {op} {reg()}, {reg()}, fwd{uid}")
            for _ in range(rng.randint(1, 3)):
                lines.append(alu_line())
            lines.append(f"fwd{uid}: nop")
        else:  # call
            lines.append(f"    jal sub{uid}")
            subs.append(f"sub{uid}:")
            subs.append(alu_line())
            subs.append("    ret")

    # Epilogue: spill results, halt, then the subroutine bodies.
    for offset, index in enumerate(_DATA_REGS):
        lines.append(f"    sw r{index}, {100 + offset}(r0)")
    lines.append("    halt")
    lines.extend(subs)
    return "\n".join(lines) + "\n"


class TestRandomizedDifferential:
    def test_single_core_random_programs(self):
        for seed in range(12):
            rng = random.Random(seed)
            asm = random_program(rng)
            assert_equivalent({0: assemble(asm)})

    def test_two_core_random_programs_share_memory(self):
        # Both cores hammer the same low RAM addresses: the bus access
        # sequence (a total order over both masters) must be identical.
        for seed in range(8):
            rng = random.Random(1000 + seed)
            programs = {0: assemble(random_program(rng)),
                        1: assemble(random_program(rng))}
            assert_equivalent(programs, n_cores=2)

    def test_homogeneous_random_programs_on_four_cores(self):
        # The vector backend's home turf: every core runs the *same*
        # AsmProgram instance, so the lanes group and retire superblock
        # batches in lockstep -- yet the bus access sequence (a total
        # order over all four masters) and every final state must stay
        # bit-identical to quantum=1.
        for seed in (2000, 2001, 2002):
            rng = random.Random(seed)
            asm = assemble(random_program(rng))
            assert_equivalent({i: asm for i in range(4)}, n_cores=4)

    def test_random_programs_under_stall_hook(self):
        # An intrusive probe (stall hook + forced sync) must behave the
        # same whether or not the fast path is configured.
        for seed in (3, 7):
            rng = random.Random(seed)
            asm = assemble(random_program(rng))
            assert_equivalent({0: asm}, probe_core=0)


RACY = """
    li r1, 100
    li r2, 0
    li r3, 25
loop:
    lw r6, 0(r1)
    addi r6, r6, 1
    sw r6, 0(r1)
    addi r2, r2, 1
    blt r2, r3, loop
    halt
"""

SPINLOCK = f"""
    li r1, 100
    li r2, 0
    li r3, 10
    li r4, {SEM_BASE}
loop:
acq:
    lw r5, 0(r4)
    bne r5, r0, acq
    lw r6, 0(r1)
    addi r6, r6, 1
    sw r6, 0(r1)
    sw r0, 0(r4)
    addi r2, r2, 1
    blt r2, r3, loop
    halt
"""


class TestConcurrencyDifferential:
    def test_lost_update_race_is_bit_identical(self):
        # The E11 Heisenbug workload: the *same* updates must be lost in
        # the same order with batching enabled.
        ref, fast = assert_equivalent({0: RACY, 1: RACY}, n_cores=2)
        assert ref["ram"][100] < 50  # the race actually fired

    def test_semaphore_workload_is_bit_identical(self):
        ref, _ = assert_equivalent({0: SPINLOCK, 1: SPINLOCK}, n_cores=2)
        assert ref["ram"][100] == 20  # and the lock actually protected


INTERRUPT_ASM = """
    li r2, 0x8100
    li r3, 30
    sw r3, 1(r2)    ; timer period = 30
    li r3, 1
    sw r3, 0(r2)    ; timer enable
    li r5, 0
    li r6, 2000
    di
warm:               ; long batched stretch with the window closed
    add r7, r5, r6
    xor r8, r7, r6
    addi r5, r5, 1
    blt r5, r6, warm
    ei
spin:
    addi r9, r9, 1
    jmp spin
isr:
    li r4, 0x8103
    sw r0, 0(r4)    ; ack timer (deasserts irq)
    li r5, 77
    sw r5, 60(r0)
    halt
"""


class TestInterruptDifferential:
    def test_timer_interrupt_entry_is_cycle_exact(self):
        program = assemble(INTERRUPT_ASM)

        def route(soc):
            soc.intcs[0].add_source(0, soc.timers[0].irq)
            soc.intcs[0].write(1, 1)  # unmask line 0

        ref, fast = assert_equivalent(
            {0: program}, irq_vector=program.label("isr"), setup=route)
        assert ref["ram"][60] == 77
        assert ref["states"][0].halted
