"""Tests for the assembler and the instruction-set simulator."""

import hashlib
import json

import pytest

from repro.vp import AsmError, SoC, SoCConfig, assemble
from repro.vp.isa import AsmProgram, Instr


def run_core(asm, cycles=100_000, config=None):
    soc = SoC(config or SoCConfig(n_cores=1), {0: asm})
    soc.run(max_events=cycles)
    return soc


class TestAssembler:
    def test_labels_and_branches(self):
        program = assemble("""
        start:  li r1, 0
        loop:   addi r1, r1, 1
                li r2, 5
                blt r1, r2, loop
                halt
        """)
        assert program.label("start") == 0
        assert program.label("loop") == 1
        branch = program.instructions[3]
        assert branch.op == "blt" and branch.args[2] == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(AsmError, match="duplicate"):
            assemble("x: nop\nx: nop\n")

    def test_undefined_label_rejected(self):
        with pytest.raises(AsmError, match="undefined"):
            assemble("jmp nowhere\n")

    def test_bad_register(self):
        with pytest.raises(AsmError):
            assemble("li r99, 0\n")
        with pytest.raises(AsmError):
            assemble("li x1, 0\n")

    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError, match="unknown mnemonic"):
            assemble("frobnicate r1, r2\n")

    def test_memory_operand_forms(self):
        program = assemble("""
        lw r1, 8(r2)
        sw r1, (r3)
        lw r4, 100
        halt
        """)
        assert program.instructions[0].args == (1, 8, 2)
        assert program.instructions[1].args == (1, 0, 3)
        assert program.instructions[2].args == (4, 100, 0)

    def test_data_section(self):
        program = assemble("""
        halt
        .org 200
        table: .word 5 6 7
        """)
        assert program.data == {200: 5, 201: 6, 202: 7}
        assert program.label("table") == 200

    def test_label_as_immediate(self):
        program = assemble("""
        li r1, table
        halt
        .org 300
        table: .word 9
        """)
        assert program.instructions[0].args == (1, 300)

    def test_comments_and_hex(self):
        program = assemble("li r1, 0x10 ; hex\nli r2, 8 # dec\nhalt\n")
        assert program.instructions[0].args == (1, 16)


class TestIss:
    def test_arithmetic(self):
        soc = run_core("""
        li r1, 10
        li r2, 3
        add r3, r1, r2
        sub r4, r1, r2
        mul r5, r1, r2
        div r6, r1, r2
        sw r3, 0(r0)
        sw r4, 1(r0)
        sw r5, 2(r0)
        sw r6, 3(r0)
        halt
        """)
        assert [soc.mem(i) for i in range(4)] == [13, 7, 30, 3]

    def test_register_zero_hardwired(self):
        soc = run_core("li r0, 99\nsw r0, 0(r0)\nli r1, 1\nsw r1, 1(r0)\nhalt\n")
        assert soc.mem(0) == 0
        assert soc.mem(1) == 1

    def test_logic_and_shifts(self):
        soc = run_core("""
        li r1, 12
        li r2, 10
        and r3, r1, r2
        or  r4, r1, r2
        xor r5, r1, r2
        li r6, 2
        shl r7, r1, r6
        shr r8, r1, r6
        sw r3, 0(r0)
        sw r4, 1(r0)
        sw r5, 2(r0)
        sw r7, 3(r0)
        sw r8, 4(r0)
        halt
        """)
        assert [soc.mem(i) for i in range(5)] == [8, 14, 6, 48, 3]

    def test_compare_ops(self):
        soc = run_core("""
        li r1, 3
        li r2, 7
        slt r3, r1, r2
        seq r4, r1, r1
        slt r5, r2, r1
        sw r3, 0(r0)
        sw r4, 1(r0)
        sw r5, 2(r0)
        halt
        """)
        assert [soc.mem(i) for i in range(3)] == [1, 1, 0]

    def test_sltu_is_a_true_unsigned_compare(self):
        # -1 is 0xFFFFFFFF unsigned: larger than any small positive value.
        soc = run_core("""
        li r1, -1
        li r2, 1
        sltu r3, r1, r2   ; 0xFFFFFFFF < 1 ?  no
        sltu r4, r2, r1   ; 1 < 0xFFFFFFFF ?  yes
        li r5, -2
        sltu r6, r5, r1   ; 0xFFFFFFFE < 0xFFFFFFFF ?  yes
        sltu r7, r1, r5   ; 0xFFFFFFFF < 0xFFFFFFFE ?  no
        sltu r8, r0, r1   ; 0 < 0xFFFFFFFF ?  yes
        sw r3, 0(r0)
        sw r4, 1(r0)
        sw r6, 2(r0)
        sw r7, 3(r0)
        sw r8, 4(r0)
        halt
        """)
        assert [soc.mem(i) for i in range(5)] == [0, 1, 1, 0, 1]

    def test_div_truncates_toward_zero(self):
        soc = run_core("""
        li r1, -7
        li r2, 2
        div r3, r1, r2    ; -7 / 2  = -3 (toward zero, not floor's -4)
        li r4, 7
        li r5, -2
        div r6, r4, r5    ;  7 / -2 = -3
        sw r3, 0(r0)
        sw r6, 1(r0)
        halt
        """)
        assert soc.mem(0) == -3
        assert soc.mem(1) == -3

    def test_div_helper_is_exact_beyond_float_precision(self):
        # Regression: int(a / b) detours through a float, losing the low
        # bits of operands beyond 2**53.  Registers are now truly 32 bits
        # wide, so such operands can no longer reach an architectural
        # div -- the guard lives on at the helper level.
        from repro.vp.isa import _div_trunc
        a = 2 ** 60 + 1
        assert _div_trunc(a, 3) == a // 3
        assert _div_trunc(-a, 3) == -(a // 3)
        assert _div_trunc(a, 3) != int(a / 3)  # the float detour is wrong

    def test_li_out_of_range_immediate_wraps_to_signed_32(self):
        # A register is 32 bits: an immediate past the word wraps to its
        # signed two's-complement image instead of growing unbounded.
        a = 2 ** 60 + 1
        soc = run_core(f"""
        li r1, {a}
        li r2, {-a}
        li r3, {2 ** 31}
        li r4, 0x80000000
        sw r1, 0(r0)
        sw r2, 1(r0)
        sw r3, 2(r0)
        sw r4, 3(r0)
        halt
        """)
        assert soc.mem(0) == 1           # (2**60 + 1) mod 2**32
        assert soc.mem(1) == -1
        assert soc.mem(2) == -(2 ** 31)  # INT_MIN, not +2**31
        assert soc.mem(3) == -(2 ** 31)

    def test_loop_sum(self):
        soc = run_core("""
            li r1, 0      ; sum
            li r2, 0      ; i
            li r3, 10
        loop:
            add r1, r1, r2
            addi r2, r2, 1
            blt r2, r3, loop
            sw r1, 50(r0)
            halt
        """)
        assert soc.mem(50) == sum(range(10))

    def test_call_and_return(self):
        soc = run_core("""
            li r1, 21
            jal double
            sw r2, 0(r0)
            halt
        double:
            add r2, r1, r1
            ret
        """)
        assert soc.mem(0) == 42

    def test_swap_is_atomic_exchange(self):
        soc = run_core("""
            li r1, 7
            sw r1, 10(r0)
            li r2, 99
            swap r2, 10(r0)
            sw r2, 11(r0)
            halt
        """)
        assert soc.mem(10) == 99
        assert soc.mem(11) == 7

    def test_division_by_zero_raises(self):
        with pytest.raises(RuntimeError, match="division by zero"):
            run_core("li r1, 1\nli r2, 0\ndiv r3, r1, r2\nhalt\n")

    def test_pc_out_of_range_raises(self):
        with pytest.raises(RuntimeError, match="outside program"):
            run_core("li r1, 0\njmp 500\n")

    def test_cycle_costs(self):
        soc = run_core("li r1, 1\nmul r2, r1, r1\nlw r3, 0(r0)\nhalt\n")
        core = soc.cores[0]
        # li(1) + mul(3) + lw(2) + halt(1) = 7 cycles.
        assert core.cycle_count == 7
        assert core.instr_count == 4

    def test_interrupt_vector_and_iret(self):
        config = SoCConfig(n_cores=1, irq_vector=8)
        asm = """
            li r2, 0x8101   ; timer period reg
            li r3, 20
            sw r3, 0(r2)    ; period = 20
            li r3, 1
            sw r3, 4095(r0) ; scratch marker (unused)
            sw r3, 0x8100(r0) ; wrong abs form? use register path below
            ei
        spin:
            jmp spin
            nop
        isr:
            li r4, 0x8103
            sw r0, 0(r4)    ; clear timer status (deasserts irq)
            li r5, 77
            sw r5, 60(r0)
            halt
        """
        # Rebuild cleanly: compute addresses via registers.
        asm = """
            li r2, 0x8100
            li r3, 20
            sw r3, 1(r2)    ; PERIOD = 20
            li r3, 1
            sw r3, 0(r2)    ; CTRL = enable
            ei
        spin:
            jmp spin
        isr:
            li r4, 0x8103
            sw r0, 0(r4)
            li r5, 77
            sw r5, 60(r0)
            halt
        """
        program = assemble(asm)
        config = SoCConfig(n_cores=1, irq_vector=program.label("isr"))
        soc = SoC(config, {0: program})
        # Route timer0 irq into core0's interrupt controller, line 0.
        soc.intcs[0].add_source(0, soc.timers[0].irq)
        soc.intcs[0].write(1, 1)  # unmask line 0
        soc.run(max_events=10_000)
        assert soc.mem(60) == 77
        assert soc.cores[0].halted


class TestMultiCore:
    def test_semaphore_protects_counter(self):
        asm = """
            li r1, 100
            li r2, 0
            li r3, 20
            li r4, 0x8000
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
        soc = SoC(SoCConfig(n_cores=2), {0: asm, 1: asm})
        soc.run()
        assert soc.mem(100) == 40

    def test_unprotected_counter_races_deterministically(self):
        asm = """
            li r1, 100
            li r2, 0
            li r3, 20
        loop:
            lw r6, 0(r1)
            addi r6, r6, 1
            sw r6, 0(r1)
            addi r2, r2, 1
            blt r2, r3, loop
            halt
        """
        values = []
        for _ in range(3):
            soc = SoC(SoCConfig(n_cores=2), {0: asm, 1: asm})
            soc.run()
            values.append(soc.mem(100))
        assert values[0] < 40          # updates were lost
        assert len(set(values)) == 1   # but deterministically so


class TestImmediateRangeAudit:
    """Assemble-time canonicalization: data immediates wrap to the
    signed-32 word, control-flow targets are validated -- a fuzzed
    program can never mean different things on different paths."""

    def test_li_and_addi_wrap_at_assemble_time(self):
        program = assemble(f"""
            li r1, {2 ** 32 + 5}
            addi r2, r0, {-(2 ** 32) - 7}
            halt
        """)
        assert program.instructions[0].args == (1, 5)
        assert program.instructions[1].args == (2, 0, -7)

    def test_memory_offsets_wrap_at_assemble_time(self):
        # A 2**32+12 offset is the same word as 12: the store must land
        # at address 12 on every backend.
        soc = run_core(f"""
            li r1, 77
            sw r1, {2 ** 32 + 12}(r0)
            halt
        """)
        assert soc.mem(12) == 77

    def test_swap_offset_wraps_like_lw_sw(self):
        program = assemble(f"swap r1, {2 ** 32 + 3}(r2)\nhalt\n")
        assert program.instructions[0].args == (1, 3, 2)

    def test_word_directive_wraps_to_signed_32(self):
        soc = run_core(f"""
            lw r1, 64(r0)
            sw r1, 10(r0)
            halt
            .org 64
            .word {0xFFFFFFFF}
        """)
        assert soc.mem(10) == -1

    def test_org_rejects_negative_address(self):
        with pytest.raises(AsmError, match="negative"):
            assemble(".org -4\n.word 1\n")

    @pytest.mark.parametrize("target", [2 ** 31, -1, 2 ** 40])
    def test_branch_targets_out_of_range_rejected(self, target):
        with pytest.raises(AsmError, match="out of range"):
            assemble(f"beq r0, r0, {target}\nhalt\n")

    @pytest.mark.parametrize("op", ["jmp", "jal"])
    def test_jump_targets_out_of_range_rejected(self, op):
        with pytest.raises(AsmError, match="out of range"):
            assemble(f"{op} {2 ** 31}\n")
        with pytest.raises(AsmError, match="out of range"):
            assemble(f"{op} -1\n")

    def test_numeric_in_range_targets_still_work(self):
        # Canonical instruction indices remain legal numeric operands.
        soc = run_core("""
            jmp 2
            halt
            li r1, 9
            sw r1, 20(r0)
            halt
        """)
        assert soc.mem(20) == 9

    def test_out_of_program_target_still_faults_at_runtime(self):
        # The audit rejects *unencodable* targets; a target past the end
        # of this particular program is a runtime fault, as before.
        with pytest.raises(RuntimeError, match="pc"):
            run_core("jmp 100\n")


# ---------------------------------------------------------------------------
# reference semantics, pinned per op
# ---------------------------------------------------------------------------

# Operand values every case starts from: INT_MIN, -1, 7, -3, 33, INT_MAX
# and 32 (shift amounts past 31 and negative ones exercise the masking).
_PRELUDE = """
    li r1, -2147483648
    li r2, -1
    li r3, 7
    li r4, -3
    li r5, 33
    li r6, 2147483647
    li r7, 32
"""

_THREE_REG_BODY = """
    {op} r8, r1, r2     ; INT_MIN op -1
    {op} r9, r3, r4
    {op} r10, r6, r3
    {op} r11, r4, r5
    {op} r12, r0, r3    ; r0 as a source
    {op} r13, r3, r7
    {op} r0, r3, r4     ; r0 as the destination: dropped
    {op} r14, r2, r1
    {op} r15, r6, r6
    halt
"""

_BRANCH_BODY = """
    {op} r3, r4, t1
    addi r8, r8, 1
t1: {op} r1, r2, t2
    addi r9, r9, 1
t2: {op} r0, r0, t3
    addi r10, r10, 1
t3: {op} r2, r0, t4
    addi r11, r11, 1
t4: {op} r6, r1, t5
    addi r12, r12, 1
t5: halt
"""

_OP_CASES = {
    **{op: _THREE_REG_BODY.format(op=op)
       for op in ("add", "sub", "mul", "div", "and", "or", "xor", "shl",
                  "shr", "slt", "sltu", "seq")},
    **{op: _BRANCH_BODY.format(op=op) for op in ("beq", "bne", "blt", "bge")},
    "div_by_zero": "    nop\n    div r8, r3, r0\n    halt\n",
    "div_by_zero_into_r0": "    div r0, r3, r0\n    halt\n",
    "addi": """
    addi r8, r6, 1      ; INT_MAX + 1 wraps
    addi r9, r1, -1     ; INT_MIN - 1 wraps
    addi r10, r0, 5
    addi r0, r3, 5
    addi r11, r4, 0
    halt
""",
    "li": """
    li r8, 5
    li r9, -5
    li r0, 9
    li r10, 0x7fffffff
    li r11, 0x80000000
    halt
""",
    "mov": "    mov r8, r1\n    mov r9, r0\n    mov r0, r3\n"
           "    mov r10, r4\n    halt\n",
    "memory": """
    sw r1, 100(r0)
    sw r3, -1(r7)       ; address 31
    sw r0, 101(r0)
    sw r4, 102(r0)
    lw r8, 100(r0)
    lw r9, 70(r7)       ; address 102
    lw r0, 31(r0)
    lw r10, 31(r0)
    swap r3, 100(r0)
    swap r0, 31(r0)
    swap r11, 102(r0)
    halt
""",
    "jumps": """
    jal f
    addi r8, r8, 1
    li r10, back
    jr r10
    addi r8, r8, 100
back:
    jmp end
    addi r8, r8, 1000
f:
    mov r9, r14
    ret
end:
    halt
""",
    "nop": "    nop\n    nop\n    halt\n",
    "halt": "    halt\n    nop\n",
    "ei_di": "    ei\n    di\n    ei\n    halt\n",
    "iret_outside_isr": "    nop\n    iret\n    halt\n",
    "irq": """
    li r2, 0x8100
    li r3, 40
    sw r3, 1(r2)        ; timer period
    li r3, 3
    sw r3, 0(r2)        ; timer enable, auto-reload
    ei
    li r5, 0
    li r6, 60
spin:
    addi r5, r5, 1
    blt r5, r6, spin
    di
    li r5, 0
masked:
    addi r5, r5, 1
    blt r5, r6, masked
    ei
    sw r0, 0(r2)        ; timer off
    halt
isr:
    lw r9, 200(r0)
    addi r9, r9, 1
    sw r9, 200(r0)
    li r4, 0x8103
    sw r0, 0(r4)        ; ack timer status
    li r4, 0x8402
    li r3, 1
    sw r3, 0(r4)        ; ack intc line 0
    iret
""",
}

# Recorded with the if-chain `Cpu._execute` that the op table replaced.
_OP_DIGESTS = {
    "add": "bbcee40019972c01",
    "addi": "60180533b1679a24",
    "and": "cab3fe933f6a36b5",
    "beq": "37445c5210bc51d1",
    "bge": "e1cbc5e32e20e056",
    "blt": "e1d6abb75aed614a",
    "bne": "cc97ca9bdbb47170",
    "div": "10faeb2a3774b867",
    "div_by_zero": "cdbf00a4e68df798",
    "div_by_zero_into_r0": "8157a9167beadd67",
    "ei_di": "097ea52256e6a6ef",
    "halt": "c3ee1779f3849e48",
    "iret_outside_isr": "f43a0c3e2ce8267b",
    "irq": "f9a45acf894b98b7",
    "jumps": "9700ccf238feed45",
    "li": "43c0f7fa19645601",
    "memory": "c07e798daf108449",
    "mov": "e5aa0e2de6b5d044",
    "mul": "d4314eced2538d98",
    "nop": "ee9b9a1485504af1",
    "or": "aecd246045599222",
    "seq": "19028b058a51ebb1",
    "shl": "bec2dc365f399941",
    "shr": "b5262d8e077bd802",
    "slt": "53d30d664c04a607",
    "sltu": "7eb1b9971a034124",
    "sub": "92f84de78a0a674d",
    "xor": "498785f98a78cd93",
}


def _reference_end_state(name):
    """Run one case on the reference backend and collect everything it
    can observe: a per-instruction trace, the irq hook calls, the final
    core state, RAM, kernel time and event count, and the fault text."""
    program = assemble(_PRELUDE + _OP_CASES[name])
    config = SoCConfig(n_cores=1, backend="reference",
                       irq_vector=program.labels.get("isr"))
    soc = SoC(config, {0: program})
    core = soc.cores[0]
    if name == "irq":
        soc.intcs[0].add_source(0, soc.timers[0].irq)
        soc.intcs[0].write(1, 1)
    trace = []
    core.add_post_instr_hook(lambda cpu, instr: trace.append(
        [instr.op, cpu.pc, list(cpu.regs), cpu.interrupts_enabled,
         cpu.in_isr]))
    core.add_irq_hook(lambda cpu, kind: trace.append(
        [kind, cpu.pc, cpu.epc, cpu.in_isr, cpu.cycle_count]))
    error = None
    try:
        soc.run(max_events=20_000)
    except RuntimeError as exc:
        error = str(exc)
    state = {
        "trace": trace, "error": error, "pc": core.pc,
        "regs": list(core.regs), "halted": core.halted,
        "ie": core.interrupts_enabled, "in_isr": core.in_isr,
        "epc": core.epc, "cycles": core.cycle_count,
        "instrs": core.instr_count, "now": soc.sim.now,
        "events": soc.sim.event_count,
        "ram": {a: w for a, w in enumerate(soc.ram.words) if w}}
    blob = json.dumps(state, sort_keys=True)
    return state, hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestReferenceSemanticsPinned:
    """Every assembler op on the reference backend, digest-pinned against
    the semantics the op table replaced (the oracle must not move)."""

    @pytest.mark.parametrize("name", sorted(_OP_CASES))
    def test_end_state_digest(self, name):
        state, digest = _reference_end_state(name)
        assert digest == _OP_DIGESTS[name], state

    def test_cases_cover_every_assembler_op(self):
        from repro.vp.isa import LOCAL_OPS, MEMORY_OPS, NO_ARG_OPS
        covered = {instr.op for name in _OP_CASES
                   for instr in assemble(_PRELUDE + _OP_CASES[name])
                   .instructions}
        assert covered == LOCAL_OPS | MEMORY_OPS | NO_ARG_OPS

    def test_op_table_covers_exactly_the_assembler_ops(self):
        # A new op cannot assemble without reference semantics.
        from repro.vp.iss import _OPS
        from repro.vp.isa import LOCAL_OPS, MEMORY_OPS, NO_ARG_OPS
        assert set(_OPS) == LOCAL_OPS | MEMORY_OPS | NO_ARG_OPS

    def test_unknown_op_raises(self):
        program = AsmProgram(instructions=(Instr("nop"), Instr("bogus")))
        soc = SoC(SoCConfig(n_cores=1, backend="reference"), {0: program})
        with pytest.raises(RuntimeError) as info:
            soc.run(max_events=100)
        assert str(info.value) == "core0: unknown op 'bogus'"

    def test_spot_values(self):
        # Readable anchors for a few of the digests above.
        div, _ = _reference_end_state("div")
        assert div["regs"][8] == -2 ** 31          # INT_MIN / -1 wraps
        assert div["regs"][0] == 0
        shl, _ = _reference_end_state("shl")
        assert shl["regs"][11] == -6               # -3 << (33 & 31)
        assert shl["regs"][13] == 7                # 7 << (32 & 31)
        sltu, _ = _reference_end_state("sltu")
        assert sltu["regs"][9] == 1                # 7 <u 0xFFFFFFFD
        zero, _ = _reference_end_state("div_by_zero")
        assert zero["error"] == "core0: division by zero at pc=8"
        halt, _ = _reference_end_state("halt")
        assert halt["halted"] and halt["pc"] == 8  # halt retires past itself
        irq, _ = _reference_end_state("irq")
        assert irq["ram"][200] > 0
        assert {entry[0] for entry in irq["trace"]} >= {"enter", "iret"}
        bad, _ = _reference_end_state("iret_outside_isr")
        assert bad["error"] == "core0: iret outside ISR"
