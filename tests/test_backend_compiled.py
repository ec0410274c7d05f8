"""Unit and differential tests for the superblock-compiled ISS backend
(:mod:`repro.vp.jit`) and the 32-bit address-escape audit pins.

The equivalence and CIR-differential suites already prove the compiled
backend bit-identical on whole workloads; this file pins the machinery
itself -- block formation, the lazy cache,
fault cycle-exactness -- plus the audited corners where an unbounded
register could once have leaked a >32-bit value into the bus or the pc:
every escape now faults (or wraps) identically on every backend.
"""

from __future__ import annotations

import pytest

from repro.vp import SoC, SoCConfig, assemble
from repro.vp.bus import BusError
from repro.vp.iss import BACKENDS, Cpu, DEFAULT_BACKEND, decode_program
from repro.vp.jit import (BlockFault, MAX_BLOCK_INSTRS, SuperBlockCache,
                         compile_superblock)

ALL_RUNS = [("reference", 1), ("compiled", 64), ("vector", 64)]


def _soc(asm, backend, quantum, n_cores=1):
    return SoC(SoCConfig(n_cores=n_cores, backend=backend,
                         quantum=quantum), {0: asm})


# ---------------------------------------------------------------------------
# block formation
# ---------------------------------------------------------------------------

class TestBlockFormation:
    def test_block_ends_at_sync_boundary(self):
        decoded = decode_program(assemble(
            "li r1, 1\naddi r1, r1, 1\nsw r1, 0(r0)\nhalt\n"))
        block = decoded.superblocks().get(0)
        assert block.start == 0 and block.end == 2   # sw is not fused
        assert block.count == 2
        assert not block.dynamic

    def test_block_ends_at_control_transfer_inclusive(self):
        decoded = decode_program(assemble(
            "li r1, 1\nli r2, 2\nbeq r1, r2, 0\nli r3, 3\nhalt\n"))
        block = decoded.superblocks().get(0)
        assert block.end == 3          # the branch is fused, pc 3 is not
        assert block.count == 3

    def test_self_loop_compiles_to_dynamic_block(self):
        program = assemble("""
            li r1, 0
            li r2, 100
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """)
        decoded = decode_program(program)
        entry = decoded.superblocks().get(0)
        loop = decoded.superblocks().get(2)
        assert not entry.dynamic
        assert loop.dynamic
        assert "while True:" in loop.source
        assert "budget" in loop.source

    def test_forward_branch_is_not_dynamic(self):
        decoded = decode_program(assemble(
            "li r1, 1\nblt r0, r1, 3\nnop\nhalt\n"))
        assert not decoded.superblocks().get(0).dynamic

    def test_block_size_is_capped(self):
        body = "addi r1, r1, 1\n" * (MAX_BLOCK_INSTRS + 20) + "halt\n"
        decoded = decode_program(assemble(body))
        block = decoded.superblocks().get(0)
        assert block.count == MAX_BLOCK_INSTRS
        follower = decoded.superblocks().get(block.end)
        assert follower.start == MAX_BLOCK_INSTRS

    def test_sync_boundary_is_not_a_leader(self):
        decoded = decode_program(assemble("sw r0, 0(r0)\nhalt\n"))
        assert compile_superblock(
            decoded.instrs, decoded.batchable, 0) is None
        with pytest.raises(ValueError, match="sync boundary"):
            decoded.superblocks().get(0)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

class TestCacheAndSalt:
    def test_blocks_compile_lazily_per_entry_pc(self):
        decoded = decode_program(assemble(
            "li r1, 1\njmp 3\nli r2, 2\nhalt\n"))
        cache = decoded.superblocks()
        assert cache.compiled_count == 0
        cache.get(0)
        assert cache.compiled_count == 1   # pc 2 is unreachable, never built
        assert cache.get(0) is cache.get(0)

    def test_cache_is_memoized_on_the_decoded_program(self):
        decoded = decode_program(assemble("li r1, 1\nhalt\n"))
        assert decoded.superblocks() is decoded.superblocks()

    def test_cache_is_shared_across_cores(self):
        program = assemble("li r1, 0\nli r2, 9\nloop: addi r1, r1, 1\n"
                           "blt r1, r2, loop\nhalt\n")
        soc = SoC(SoCConfig(n_cores=2, backend="compiled"),
                  {0: program, 1: program})
        soc.run()
        caches = {id(core._decoded.superblocks()) for core in soc.cores}
        assert len(caches) == 1
        assert all(core.regs[1] == 9 for core in soc.cores)


# ---------------------------------------------------------------------------
# fault exactness
# ---------------------------------------------------------------------------

DIV_ZERO = """
    li r1, 5
    li r2, 0
    addi r1, r1, 3
    div r3, r1, r2
    halt
"""


class TestFaultExactness:
    def test_div_by_zero_faults_at_identical_cycle_on_all_backends(self):
        observed = []
        for backend, quantum in ALL_RUNS:
            soc = _soc(DIV_ZERO, backend, quantum)
            with pytest.raises(RuntimeError, match="division by zero"):
                soc.run()
            core = soc.cores[0]
            observed.append((backend, core.cycle_count, core.instr_count,
                             core.pc, soc.sim.now, list(core.regs)))
        reference = observed[0][1:]
        for backend, *rest in observed[1:]:
            assert tuple(rest) == reference, f"backend {backend!r}"

    def test_block_fault_charge_includes_prior_loop_iterations(self):
        # Divisor reaches zero on the third trip: the fault's cycle
        # charge must include the two retired iterations.
        asm = """
            li r1, 2
            li r2, 10
        loop:
            div r3, r2, r1
            addi r1, r1, -1
            jmp loop
        """
        results = []
        for backend, quantum in ALL_RUNS:
            soc = _soc(asm, backend, quantum)
            with pytest.raises(RuntimeError, match="division by zero"):
                soc.run()
            core = soc.cores[0]
            results.append((core.cycle_count, core.instr_count,
                            soc.sim.now, list(core.regs)))
        assert all(result == results[0] for result in results[1:])

    def test_compiled_fault_writes_back_retired_state(self):
        soc = _soc(DIV_ZERO, "compiled", 64)
        with pytest.raises(RuntimeError):
            soc.run()
        core = soc.cores[0]
        assert core.regs[1] == 8    # addi retired before the fault
        assert core.regs[3] == 0    # div's write never happened

    def test_blockfault_carries_exact_charge(self):
        program = assemble("li r1, 1\nli r2, 0\ndiv r3, r1, r2\nhalt\n")
        block = decode_program(program).superblocks().get(0)
        regs = [0] * 16
        with pytest.raises(BlockFault) as excinfo:
            block.fn(regs)
        fault = excinfo.value
        assert fault.pc == 2
        assert fault.count == 3               # li + li + the faulting div
        assert fault.cost == fault.cycles - 2  # div cost on top of 2 lis


# ---------------------------------------------------------------------------
# 32-bit escape audit: addresses and jump targets
# ---------------------------------------------------------------------------

class TestAddressEscapeAudit:
    def test_overflowed_address_faults_identically_on_all_backends(self):
        # INT_MAX + 1 wraps to INT_MIN; using it as an address must hit
        # the bus fault path, not index RAM with a giant Python int.
        asm = """
            li r1, 2147483647
            addi r1, r1, 1
            sw r0, 0(r1)
            halt
        """
        for backend, quantum in ALL_RUNS:
            soc = _soc(asm, backend, quantum)
            with pytest.raises(BusError, match="unmapped"):
                soc.run()
            assert soc.cores[0].regs[1] == -(2 ** 31), f"{backend}"

    def test_jr_to_wrapped_register_faults_identically(self):
        # A jr through an overflowed register lands outside the program:
        # every backend must report the same wrapped pc.
        asm = """
            li r1, 2147483647
            addi r1, r1, 1
            jr r1
        """
        messages = set()
        for backend, quantum in ALL_RUNS:
            soc = _soc(asm, backend, quantum)
            with pytest.raises(RuntimeError,
                               match="outside program") as excinfo:
                soc.run()
            messages.add(str(excinfo.value))
        assert len(messages) == 1
        assert str(-(2 ** 31)) in messages.pop()

    def test_jr_to_plain_out_of_range_target_faults_identically(self):
        asm = "li r1, 500\njr r1\n"
        for backend, quantum in ALL_RUNS:
            soc = _soc(asm, backend, quantum)
            with pytest.raises(RuntimeError, match="pc 500 outside"):
                soc.run()

    def test_reg_flip_keeps_registers_canonical(self):
        # The fault injector's register flips must preserve the signed-32
        # register-file invariant even on negative values.
        from repro.faults import FaultInjector, FaultPlan

        soc = _soc("li r1, -1\nloop: addi r2, r2, 1\njmp loop\n",
                   "compiled", 64)
        plan = FaultPlan(seed=1)
        plan.at(5.0, "reg_flip", target=0, reg=1, bit=31)
        injector = FaultInjector(soc.sim, plan)
        injector.attach_soc(soc)
        soc.run(max_events=200)
        # -1 with bit 31 cleared is INT_MAX -- and must be stored as the
        # canonical signed image, never as raw 0x7FFFFFFFFFF... garbage.
        assert soc.cores[0].regs[1] == 2 ** 31 - 1


# ---------------------------------------------------------------------------
# backend selection plumbing
# ---------------------------------------------------------------------------

class TestBackendSelection:
    def test_backend_names(self):
        assert BACKENDS == ("reference", "compiled", "vector")
        assert DEFAULT_BACKEND == "compiled"

    def test_invalid_backend_rejected(self):
        # Unknown names are rejected, the deleted "fast" tier included.
        from repro.desim.kernel import Simulator
        for name in ("turbo", "fast"):
            with pytest.raises(ValueError, match="backend"):
                Cpu(Simulator(), None, assemble("halt\n"), backend=name)
            with pytest.raises(ValueError, match="backend"):
                SoCConfig(backend=name)

    def test_reference_backend_disables_batching(self):
        # The reference backend pins the per-instruction path even with a
        # large configured quantum -- and must agree with compiled.
        asm = "li r1, 0\nli r2, 50\nloop: addi r1, r1, 1\n" \
              "blt r1, r2, loop\nhalt\n"
        ref = _soc(asm, "reference", 64)
        ref.run()
        fast = _soc(asm, "compiled", 64)
        fast.run()
        assert ref.cores[0].state() == fast.cores[0].state()
        assert ref.sim.now == fast.sim.now
