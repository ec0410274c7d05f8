"""Unit tests for the lane-vectorized ISS backend: the lane-loop
superblock compiler (:func:`repro.vp.jit.compile_lane_superblock`), the
:class:`repro.vp.lanes.LaneGroup` lockstep machinery, and the SoC
plumbing that shares programs and forms groups under
``backend="vector"``.

The equivalence / CIR-differential suites prove the backend bit-exact
on whole workloads; this file pins the mechanics -- twin deduplication,
the split-on-divergence exits, speculation consume/rollback, program
sharing, and the heterogeneous fallback to solo stepping.
"""

from __future__ import annotations

import pytest

from repro.vp import LaneGroup, SoC, SoCConfig, assemble
from repro.vp.iss import decode_program
from repro.vp.jit import compile_lane_superblock, compile_superblock
from repro.vp.lanes import run_lane_chain, run_superblock_chain
from repro.vp.soc import SEM_BASE

# Firmware prologue: derive a unique per-lane id in r5 via a semaphore-
# protected counter at RAM[70] (cores cannot read their core_id, and a
# plain racy read-modify-write hands every lockstep lane the same value).
UNIQUE_ID = f"""
    li r4, {SEM_BASE}
acq:
    lw r5, 0(r4)
    bne r5, r0, acq
    li r9, 70
    lw r5, 0(r9)
    addi r6, r5, 1
    sw r6, 0(r9)
    sw r0, 0(r4)
"""

COUNT_LOOP = """
    li r1, 0
    li r2, 50
loop:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""


def _soc(programs, n_cores, backend="vector", quantum=64):
    return SoC(SoCConfig(n_cores=n_cores, backend=backend,
                         quantum=quantum), programs)


# ---------------------------------------------------------------------------
# lane codegen
# ---------------------------------------------------------------------------

class TestLaneCodegen:
    def test_static_lane_block_mirrors_scalar(self):
        decoded = decode_program(assemble(
            "li r1, 7\naddi r1, r1, 1\nmul r2, r1, r1\nhalt\n"))
        scalar = compile_superblock(decoded.instrs, decoded.batchable, 0)
        lane = compile_lane_superblock(decoded.instrs, decoded.batchable, 0)
        assert (lane.cycles, lane.count, lane.last_cost, lane.dynamic) \
            == (scalar.cycles, scalar.count, scalar.last_cost,
                scalar.dynamic)
        assert "for regs in _lanes:" in lane.source

        lanes = [[0] * 16, [0] * 16]
        out = lane.fn(lanes)
        regs = [0] * 16
        pc = scalar.fn(regs)
        assert out == [pc, pc]
        assert lanes[0] == regs and lanes[1] == regs

    def test_dynamic_lane_block_returns_per_lane_charges(self):
        decoded = decode_program(assemble(COUNT_LOOP))
        lane = compile_lane_superblock(decoded.instrs, decoded.batchable, 2)
        assert lane.dynamic
        # Lane 0 has 10 trips left, lane 1 has 40: with a large budget
        # each must come back with its own (pc, cycles, count).
        a = [0, 40, 50] + [0] * 13
        b = [0, 10, 50] + [0] * 13
        out = lane.fn([a, b], 10_000)
        assert a[1] == 50 and b[1] == 50
        (pc_a, cyc_a, cnt_a), (pc_b, cyc_b, cnt_b) = out
        assert pc_a == pc_b           # both exit to the halt
        assert cnt_a == 20 and cnt_b == 80   # 10 vs 40 trips, 2 instrs each
        assert cyc_b > cyc_a

    def test_lane_chain_splits_on_differing_charge(self):
        # run_lane_chain must finalize both lanes at the first block
        # whose exits disagree -- here the loop block's trip counts.
        decoded = decode_program(assemble(COUNT_LOOP))
        lanes = [[0, 40, 50] + [0] * 13, [0, 10, 50] + [0] * 13]
        results = run_lane_chain(decoded, lanes, 2, 10_000)
        assert results[0].count != results[1].count
        assert results[0].pc == results[1].pc

    def test_lane_chain_matches_scalar_chain_per_lane(self):
        decoded = decode_program(assemble(COUNT_LOOP))
        quantum = 64
        seeds = [[0, 3, 50] + [0] * 13, [0, 9, 50] + [0] * 13]
        scalar_out = []
        for seed in seeds:
            regs = list(seed)
            pc, total, count, cost, _fault = run_superblock_chain(
                decoded, regs, 2, quantum)
            scalar_out.append((regs, pc, total, count, cost))
        lanes = [list(seed) for seed in seeds]
        results = run_lane_chain(decoded, lanes, 2, quantum)
        vector_out = [(lane, r.pc, r.total, r.count, r.cost)
                      for lane, r in zip(lanes, results)]
        assert vector_out == scalar_out


# ---------------------------------------------------------------------------
# group formation and program sharing
# ---------------------------------------------------------------------------

class TestGroupFormation:
    def test_identical_sources_share_one_program(self):
        soc = _soc({i: COUNT_LOOP for i in range(4)}, 4)
        programs = {id(core.program) for core in soc.cores}
        assert len(programs) == 1
        assert len(soc.lane_groups) == 1
        assert len(soc.lane_groups[0].cores) == 4

    def test_compiled_shares_one_program_and_forms_no_group(self):
        soc = _soc({i: COUNT_LOOP for i in range(2)}, 2,
                   backend="compiled")
        assert len({id(core.program) for core in soc.cores}) == 1
        assert soc.lane_groups == []

    def test_heterogeneous_sources_form_partial_groups(self):
        other = COUNT_LOOP.replace("50", "60")
        soc = _soc({0: COUNT_LOOP, 1: COUNT_LOOP, 2: other}, 3)
        assert len(soc.lane_groups) == 1
        group = soc.lane_groups[0]
        assert [cpu.core_id for cpu in group.cores] == [0, 1]
        assert soc.cores[2]._lane_group is None

    def test_single_core_gets_no_group(self):
        soc = _soc({0: COUNT_LOOP}, 1)
        assert soc.lane_groups == []
        soc.run()
        assert soc.cores[0].regs[1] == 50  # solo vector == compiled tier

    def test_shared_preassembled_program_groups(self):
        program = assemble(COUNT_LOOP)
        soc = _soc({0: program, 1: program}, 2)
        assert len(soc.lane_groups) == 1


# ---------------------------------------------------------------------------
# lockstep execution tiers
# ---------------------------------------------------------------------------

class TestLockstep:
    def test_homogeneous_twins_share_executions(self):
        soc = _soc({i: COUNT_LOOP for i in range(4)}, 4)
        soc.run()
        group = soc.lane_groups[0]
        assert all(core.regs[1] == 50 for core in soc.cores)
        assert group.windows > 0
        assert group.shared > 0           # twins satisfied by state copy
        assert group.vector_calls == 0    # never needed the lane blocks
        assert group.fallbacks == 0

    def test_divergent_values_use_lane_blocks(self):
        # Cores derive distinct ids, so their register files differ while
        # the pcs stay convergent: the lane-compiled tier must carry them.
        asm = UNIQUE_ID + """
            li r1, 0
            li r2, 300
            mul r7, r5, r2
        loop:
            addi r1, r1, 1
            add r7, r7, r5
            blt r1, r2, loop
            halt
        """
        ref = _soc({i: asm for i in range(3)}, 3, backend="reference",
                   quantum=1)
        ref.run()
        soc = _soc({i: asm for i in range(3)}, 3)
        soc.run()
        assert [c.state() for c in soc.cores] \
            == [c.state() for c in ref.cores]
        assert soc.sim.now == ref.sim.now
        assert soc.lane_groups[0].vector_calls > 0

    def test_counters_expose_solo_fallback(self):
        # One lane halts early (its id picks a shorter loop), after which
        # the survivor must keep retiring batches solo.
        asm = UNIQUE_ID + """
            li r2, 400
            mul r2, r2, r6
            li r1, 0
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """
        ref = _soc({i: asm for i in range(2)}, 2, backend="reference",
                   quantum=1)
        ref.run()
        soc = _soc({i: asm for i in range(2)}, 2)
        soc.run()
        assert [c.state() for c in soc.cores] \
            == [c.state() for c in ref.cores]
        assert soc.lane_groups[0].solo_steps > 0

    def test_lane_fault_falls_back_to_scalar_exactness(self):
        # One lane divides by zero (its unique id is 0), the other by a
        # nonzero id: the vector call faults, every lane is rolled back,
        # and the scalar path reproduces the reference cycle exactly.
        asm = UNIQUE_ID + """
            li r1, 1000
            addi r2, r1, 7
            addi r3, r5, 3
            mul r8, r2, r3
            div r3, r2, r5
            halt
        """
        observed = []
        for backend, quantum in (("reference", 1), ("vector", 64)):
            soc = _soc({i: asm for i in range(2)}, 2, backend=backend,
                       quantum=quantum)
            with pytest.raises(RuntimeError, match="division by zero"):
                soc.run()
            observed.append([(c.core_id, c.cycle_count, c.instr_count,
                              c.pc, list(c.regs)) for c in soc.cores])
        assert observed[0] == observed[1]

    def test_group_is_timing_neutral(self):
        # Lockstep must not perturb kernel time: each core retires its
        # own delays, so the vector run finishes at the exact same
        # simulated instant as compiled and reference.
        results = {}
        for backend, quantum in (("reference", 1), ("compiled", 64),
                                 ("vector", 64)):
            soc = _soc({i: COUNT_LOOP for i in range(4)}, 4,
                       backend=backend, quantum=quantum)
            soc.run()
            results[backend] = (soc.sim.now,
                                [c.cycle_count for c in soc.cores])
        assert results["vector"] == results["reference"]
        assert results["vector"] == results["compiled"]


# ---------------------------------------------------------------------------
# speculation discipline
# ---------------------------------------------------------------------------

class TestSpeculation:
    def test_pending_is_single_shot(self):
        # A parked lane holding a pending result must not be re-stepped
        # by the next leader: park() is cleared when the pending is
        # assigned.  Run a long homogeneous workload and count: every
        # lane-batch retired is either a lead, a share or a pending.
        soc = _soc({i: COUNT_LOOP.replace("50", "5000") for i in range(4)},
                   4)
        soc.run()
        group = soc.lane_groups[0]
        assert group.lanes_retired == group.windows + group.shared \
            + sum(1 for _ in ())  # distinct-lane pendings are counted...
        # ...in lanes_retired - windows - shared == 0 here (all twins).
        assert all(core.regs[1] == 5000 for core in soc.cores)

    def test_consume_revalidates_against_reality(self):
        # attach an observer mid-run: lanes must abandon their pendings
        # (rollback) and continue on the event-exact path, bit-identical
        # to a reference run with the same attachment point.
        from repro.desim.kernel import SimObserver

        final = {}
        for backend, quantum in (("reference", 1), ("vector", 64)):
            soc = _soc({i: COUNT_LOOP.replace("50", "3000")
                        for i in range(4)}, 4, backend=backend,
                       quantum=quantum)
            soc.sim.after(100.0, lambda s=soc: s.sim.add_observer(
                SimObserver()))
            soc.run()
            final[backend] = ([c.state() for c in soc.cores], soc.sim.now)
        assert final["vector"] == final["reference"]
