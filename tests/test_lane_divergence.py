"""Divergence-stress differential tests for the vector backend.

Each scenario makes the lanes of a homogeneous group hit a *different*
divergence point -- an irq window open on one lane only, lane-private
bus traffic, a watched ``pc_signal`` on a single core, a seeded fault
flipping one lane's register -- and asserts that the whole run stays
bit-identical to the ``quantum=1`` reference: final core states, cycle
and instruction counts, simulation time, RAM image, and the exact bus
access sequence (order included).  These are the cases where a lockstep
backend that speculated past a divergence point would silently corrupt
the simulation.
"""

from __future__ import annotations

from repro.vp import SoC, SoCConfig, assemble
from repro.vp.soc import SEM_BASE

QUANTUM = 64

# Same unique-lane-id prologue as test_backend_vector: a semaphore-
# protected counter leaves a distinct id in r5 (0, 1, 2, ...).
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


def run_one(asm, n_cores, backend, quantum, irq_vector=None, setup=None,
            faults=None):
    program = assemble(asm)
    config = SoCConfig(n_cores=n_cores, quantum=quantum, backend=backend,
                       irq_vector=(program.label(irq_vector)
                                   if irq_vector else None))
    soc = SoC(config, {i: asm for i in range(n_cores)})
    accesses = []
    soc.bus.observe(
        lambda kind, addr, value, master: accesses.append(
            (kind, addr, value, master)))
    if setup is not None:
        setup(soc)
    if faults is not None:
        soc.instrument(faults=faults())
    soc.run(max_events=500_000)
    return {
        "states": [core.state() for core in soc.cores],
        "now": soc.sim.now,
        "ram": [soc.mem(i) for i in range(128)],
        "accesses": accesses,
    }


def assert_vector_identical(asm, n_cores=4, irq_vector=None, setup=None,
                            faults=None):
    ref = run_one(asm, n_cores, "reference", 1, irq_vector, setup, faults)
    vec = run_one(asm, n_cores, "vector", QUANTUM, irq_vector, setup,
                  faults)
    for field in ("states", "now", "ram", "accesses"):
        assert vec[field] == ref[field], f"vector diverged on {field}"
    return ref


class TestPerLaneIrqWindow:
    def test_one_lane_takes_timer_interrupts(self):
        # Only the lane with id 0 configures the timer and opens its irq
        # window; it becomes ineligible for lockstep while the other
        # lanes keep vectoring -- and its ISR entries must land on the
        # exact reference cycles.
        asm = UNIQUE_ID + """
            bne r5, r0, work
            li r2, 0x8100
            li r3, 40
            sw r3, 1(r2)    ; timer period = 40
            li r3, 3
            sw r3, 0(r2)    ; timer enable + auto-reload
            ei
        work:
            li r1, 0
            li r2, 3000
        wloop:
            addi r1, r1, 1
            add r7, r7, r5
            blt r1, r2, wloop
            li r9, 80
            add r9, r9, r5
            sw r7, 0(r9)    ; spill per-lane accumulator
            bne r5, r0, done
            di
            li r3, 0x8100
            sw r0, 0(r3)    ; lane 0: stop the timer before halting
        done:
            halt
        isr:
            li r4, 0x8103
            sw r0, 0(r4)    ; clear timer STATUS (deasserts the source)
            li r4, 0x8402
            li r3, 1
            sw r3, 0(r4)    ; ack the intc's latched pending bit
            li r4, 88       ; isr entry count lives in RAM: iret restores
            lw r3, 0(r4)    ; the shadow register file, discarding writes
            addi r3, r3, 1
            sw r3, 0(r4)
            iret
        """

        def route(soc):
            soc.intcs[0].add_source(0, soc.timers[0].irq)
            soc.intcs[0].write(1, 1)  # unmask line 0

        ref = assert_vector_identical(asm, irq_vector="isr", setup=route)
        assert ref["ram"][88] > 10        # lane 0 really took interrupts
        assert ref["ram"][80:84] == [0, 3000, 6000, 9000]  # work all done


class TestLanePrivateBusTraffic:
    def test_even_lanes_store_odd_lanes_compute(self):
        # Even-id lanes interleave stores into a private RAM slot (a sync
        # boundary every trip); odd lanes run the pure-register loop.
        # Pcs diverge and rejoin constantly; the bus order must be the
        # reference order exactly.
        asm = UNIQUE_ID + """
            li r1, 0
            li r2, 200
            li r3, 2
            div r8, r5, r3
            mul r8, r8, r3
            sub r8, r5, r8  ; r8 = id % 2
            li r9, 90
            add r9, r9, r5  ; private slot
        loop:
            addi r1, r1, 1
            add r7, r7, r5
            bne r8, r0, skip
            sw r7, 0(r9)    ; even lanes only: private bus traffic
        skip:
            blt r1, r2, loop
            halt
        """
        ref = assert_vector_identical(asm)
        assert ref["ram"][90] != 0 or ref["ram"][92] != 0
        assert ref["ram"][91] == 0 and ref["ram"][93] == 0


class TestWatchedPcSignal:
    def test_single_watched_lane_leaves_lockstep(self):
        # A pc_signal watchpoint on core 2 must see every intermediate
        # pc of that core -- so lane 2 runs per-instruction while the
        # rest keep vectoring, and everything still matches.
        asm = UNIQUE_ID + """
            li r1, 0
            li r2, 1500
        loop:
            addi r1, r1, 1
            add r7, r7, r5
            blt r1, r2, loop
            halt
        """
        traces = {}

        def make_setup(backend):
            def setup(soc):
                trace = traces.setdefault(backend, [])
                soc.cores[2].pc_signal.changed.subscribe(
                    lambda payload: trace.append(payload))
            return setup

        ref = run_one(asm, 4, "reference", 1, setup=make_setup("ref"))
        vec = run_one(asm, 4, "vector", QUANTUM,
                      setup=make_setup("vector"))
        for field in ("states", "now", "ram", "accesses"):
            assert vec[field] == ref[field], f"diverged on {field}"
        # The watchpoint's whole point: the exact per-instruction pc
        # stream of the watched core, identical under lockstep.
        assert traces["vector"] == traces["ref"]
        assert len(traces["ref"]) > 1500


class TestSeededFaultOnOneLane:
    def test_reg_flip_on_single_lane_stays_bit_identical(self):
        # A seeded fault plan flips a register bit on core 1 mid-run.
        # The injector is a kernel observer, so every lane drops to the
        # event-exact path while attached -- the flip must corrupt the
        # same trip of the same lane on both backends.
        from repro.faults import FaultPlan

        asm = UNIQUE_ID + """
            li r1, 0
            li r2, 2000
        loop:
            addi r1, r1, 1
            add r7, r7, r5
            blt r1, r2, loop
            li r9, 80
            add r9, r9, r5
            sw r7, 0(r9)
            halt
        """

        def plan():
            fault_plan = FaultPlan(seed=7)
            fault_plan.at(300.0, "reg_flip", target=1, reg=7, bit=5)
            return fault_plan

        ref = assert_vector_identical(asm, faults=plan)
        # The flip actually perturbed lane 1's accumulator.
        lanes = ref["ram"][80:84]
        assert lanes[0] == 0                    # id 0 accumulates zeros
        assert lanes[1] == 2000 + (1 << 5)      # bit 5 flipped once
        assert lanes[2] == 2000 * 2 and lanes[3] == 2000 * 3
