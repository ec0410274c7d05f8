"""Unit tests for the PR's hot-path machinery: the ISS decode cache and
quantum knob, the bus decode fast path, and the kernel resume re-arm."""

import pytest

from repro.desim import Delay, Simulator
from repro.desim.events import Signal
from repro.vp import SoC, SoCConfig, assemble
import repro.vp.soc as soc_module
from repro.vp.bus import Bus, BusError, Ram
from repro.vp.isa import AsmError
from repro.vp.iss import BACKENDS, Cpu, DecodedProgram, decode_program


# ---------------------------------------------------------------------------
# decode cache
# ---------------------------------------------------------------------------

class TestDecodeCache:
    def test_decode_is_cached_on_the_program(self):
        program = assemble("li r1, 1\nadd r2, r1, r1\nhalt\n")
        first = decode_program(program)
        assert decode_program(program) is first

    def test_cache_shared_between_cores(self):
        program = assemble("li r1, 1\nhalt\n")
        soc = SoC(SoCConfig(n_cores=2), {0: program, 1: program})
        soc.run()
        assert soc.cores[0]._decoded is soc.cores[1]._decoded

    def test_program_is_immutable_and_decoded_once(self):
        # A core executes the program it was built with: instructions
        # cannot be edited in place, so one decode serves forever.
        program = assemble("li r1, 1\nhalt\n")
        with pytest.raises(TypeError):
            program.instructions[1] = program.instructions[0]
        with pytest.raises(AttributeError):
            program.instructions.append(program.instructions[0])
        assert decode_program(program) is decode_program(program)

    def test_sync_ops_are_not_batchable(self):
        program = assemble("""
        li r1, 5
        add r2, r1, r1
        sw r2, 0(r0)
        lw r3, 0(r0)
        swap r3, 1(r0)
        ei
        di
        halt
        """)
        decoded = DecodedProgram(program)
        assert decoded.batchable[:2] == [True, True]
        assert decoded.batchable[2:] == [False] * 6

    def test_reference_steps_are_the_op_table(self):
        # The predecoded reference step of a pc is the _OPS handler, the
        # instruction's args and the shared Delay of its cost.
        from repro.vp.isa import CYCLES, DEFAULT_CYCLES
        from repro.vp.iss import _OPS
        program = assemble("li r1, 5\nmul r2, r1, r1\nsw r2, 3(r0)\nhalt\n")
        decoded = decode_program(program)
        assert len(decoded.steps) == len(program.instructions)
        for instr, (handler, args, delay) in zip(program.instructions,
                                                 decoded.steps):
            assert handler is _OPS[instr.op]
            assert args == instr.args
            assert delay.duration == CYCLES.get(instr.op, DEFAULT_CYCLES)
        assert decoded.steps[0][2] is decode_program(
            assemble("li r9, 1\n")).steps[0][2]

    def test_div_by_zero_faults_even_into_r0(self):
        # rd == r0 handlers must still evaluate operands.
        with pytest.raises(RuntimeError, match="division by zero at pc=2"):
            soc = SoC(SoCConfig(n_cores=1),
                      {0: "li r1, 1\nli r2, 0\ndiv r0, r1, r2\nhalt\n"})
            soc.run()


# ---------------------------------------------------------------------------
# per-process program memo (repro.vp.soc)
# ---------------------------------------------------------------------------

MEMO_FIRMWARE = """
    li r1, 0
    li r2, 40
loop:
    lw r3, 0(r0)
    add r3, r3, r1
    sw r3, 0(r0)
    xor r4, r3, r1
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""


def _end_state(soc):
    return ([(c.pc, list(c.regs), c.cycle_count, c.instr_count)
             for c in soc.cores],
            list(soc.ram.words[:8]), soc.sim.now, soc.sim.event_count)


@pytest.mark.parametrize("backend", BACKENDS)
class TestProgramMemo:
    def _soc(self, backend, programs):
        return SoC(SoCConfig(n_cores=2, backend=backend), programs)

    def test_socs_from_one_source_share_program_and_decode(self, backend):
        first = self._soc(backend, {0: MEMO_FIRMWARE, 1: MEMO_FIRMWARE})
        second = self._soc(backend, {0: MEMO_FIRMWARE, 1: MEMO_FIRMWARE})
        program = first.cores[0].program
        assert all(cpu.program is program
                   for cpu in first.cores + second.cores)
        assert second.cores[1]._decoded is first.cores[0]._decoded
        # assemble() itself still hands out a fresh program.
        assert assemble(MEMO_FIRMWARE) is not assemble(MEMO_FIRMWARE)
        assert assemble(MEMO_FIRMWARE) is not program

    def test_shared_program_runs_like_a_fresh_assembly(self, backend):
        program = assemble(MEMO_FIRMWARE)
        fresh = self._soc(backend, {0: program, 1: program})
        fresh.run()
        for _ in range(2):  # the second SoC reuses warm caches
            shared = self._soc(backend, {0: MEMO_FIRMWARE,
                                         1: MEMO_FIRMWARE})
            shared.run()
            assert _end_state(shared) == _end_state(fresh)

    def test_bad_source_raises_on_every_construction(self, backend,
                                                     monkeypatch):
        calls = _count_assemblies(monkeypatch)
        source = "li r1, 1\nbogus r1\n"
        for _ in range(3):
            with pytest.raises(AsmError):
                self._soc(backend, {0: source})
        assert calls == [source] * 3

    def test_memo_stays_at_its_bound(self, backend, monkeypatch):
        calls = _count_assemblies(monkeypatch)
        bound = soc_module._program_of.cache_info().maxsize
        sources = [f"li r1, {index}\nhalt\n" for index in range(bound + 5)]
        for source in sources + [sources[-1], sources[0]]:
            SoC(SoCConfig(n_cores=1, backend=backend), {0: source})
        assert soc_module._program_of.cache_info().currsize == bound
        # The newest source is still held; the oldest was dropped.
        assert calls == sources + [sources[0]]

    def test_misses_assemble_through_the_module_global(self, backend,
                                                       monkeypatch):
        # A wrapper on repro.vp.soc.assemble (perfbench's assemble_s
        # shim) must see every real assembly and no memo hit.
        calls = _count_assemblies(monkeypatch)
        source = "li r1, 7\nhalt\n"
        for _ in range(3):
            self._soc(backend, {0: source, 1: source})
        assert calls == [source]


def _count_assemblies(monkeypatch):
    """Empty the program memo and record every source that SoC
    construction assembles from here on."""
    calls = []
    real = soc_module.assemble

    def counting(source):
        calls.append(source)
        return real(source)

    soc_module._program_of.cache_clear()
    monkeypatch.setattr(soc_module, "assemble", counting)
    return calls


# ---------------------------------------------------------------------------
# quantum knob
# ---------------------------------------------------------------------------

ALU_LOOP = """
    li r1, 0
    li r2, 200
loop:
    add r3, r1, r2
    xor r4, r3, r1
    addi r1, r1, 1
    blt r1, r2, loop
    sw r3, 0(r0)
    halt
"""


def _run(quantum):
    soc = SoC(SoCConfig(n_cores=1, quantum=quantum), {0: ALU_LOOP})
    soc.run()
    return soc


class TestQuantumKnob:
    def test_quantum_below_one_rejected(self):
        sim, bus = Simulator(), Bus()
        bus.attach(0, 64, Ram(64), "ram")
        program = assemble("halt\n")
        with pytest.raises(ValueError, match="quantum"):
            Cpu(sim, bus, program, quantum=0)

    @pytest.mark.parametrize("quantum", [float("nan"), 1.5, 64.0])
    def test_non_int_quantum_rejected(self, quantum):
        # Same rule as SoCConfig: the quantum is a positive int.
        sim, bus = Simulator(), Bus()
        bus.attach(0, 64, Ram(64), "ram")
        with pytest.raises(ValueError, match="quantum must be a positive "
                                             "int"):
            Cpu(sim, bus, assemble("halt\n"), quantum=quantum)

    def test_quantum_one_matches_reference_event_count(self):
        # quantum=1 must be the historical one-event-per-instruction path.
        soc = _run(1)
        assert soc.sim.event_count == soc.cores[0].instr_count + 1

    def test_batching_collapses_events_but_not_state(self):
        ref, fast = _run(1), _run(64)
        assert fast.sim.event_count < ref.sim.event_count / 4
        assert fast.cores[0].state() == ref.cores[0].state()
        assert fast.sim.now == ref.sim.now

    def test_kernel_observer_forces_per_instruction(self):
        from repro.desim.kernel import SimObserver
        soc = SoC(SoCConfig(n_cores=1, quantum=64), {0: ALU_LOOP})
        soc.sim.add_observer(SimObserver())
        soc.run()
        ref = _run(1)
        assert soc.sim.event_count == ref.sim.event_count

    def test_pc_signal_watch_forces_per_instruction(self):
        pcs = []
        soc = SoC(SoCConfig(n_cores=1, quantum=64), {0: ALU_LOOP})
        soc.cores[0].pc_signal.changed.subscribe(
            lambda payload: pcs.append(payload))
        soc.run()
        # One pc per retired instruction: nothing was skipped by a batch.
        assert len(pcs) == soc.cores[0].instr_count

    def test_acquire_release_sync(self):
        core = _run(64).cores[0]
        with pytest.raises(RuntimeError, match="release_sync"):
            core.release_sync()

    def test_tied_cycle_store_order_is_quantum_independent(self):
        # Regression: two cores whose stores retire at the same cycle.
        # A batch schedules its first wakeup at batch *start*, giving it
        # an older kernel seq than the reference path's per-instruction
        # event at the same time, so seq tie-breaking let quantum=64
        # reorder tied-time accesses against quantum=1 (found by the
        # bit-identity property test at seed=1386, length=40).  Fixed
        # per-core priorities must pin the interleaving on every path.
        import random

        from tests.test_properties import _random_firmware

        rng = random.Random(1386)
        programs = {core: _random_firmware(rng, 40) for core in range(2)}

        def trace(quantum):
            soc = SoC(SoCConfig(n_cores=2, quantum=quantum),
                      dict(programs))
            accesses = []
            soc.bus.observe(lambda *access: accesses.append(access))
            soc.run()
            return soc, accesses

        ref, ref_accesses = trace(1)
        fast, fast_accesses = trace(64)
        assert fast_accesses == ref_accesses
        assert [fast.mem(i) for i in range(32)] == \
            [ref.mem(i) for i in range(32)]

    def test_core_loses_tied_cycle_to_device_master(self):
        # Fixed arbitration: device masters run at kernel priority 0,
        # cores at core_id + 1, so a DMA word and a core store retiring
        # at the same cycle always commit device-first -- independent of
        # which master scheduled its event earlier.
        soc = SoC(SoCConfig(n_cores=2), {0: "halt\n", 1: "halt\n"})
        assert soc.cores[0].priority == 1
        assert soc.cores[1].priority == 2
        soc.start()
        assert soc.cores[0].process.priority == 1
        assert soc.cores[1].process.priority == 2


# ---------------------------------------------------------------------------
# the one sync-boundary gate (Cpu._must_sync)
# ---------------------------------------------------------------------------

GATE_LOOP = """
    li r1, 0
    li r2, 400
loop:
    add r3, r3, r1
    xor r4, r3, r2
    addi r1, r1, 1
    blt r1, r2, loop
    sw r4, 100(r0)
    halt
isr:
    iret
"""
GATE_CORES = 4
SEARCH_FROM = 300.0  # mid-loop
SETTLED = 400.0      # longer than any batch: in-flight batches have retired
# Kernel priorities around the cores' (core_id + 1): between core0 and
# core1, a tied batch boundary finds core0 having led the window and
# core1..3 holding speculated batches they have not consumed yet; after
# the last core, every core has woken at that time.
BETWEEN_LANES = 1.5
AFTER_LANES = GATE_CORES + 0.5

SYNC_CONDITIONS = ("sync_request", "post_instr_hook", "stall_hook",
                   "irq_window", "kernel_observer", "pc_signal")


def _hold(condition, soc):
    """Make ``condition`` hold on every core of ``soc``."""
    if condition == "kernel_observer":
        from repro.desim.kernel import SimObserver
        soc.sim.add_observer(SimObserver())
    for cpu in soc.cores:
        if condition == "sync_request":
            cpu.acquire_sync()
        elif condition == "post_instr_hook":
            cpu.add_post_instr_hook(lambda core, instr: None)
        elif condition == "stall_hook":
            cpu.stall_hook = lambda core: 0
        elif condition == "irq_window":
            cpu.interrupts_enabled = True  # irq_vector set, line low
        elif condition == "pc_signal":
            cpu.pc_signal.changed.subscribe(lambda payload: None)


def _gate_soc(backend, quantum):
    program = assemble(GATE_LOOP)
    return SoC(SoCConfig(n_cores=GATE_CORES, backend=backend,
                         quantum=quantum, irq_vector=program.label("isr")),
               {core: program for core in range(GATE_CORES)})


def _pending(soc):
    return sum(cpu._lane_pending is not None for cpu in soc.cores)


def _first_speculation():
    """The first batch boundary after SEARCH_FROM at which vector lanes
    hold speculated batches (bare kernel callbacks do not perturb the
    run: they are events, not observers)."""
    soc = _gate_soc("vector", 64)
    found = []

    def poll():
        if _pending(soc):
            found.append(soc.sim.now)
        else:
            soc.sim.after(1.0, poll, priority=BETWEEN_LANES)

    soc.sim.at(SEARCH_FROM, poll, priority=BETWEEN_LANES)
    soc.run()
    return found[0]


def _gate_run(backend, quantum, condition, apply_at):
    soc = _gate_soc(backend, quantum)
    marks = {}

    def apply():
        marks["pending"] = _pending(soc)
        _hold(condition, soc)

    def woken():
        marks["woken"] = [cpu._wait_state for cpu in soc.cores]

    def mark():
        marks["counts"] = [(cpu.instr_count, cpu.pc_signal.write_count)
                           for cpu in soc.cores]

    if apply_at is None:
        apply()
        mark()
    else:
        soc.sim.at(apply_at, apply, priority=BETWEEN_LANES)
        soc.sim.at(apply_at, woken, priority=AFTER_LANES)
        soc.sim.at(apply_at + SETTLED, mark)
    soc.run()
    return soc, marks


@pytest.mark.parametrize("backend", ["compiled", "vector"])
@pytest.mark.parametrize("mid_run", [False, True],
                         ids=["before_run", "mid_run"])
@pytest.mark.parametrize("condition", SYNC_CONDITIONS)
def test_sync_condition_pins_the_reference_path(condition, mid_run,
                                                backend):
    apply_at = _first_speculation() if mid_run else None
    ref, _ = _gate_run("reference", 1, condition, apply_at)
    soc, marks = _gate_run(backend, 64, condition, apply_at)
    assert [c.state() for c in soc.cores] == [c.state() for c in ref.cores]
    assert soc.sim.now == ref.sim.now
    assert soc.ram.words == ref.ram.words
    # While the condition holds every core retires one instruction per
    # kernel event: each retire writes pc_signal once, so a batch would
    # retire more instructions than it writes pcs.
    for cpu, (instrs, writes) in zip(soc.cores, marks["counts"]):
        assert cpu.instr_count - instrs == cpu.pc_signal.write_count - writes
        assert cpu.instr_count > instrs
    if backend == "vector" and mid_run:
        # The condition arrived while core1..3 held speculated batches:
        # on waking their revalidation must reject them and step the
        # reference path (core0's batch was already under way).
        assert marks["pending"] == GATE_CORES - 1
        assert marks["woken"][1:] == ["ref"] * (GATE_CORES - 1)


# ---------------------------------------------------------------------------
# bus decode fast path
# ---------------------------------------------------------------------------

class TestBusDecode:
    def _bus(self):
        bus = Bus()
        bus.attach(0, 100, Ram(100), "low")
        bus.attach(1000, 50, Ram(50), "mid")
        bus.attach(5000, 10, Ram(10), "high")
        return bus

    def test_decode_across_regions(self):
        bus = self._bus()
        bus.write(5, 11)
        bus.write(1049, 22)
        bus.write(5009, 33)
        assert bus.read(5) == 11
        assert bus.read(1049) == 22
        assert bus.read(5009) == 33

    def test_last_hit_cache_does_not_capture_stale_region(self):
        bus = self._bus()
        bus.read(50)          # prime the cache with "low"
        assert bus.region_of(1000) == "mid"
        assert bus.region_of(50) == "low"

    def test_unmapped_gaps_still_error(self):
        bus = self._bus()
        bus.read(99)  # prime last-hit with "low"
        for address in (100, 999, 1050, 4999, 5010):
            with pytest.raises(BusError, match="unmapped"):
                bus.read(address)

    def test_attach_resets_fast_path(self):
        bus = self._bus()
        bus.read(50)
        bus.attach(200, 10, Ram(10), "late")
        bus.write(205, 7)
        assert bus.read(205) == 7
        with pytest.raises(BusError):
            bus.read(210)


# ---------------------------------------------------------------------------
# kernel re-arm fast path
# ---------------------------------------------------------------------------

class TestKernelRearm:
    def test_delay_chain_recycles_one_item(self):
        sim = Simulator()
        ticks = []

        def clock():
            for _ in range(100):
                yield Delay(1)
                ticks.append(sim.now)

        proc = sim.spawn(clock(), name="clock")
        sim.run()
        assert ticks == [float(t) for t in range(1, 101)]
        assert proc._rearm_item is not None
        assert not proc._rearm_busy

    def test_interrupt_racing_a_delay_is_delivered_once(self):
        # interrupt() while the re-arm record sits in the heap must fall
        # back to a fresh item; the stale timer wakeup is then discarded
        # by the epoch check instead of double-resuming the process.
        from repro.desim.kernel import Interrupted
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield Delay(100)
                log.append("woke")
            except Interrupted:
                log.append("interrupted")
                yield Delay(5)
                log.append("after")

        target = sim.spawn(sleeper(), name="sleeper")

        def poker():
            yield Delay(10)
            target.interrupt()

        sim.spawn(poker(), name="poker")
        sim.run()
        assert log == ["interrupted", "after"]
        assert sim.now == 100  # the stale timer still pops (as a no-op)

    def test_pending_counter_stays_consistent(self):
        sim = Simulator()

        def worker():
            for _ in range(10):
                yield Delay(2)

        sim.spawn(worker(), name="w1")
        sim.spawn(worker(), name="w2")
        sim.run()
        assert sim.pending == 0


# ---------------------------------------------------------------------------
# Signal.observed
# ---------------------------------------------------------------------------

class TestSignalObserved:
    def test_fresh_signal_unobserved(self):
        assert not Signal("s", 0).observed

    def test_callback_marks_observed(self):
        signal = Signal("s", 0)
        signal.changed.subscribe(lambda payload: None)
        assert signal.observed

    def test_edge_waiter_marks_observed(self):
        signal = Signal("s", 0)
        signal.posedge.add_waiter(lambda payload: None)
        assert signal.observed
