"""Unit tests for repro.snap: capture, serialization, digest sealing,
structural-signature verification, mid-flight peripheral state, fault
injector streams, and the debugger's checkpoint()/system_snapshot()
split (the old inspection dict's shape is pinned for existing callers).
"""

import copy

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.snap import SNAP_VERSION, Snapshot, SnapshotError, checkpoint, restore
from repro.vp import SoC, SoCConfig
from repro.vp.debugger import Debugger

COUNTER = """
    li r1, 0
    li r2, 50
loop:
    addi r1, r1, 3
    sw r1, 40(r0)
    addi r2, r2, -1
    bne r2, r0, loop
    halt
"""

DMA_KICK = """
    li r1, 300
    li r2, 0
fill:
    sw r2, 0(r1)
    addi r1, r1, 1
    addi r2, r2, 7
    li r3, 332
    blt r1, r3, fill
    li r1, 0x8200
    li r2, 300
    sw r2, 0(r1)
    li r2, 600
    sw r2, 1(r1)
    li r2, 32
    sw r2, 2(r1)
    li r2, 1
    sw r2, 3(r1)
wait:
    lw r3, 4(r1)
    li r4, 1
    and r3, r3, r4
    bne r3, r0, wait
    halt
"""

MBOX_SEND = """
    li r1, 0x8510
    sw r0, 0(r1)
    li r2, 5
    li r3, 6
send:
    sw r2, 1(r1)
    addi r2, r2, 10
    addi r3, r3, -1
    bne r3, r0, send
    halt
"""


def _soc(n_cores=1, backend="compiled", quantum=8, programs=None, **kw):
    config = SoCConfig(n_cores=n_cores, backend=backend, quantum=quantum,
                       **kw)
    return SoC(config, programs or {i: COUNTER for i in range(n_cores)})


class TestSnapshotObject:
    def test_roundtrip_to_from_dict(self):
        soc = _soc()
        soc.run(until=60)
        snap = soc.checkpoint(note="hello")
        payload = snap.to_dict()
        again = Snapshot.from_dict(payload)
        assert again.to_dict() == payload
        assert again.digest == snap.digest
        assert again.note == "hello"
        assert again.version == SNAP_VERSION

    def test_digest_seals_content(self):
        soc = _soc()
        soc.run(until=60)
        payload = soc.checkpoint().to_dict()
        tampered = copy.deepcopy(payload)
        tampered["ram"][40] ^= 1
        with pytest.raises(SnapshotError, match="digest"):
            Snapshot.from_dict(tampered)
        # verify=False is the explicit opt-out
        Snapshot.from_dict(tampered, verify=False)

    def test_version_gate(self):
        soc = _soc()
        soc.run(until=60)
        payload = soc.checkpoint().to_dict()
        payload["version"] = "repro.snap/999"
        with pytest.raises(SnapshotError, match="version"):
            Snapshot.from_dict(payload)

    def test_size_and_repr(self):
        soc = _soc()
        soc.run(until=60)
        snap = soc.checkpoint()
        assert snap.size_bytes() > 0
        assert "Snapshot" in repr(snap)


class TestStructuralSignature:
    def test_mismatched_config_refuses_restore(self):
        soc = _soc(quantum=8)
        soc.run(until=60)
        snap = soc.checkpoint()
        other = _soc(quantum=16)
        with pytest.raises(SnapshotError, match="structural mismatch"):
            other.restore(snap)

    def test_mismatched_program_refuses_restore(self):
        soc = _soc()
        soc.run(until=60)
        snap = soc.checkpoint()
        other = _soc(programs={0: MBOX_SEND})
        with pytest.raises(SnapshotError, match="structural mismatch"):
            other.restore(snap)

    def test_restore_accepts_dict_form(self):
        soc = _soc()
        soc.run(until=60)
        payload = soc.checkpoint().to_dict()
        fresh = _soc()
        fresh.restore(payload)
        assert fresh.sim.now == payload["time"]


class TestExactnessGuards:
    def test_stall_hook_refuses_capture(self):
        soc = _soc()
        soc.cores[0].stall_hook = lambda cpu: 0
        soc.run(until=20)
        with pytest.raises(SnapshotError, match="stall hook"):
            soc.checkpoint()

    def test_foreign_process_refuses_capture(self):
        soc = _soc()
        soc.run(until=20)

        def intruder():
            from repro.desim import Delay
            while True:
                yield Delay(100)

        soc.sim.spawn(intruder(), name="intruder")
        with pytest.raises(SnapshotError, match="intruder"):
            soc.checkpoint()

    def test_fault_snapshot_demands_injector_on_restore(self):
        soc = _soc()
        injector = FaultInjector(
            soc.sim, FaultPlan(seed=1).flip_ram_bit(addr=40, bit=0, at=500.0))
        injector.attach_soc(soc)
        soc.run(until=20)
        snap = soc.checkpoint(injector=injector)
        fresh = _soc()
        with pytest.raises(SnapshotError, match="injector"):
            fresh.restore(snap)


class TestMidFlightPeripherals:
    def test_mid_dma_transfer_restores_and_completes(self):
        ref = _soc(programs={0: DMA_KICK})
        ref.run(max_events=100_000)
        assert ref.dma.transfers_completed == 1

        soc = _soc(programs={0: DMA_KICK})
        soc.run(until=240)
        snap = soc.checkpoint()
        assert snap.data["dma"]["busy"]
        assert 0 < snap.data["dma"]["xfer_index"] < 32

        fresh = _soc(programs={0: DMA_KICK})
        fresh.restore(snap)
        fresh.run(max_events=100_000)
        assert fresh.dma.transfers_completed == 1
        assert fresh.dma.words_moved == ref.dma.words_moved
        assert list(fresh.ram.words) == list(ref.ram.words)
        assert fresh.sim.now == ref.sim.now

    def test_mailbox_in_flight_messages_restore(self):
        programs = {0: COUNTER, 1: MBOX_SEND}
        ref = _soc(n_cores=2, programs=programs)
        ref.run(max_events=100_000)

        soc = _soc(n_cores=2, programs=programs)
        soc.run(until=30)
        snap = soc.checkpoint()
        assert any(snap.data["mbox"]["queues"])  # something in flight

        fresh = _soc(n_cores=2, programs=programs)
        fresh.restore(snap)
        assert list(fresh.mailboxes.queues[0]) == \
            list(soc.mailboxes.queues[0])
        fresh.run(max_events=100_000)
        assert list(fresh.mailboxes.queues[0]) == \
            list(ref.mailboxes.queues[0])
        assert fresh.sim.now == ref.sim.now

    def test_timer_deadline_survives(self):
        soc = _soc()
        soc.timers[0].write(1, 500)   # period
        soc.timers[0].write(0, 1)     # enable
        soc.run(until=100)
        snap = soc.checkpoint()
        fresh = _soc()
        fresh.restore(snap)
        assert fresh.timers[0].enabled
        assert fresh.timers[0].peek(2) == soc.timers[0].peek(2)  # COUNT
        fresh.run(until=600)
        soc.run(until=600)
        assert fresh.timers[0].expirations == soc.timers[0].expirations \
            == 1


class TestInjectorStreams:
    def test_rng_stream_position_restored(self):
        soc = _soc()
        plan = FaultPlan(seed=7).drop_messages(0.5)
        injector = FaultInjector(soc.sim, plan)
        injector.attach_soc(soc)
        # advance the noc stream to a non-initial position
        for _ in range(5):
            injector.message_faults({"payload": 1})
        soc.run(until=20)
        snap = soc.checkpoint(injector=injector)

        fresh = _soc()
        fresh_inj = FaultInjector(fresh.sim,
                                  FaultPlan(seed=7).drop_messages(0.5))
        fresh_inj.attach_soc(fresh)
        fresh.restore(snap, injector=fresh_inj)
        upstream = [injector.message_faults({"payload": 1})
                    for _ in range(20)]
        downstream = [fresh_inj.message_faults({"payload": 1})
                      for _ in range(20)]
        assert upstream == downstream

    def test_pending_scheduled_faults_fire_after_restore(self):
        programs = {0: COUNTER}
        plan = FaultPlan(seed=3).flip_ram_bit(addr=40, bit=7, at=90.0)

        ref = _soc(programs=programs)
        ref_inj = FaultInjector(ref.sim, FaultPlan.from_dict(plan.to_dict()))
        ref_inj.attach_soc(ref)
        ref.run(max_events=100_000)

        soc = _soc(programs=programs)
        inj = FaultInjector(soc.sim, FaultPlan.from_dict(plan.to_dict()))
        inj.attach_soc(soc)
        soc.run(until=40)
        snap = soc.checkpoint(injector=inj)

        fresh = _soc(programs=programs)
        fresh_inj = FaultInjector(fresh.sim,
                                  FaultPlan.from_dict(plan.to_dict()))
        fresh_inj.attach_soc(fresh)
        fresh.restore(snap, injector=fresh_inj)
        fresh.run(max_events=100_000)
        assert len(fresh_inj.injected) == 1
        assert list(fresh.ram.words) == list(ref.ram.words)


class TestRebuild:
    def test_rebuild_from_embedded_sources(self):
        soc = _soc(n_cores=2, programs={0: COUNTER, 1: MBOX_SEND})
        soc.run(until=40)
        snap = Snapshot.from_dict(soc.checkpoint().to_dict())
        rebuilt = snap.rebuild()
        soc.run(max_events=100_000)
        rebuilt.run(max_events=100_000)
        assert rebuilt.sim.now == soc.sim.now
        assert list(rebuilt.ram.words) == list(soc.ram.words)

    def test_rebuild_without_sources_refuses(self):
        soc = _soc()
        soc.run(until=40)
        snap = checkpoint(soc, embed_programs=False)
        with pytest.raises(SnapshotError, match="program sources"):
            snap.rebuild()


class TestDebuggerSnapshotSplit:
    def test_system_snapshot_shape_is_pinned(self):
        """The old inspection dict keeps its exact shape for existing
        callers -- it is documented as non-restorable, not changed."""
        soc = _soc(n_cores=2)
        dbg = Debugger(soc)
        dbg.run(until_time=30)
        view = dbg.system_snapshot()
        assert sorted(view.keys()) == ["cores", "peripherals", "signals",
                                       "time"]
        assert view["time"] == soc.sim.now
        assert len(view["cores"]) == 2
        core0 = view["cores"][0]
        assert sorted(core0.keys()) == [
            "core_id", "cycle_count", "halted", "in_isr", "instr_count",
            "interrupts_enabled", "pc", "regs"]
        periphs = view["peripherals"]
        assert "dma" in periphs and "sem" in periphs
        assert sorted(periphs["dma"].keys()) == ["dst", "len", "src",
                                                 "status"]
        assert sorted(periphs["timer0"].keys()) == ["count", "ctrl",
                                                    "period", "status"]
        assert "core0.halted" in view["signals"]
        # and it is a plain value dict -- not restorable
        assert "queue" not in view and "digest" not in view

    def test_debugger_checkpoint_is_restorable(self):
        soc = _soc()
        dbg = Debugger(soc)
        dbg.run(until_time=30)
        snap = dbg.checkpoint(note="dbg")
        assert isinstance(snap, Snapshot)
        view_then = dbg.system_snapshot()
        dbg.run(until_time=200)
        restore(snap, soc)
        assert dbg.system_snapshot() == view_then
