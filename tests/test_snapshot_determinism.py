"""Snapshot determinism differentials across every ISS backend.

Extends the `test_iss_fastpath_equivalence` style to checkpoint/restore:
for each backend (`reference|compiled|vector`, filtered by the CI's
``REPRO_ISS_BACKEND`` matrix variable) a workload is checkpointed at
cycle N, restored into a *fresh* platform, and run to completion.  The
restored run must be **bit-identical** to the uninterrupted run: same
final RAM image, register files, end time, bus-access order (the
restored run reproduces the exact suffix), and the same observability
trace suffix.  The capturing run itself must also continue unperturbed
(checkpointing is architecturally invisible).

The ground truth is the uninterrupted ``quantum=1`` reference run, which
every backend must already match (the PR-2/PR-7 equivalence invariant);
here we additionally require the checkpoint cut to be invisible.
"""

from __future__ import annotations

import os

from repro.snap import Snapshot
from repro.vp import SoC, SoCConfig, assemble
from repro.vp.trace import Tracer

_FILTER = os.environ.get("REPRO_ISS_BACKEND")
BACKENDS = [name for name in ("reference", "compiled", "vector")
            if _FILTER in (None, "", name)]

FAST_QUANTUM = 16


# ---------------------------------------------------------------------------
# workloads (self-quiescing: no events left once every core halts)
# ---------------------------------------------------------------------------

SHARED_COUNTER = """
    li r1, 100
    li r2, 0
    li r3, 12
    li r4, 0x8000
loop:
lock:
    lw r5, 0(r4)
    bne r5, r0, locked
    jmp lock
locked:
    lw r6, 0(r1)
    addi r6, r6, 1
    sw r6, 0(r1)
    sw r0, 0(r4)
    addi r2, r2, 1
    blt r2, r3, loop
    halt
"""

TIMER_ISR = """
    li r2, 0x8100
    li r3, 37
    sw r3, 1(r2)
    li r3, 3        ; enable + auto-reload
    sw r3, 0(r2)
    ei
spin:
    lw r4, 60(r0)
    addi r9, r9, 1
    li r5, 4
    blt r4, r5, spin
    di
    sw r0, 0(r2)    ; disable timer
    sw r0, 3(r2)    ; drop its irq line
    halt
isr:
    li r6, 0x8100
    sw r0, 3(r6)    ; ack timer
    li r6, 0x8400
    li r8, 1
    sw r8, 2(r6)    ; ack intc line 0
    lw r7, 60(r0)
    addi r7, r7, 1
    sw r7, 60(r0)
    iret
"""

DMA_MBOX_0 = """
    li r1, 300
    li r2, 0
fill:
    sw r2, 0(r1)
    addi r1, r1, 1
    addi r2, r2, 7
    li r3, 348
    blt r1, r3, fill
    li r1, 0x8200
    li r2, 300
    sw r2, 0(r1)
    li r2, 600
    sw r2, 1(r1)
    li r2, 48
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

DMA_MBOX_1 = """
    li r1, 0x8510
    sw r0, 0(r1)
    li r2, 0
    li r3, 16
send:
    sw r2, 1(r1)
    addi r2, r2, 11
    addi r3, r3, -1
    bne r3, r0, send
    halt
"""

_TIMER_PROG = assemble(TIMER_ISR)


def _wire_timer(soc: SoC) -> None:
    soc.intcs[0].add_source(0, soc.timers[0].irq)
    soc.intcs[0].write(1, 1)


SCENARIOS = {
    "shared_counter": {
        "programs": {0: SHARED_COUNTER, 1: SHARED_COUNTER},
        "n_cores": 2, "irq_vector": None, "wire": None,
        "cuts": (60, 140),
    },
    "timer_isr": {
        "programs": {0: TIMER_ISR},
        "n_cores": 1, "irq_vector": _TIMER_PROG.label("isr"),
        "wire": _wire_timer,
        "cuts": (50, 130),
    },
    "dma_mailbox": {
        "programs": {0: DMA_MBOX_0, 1: DMA_MBOX_1},
        "n_cores": 2, "irq_vector": None, "wire": None,
        "cuts": (60, 260),
    },
}


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _build(scenario: dict, backend: str, quantum: int):
    config = SoCConfig(n_cores=scenario["n_cores"], quantum=quantum,
                       backend=backend, irq_vector=scenario["irq_vector"])
    soc = SoC(config, dict(scenario["programs"]))
    if scenario["wire"] is not None:
        scenario["wire"](soc)
    accesses = []
    soc.bus.observe(
        lambda kind, addr, value, master: accesses.append(
            (kind, addr, value, master)))
    tracer = Tracer(soc)
    return soc, accesses, tracer


def _final(soc: SoC, accesses, tracer):
    return {
        "now": soc.sim.now,
        "ram": list(soc.ram.words),
        "states": [core.state() for core in soc.cores],
        "accesses": accesses,
        "trace": tracer.events,
    }


def _suffix(events, cut_time):
    return [event for event in events if event.time > cut_time]


def _run_scenario(name: str, backend: str) -> None:
    scenario = SCENARIOS[name]
    quantum = 1 if backend == "reference" else FAST_QUANTUM

    # ground truth: uninterrupted quantum=1 reference run
    truth_soc, truth_acc, truth_trc = _build(scenario, "reference", 1)
    truth_soc.run(max_events=500_000)
    truth = _final(truth_soc, truth_acc, truth_trc)
    assert truth_soc.all_halted

    # uninterrupted run on the backend under test
    ref_soc, ref_acc, ref_trc = _build(scenario, backend, quantum)
    ref_soc.run(max_events=500_000)
    ref = _final(ref_soc, ref_acc, ref_trc)
    for field in ("now", "ram", "states", "accesses"):
        assert ref[field] == truth[field], \
            f"{name}/{backend}: uninterrupted run diverged on {field}"

    for cut in scenario["cuts"]:
        # capture at the cut...
        cap_soc, cap_acc, cap_trc = _build(scenario, backend, quantum)
        cap_soc.run(until=cut)
        snap = Snapshot.from_dict(cap_soc.checkpoint().to_dict())
        # ...restore into a fresh platform and run to completion
        new_soc, new_acc, new_trc = _build(scenario, backend, quantum)
        new_soc.restore(snap)
        new_soc.run(max_events=500_000)
        new = _final(new_soc, new_acc, new_trc)
        # ...and let the capturing platform continue as well
        cap_soc.run(max_events=500_000)
        cap = _final(cap_soc, cap_acc, cap_trc)

        tag = f"{name}/{backend}@t={cut}"
        assert new["now"] == ref["now"], f"{tag}: end time diverged"
        assert new["ram"] == ref["ram"], f"{tag}: final RAM diverged"
        assert new["states"] == ref["states"], \
            f"{tag}: register files diverged"
        n = len(new["accesses"])
        assert new["accesses"] == ref["accesses"][len(ref["accesses"]) - n:], \
            f"{tag}: restored bus-access order is not the exact suffix"
        assert _suffix(new["trace"], snap.time) == \
            _suffix(ref["trace"], snap.time), \
            f"{tag}: obs trace suffix diverged"
        for field in ("now", "ram", "states", "accesses", "trace"):
            assert cap[field] == ref[field], \
                f"{tag}: checkpointing perturbed the capturing run " \
                f"({field})"


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestSnapshotDeterminism:
    def test_shared_counter(self):
        for backend in BACKENDS:
            _run_scenario("shared_counter", backend)

    def test_timer_isr(self):
        for backend in BACKENDS:
            _run_scenario("timer_isr", backend)

    def test_dma_mailbox(self):
        for backend in BACKENDS:
            _run_scenario("dma_mailbox", backend)
