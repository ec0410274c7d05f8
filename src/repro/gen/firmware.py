"""Seeded random firmware generator: a grammar over ``repro.vp.isa``.

Every generated program terminates by construction -- loops are bounded
counters, spinlocks always release, mailbox polls are trip-limited, and
the interrupt scenario's spin window ends in ``halt`` -- because the
differential harness compares *final* states: a ``max_events`` cutoff
mid-run would land at different architectural points on different
backends and report false divergences.

The grammar is biased toward the classes that historically held bugs in
this repo (:class:`BiasKnobs`): overflow chains that cross ``+/-2**31``
(PR 6's unbounded-arithmetic bug), shift/div corners (PR 2/4's ``div``,
``sltu`` and shift-wrapping bugs), tight loops whose bodies cross the
superblock cap (the compiled tier's batching seam), cross-core
shared-RAM traffic, irq windows, and semaphore/mailbox idioms.

Determinism contract: every program is a pure function of the
``random.Random`` handed in; callers derive it as
``random.Random(f"{seed}:{stream}")`` per the house rule, so campaigns
replay and cache byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from repro.vp.soc import (INTC_BASE, MBOX_BASE, MBOX_STRIDE, SEM_BASE,
                          TIMER_BASE)

# Registers the grammar treats as scratch data.  r10 always holds a
# non-zero divisor, r11 a small shift count, r12/r13 are loop counters
# and addressing temps, r14/r15 stay link/stack by convention.
_DATA_REGS = list(range(1, 10))
_ALU_OPS = ["add", "sub", "mul", "and", "or", "xor", "slt", "sltu", "seq"]
_EDGE_WORDS = [2 ** 31 - 1, -2 ** 31, 2 ** 31 - 17, -(2 ** 31 - 5),
               0x7FFF0000, 0x55555555, 123456789]

# The ISS superblock cap (repro.vp.iss); loop bodies sized past it force
# the compiled/vector tiers to split a single loop iteration across
# superblocks -- exactly the batching seam the fuzzer must lean on.
SUPERBLOCK_CAP = 64


@dataclass(frozen=True)
class BiasKnobs:
    """Relative weights of the grammar's segment kinds.

    Each weight is the likelihood mass of one historically-buggy
    program class; zero removes the class.  The defaults over-weight
    overflow chains and superblock-crossing loops (the two classes that
    found real bugs in PRs 2/4/6).  ``shared``/``semaphore``/``mailbox``
    only apply to multi-core scenarios and default low because they
    emit longer fixed idioms.
    """

    alu: float = 3.0
    overflow: float = 3.0
    div: float = 2.0
    shift: float = 2.0
    mem: float = 2.0
    loop: float = 2.0
    superblock: float = 2.0
    branch: float = 1.5
    call: float = 1.0
    shared: float = 1.5
    semaphore: float = 1.0
    mailbox: float = 1.0

    def __post_init__(self) -> None:
        for knob in fields(self):
            value = getattr(self, knob.name)
            if not value >= 0:
                raise ValueError(f"bias knob {knob.name} must be >= 0, "
                                 f"got {value!r}")
        if not any(getattr(self, knob.name) > 0 for knob in fields(self)):
            raise ValueError("at least one bias knob must be positive")

    def to_dict(self) -> Dict[str, float]:
        return {knob.name: getattr(self, knob.name)
                for knob in fields(self)}

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, float]]) -> "BiasKnobs":
        if data is None:
            return cls()
        unknown = set(data) - {knob.name for knob in fields(cls)}
        if unknown:
            raise ValueError(f"unknown bias knob(s): {sorted(unknown)}")
        return cls(**data)


def _weighted_choice(rng: random.Random, weighted: List) -> str:
    total = sum(weight for _, weight in weighted)
    mark = rng.random() * total
    for kind, weight in weighted:
        mark -= weight
        if mark < 0:
            return kind
    return weighted[-1][0]


def generate_firmware(rng: random.Random,
                      knobs: Optional[BiasKnobs] = None,
                      core_id: int = 0, n_cores: int = 1,
                      n_segments: int = 8) -> str:
    """One terminating assembly program drawn from the biased grammar."""
    knobs = knobs or BiasKnobs()
    weighted = [(kind, weight) for kind, weight in knobs.to_dict().items()
                if weight > 0 and (n_cores > 1 or kind not in
                                   ("shared", "semaphore", "mailbox"))]
    lines: List[str] = []
    subs: List[str] = []
    spill_base = 100 + core_id * 32  # per-core result window in shared RAM

    def reg() -> str:
        return f"r{rng.choice(_DATA_REGS)}"

    def alu_line() -> str:
        op = rng.choice(_ALU_OPS)
        src = rng.choice(["r0"] + [f"r{i}" for i in range(1, 12)])
        return f"    {op} {reg()}, {reg()}, {src}"

    # Prologue: seed the register file (negatives included), a non-zero
    # divisor in r10, a shift count in r11 (deliberately allowed past 31
    # to exercise the mask-to-5-bits rule).
    for index in _DATA_REGS:
        lines.append(f"    li r{index}, {rng.randint(-60000, 60000)}")
    lines.append(f"    li r10, {rng.choice([-7, -3, -1, 2, 3, 7, 11])}")
    lines.append(f"    li r11, {rng.randint(0, 37)}")

    for uid in range(1, n_segments + 1):
        kind = _weighted_choice(rng, weighted)
        if kind == "alu":
            for _ in range(rng.randint(2, 8)):
                lines.append(alu_line())
        elif kind == "overflow":
            # Seed word-edge constants, then chain wrapping ops so
            # intermediates cross +/-2**31 and products leave 32 bits.
            lines.append(f"    li {reg()}, {rng.choice(_EDGE_WORDS)}")
            for _ in range(rng.randint(2, 6)):
                op = rng.choice(["add", "sub", "mul", "mul"])
                lines.append(f"    {op} {reg()}, {reg()}, {reg()}")
        elif kind == "div":
            lines.append(f"    div {reg()}, {reg()}, r10")
            if rng.random() < 0.3:
                # INT_MIN / -1 territory: force the wrap corner.
                lines.append(f"    li {reg()}, {-2 ** 31}")
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
        elif kind == "superblock":
            # A tight self-loop whose body crosses the superblock cap:
            # the compiled and vector tiers must split one iteration
            # across blocks and still retire it cycle-exactly.
            body = rng.randint(SUPERBLOCK_CAP + 4, SUPERBLOCK_CAP + 24)
            lines.append("    li r12, 0")
            lines.append(f"    li r13, {rng.randint(2, 4)}")
            lines.append(f"cap{uid}:")
            for _ in range(body):
                lines.append(alu_line())
            lines.append("    addi r12, r12, 1")
            lines.append(f"    blt r12, r13, cap{uid}")
        elif kind == "branch":
            op = rng.choice(["beq", "bne", "blt", "bge"])
            lines.append(f"    {op} {reg()}, {reg()}, fwd{uid}")
            for _ in range(rng.randint(1, 3)):
                lines.append(alu_line())
            lines.append(f"fwd{uid}: nop")
        elif kind == "call":
            lines.append(f"    jal sub{uid}")
            subs.append(f"sub{uid}:")
            subs.append(alu_line())
            subs.append("    ret")
        elif kind == "shared":
            # Cross-core read-modify-write races on low shared RAM: the
            # bus access sequence is a total order all backends must
            # reproduce exactly, lost updates included.
            address = rng.randint(0, 15)
            trips = rng.randint(2, 8)
            lines.append("    li r12, 0")
            lines.append(f"    li r13, {trips}")
            lines.append(f"race{uid}:")
            lines.append(f"    lw r8, {address}(r0)")
            lines.append("    addi r8, r8, 1")
            lines.append(f"    sw r8, {address}(r0)")
            lines.append("    addi r12, r12, 1")
            lines.append(f"    blt r12, r13, race{uid}")
        elif kind == "semaphore":
            # Bounded spinlock-protected increments; the lock is always
            # released, so both cores make global progress.
            sem = rng.randint(0, 7)
            address = 16 + rng.randint(0, 7)
            trips = rng.randint(2, 6)
            lines.append(f"    li r7, {SEM_BASE + sem}")
            lines.append("    li r12, 0")
            lines.append(f"    li r13, {trips}")
            lines.append(f"crit{uid}:")
            lines.append(f"acq{uid}:")
            lines.append("    lw r8, 0(r7)")
            lines.append(f"    bne r8, r0, acq{uid}")
            lines.append(f"    lw r8, {address}(r0)")
            lines.append("    addi r8, r8, 1")
            lines.append(f"    sw r8, {address}(r0)")
            lines.append("    sw r0, 0(r7)")
            lines.append("    addi r12, r12, 1")
            lines.append(f"    blt r12, r13, crit{uid}")
        elif kind == "mailbox":
            # Send a word (sometimes to self, guaranteeing delivery),
            # then poll the own port with a bounded trip count -- no
            # message within the window is fine, hanging is not.
            dst = core_id if rng.random() < 0.5 \
                else rng.randrange(n_cores)
            port = MBOX_BASE + core_id * MBOX_STRIDE
            payload = rng.randint(-1000, 1000)
            lines.append(f"    li r7, {port}")
            lines.append(f"    li r8, {dst}")
            lines.append("    sw r8, 0(r7)")       # TX_DST
            lines.append(f"    li r8, {payload}")
            lines.append("    sw r8, 1(r7)")       # TX_DATA (sends)
            lines.append("    li r12, 0")
            lines.append(f"    li r13, {rng.randint(3, 8)}")
            lines.append(f"poll{uid}:")
            lines.append("    lw r8, 3(r7)")       # RX_COUNT
            lines.append(f"    bne r8, r0, got{uid}")
            lines.append("    addi r12, r12, 1")
            lines.append(f"    blt r12, r13, poll{uid}")
            lines.append(f"    jmp miss{uid}")
            lines.append(f"got{uid}:")
            lines.append("    lw r9, 2(r7)")       # RX_DATA
            lines.append(f"miss{uid}: nop")

    # Epilogue: spill the data registers into this core's result window.
    for offset, index in enumerate(_DATA_REGS):
        lines.append(f"    sw r{index}, {spill_base + offset}(r0)")
    lines.append("    halt")
    lines.extend(subs)
    return "\n".join(lines) + "\n"


def generate_irq_firmware(rng: random.Random) -> Dict[str, object]:
    """A terminating timer-interrupt scenario for one core.

    The main body opens and closes the interrupt window around a long
    batchable stretch (the irq must be held at the boundary, never
    mid-batch), then spins a *bounded* loop so the program halts whether
    or not the irq lands inside it.  Two ISR shapes: ``halt`` inside the
    ISR, or ack-and-``iret`` back into the bounded spin.
    """
    period = rng.choice([7, 13, 30, 57, 101])
    warm_trips = rng.randint(50, 300)
    spin_trips = rng.randint(500, 3000)
    isr_halts = rng.random() < 0.5
    marker = rng.randint(1, 10000)
    lines = [
        f"    li r2, {TIMER_BASE}",
        f"    li r3, {period}",
        "    sw r3, 1(r2)     ; timer period",
        "    li r3, 1",
        "    sw r3, 0(r2)     ; timer enable",
        "    li r5, 0",
        f"    li r6, {warm_trips}",
        "    di",
        "warm:                ; batched stretch with the window closed",
        "    add r7, r5, r6",
        "    xor r8, r7, r6",
        "    addi r5, r5, 1",
        "    blt r5, r6, warm",
        "    ei",
        "    li r5, 0",
        f"    li r6, {spin_trips}",
        "spin:",
        "    addi r9, r9, 1",
        "    addi r5, r5, 1",
        "    blt r5, r6, spin",
        "    halt",
        "isr:",
        f"    li r4, {TIMER_BASE + 3}",
        "    sw r0, 0(r4)     ; ack timer (deasserts the line)",
        f"    li r4, {marker}",
        "    sw r4, 90(r0)",
    ]
    if isr_halts:
        lines.append("    halt")
    else:
        # One-shot iret ISR.  All three steps are load-bearing: the
        # timer must be disabled (or it pends again mid-ISR), its STATUS
        # acked (deasserts the source), and the INTC pending bit cleared
        # (the INTC *latches* edges -- without the ACK the core-facing
        # line stays high and iret re-enters the ISR forever).
        lines.append(f"    li r4, {TIMER_BASE}")
        lines.append("    sw r0, 0(r4) ; disable timer: one-shot isr")
        lines.append(f"    li r4, {TIMER_BASE + 3}")
        lines.append("    sw r0, 0(r4) ; ack timer status")
        lines.append(f"    li r4, {INTC_BASE + 2}")
        lines.append("    li r3, 1")
        lines.append("    sw r3, 0(r4) ; ack intc line 0")
        lines.append("    iret")
    return {"source": "\n".join(lines) + "\n", "isr_label": "isr",
            "timer": 0, "core": 0}


def generate_scenario(seed: int,
                      knobs: Optional[Dict[str, float]] = None) -> Dict:
    """One JSON-pure differential scenario: programs + platform shape.

    Scenario families, chosen by seed: single-core, two-core distinct
    programs (concurrency knobs live), four-core homogeneous (the vector
    backend's lane-grouping turf -- one shared source), and the
    single-core irq window.  Pure function of ``seed`` and ``knobs``.
    """
    rng = random.Random(f"{seed}:scenario")
    bias = BiasKnobs.from_dict(knobs)
    family = rng.choice(["single", "single", "duo", "quad", "irq"])
    quantum = rng.choice([8, 64, 64, 128])
    ram_words = rng.choice([2048, 4096])
    scenario = {"kind": "firmware", "seed": seed, "family": family,
                "quantum": quantum, "ram_words": ram_words, "irq": None}
    if family == "single":
        scenario["n_cores"] = 1
        scenario["programs"] = {"0": generate_firmware(rng, bias)}
    elif family == "duo":
        scenario["n_cores"] = 2
        scenario["programs"] = {
            str(core): generate_firmware(rng, bias, core_id=core,
                                         n_cores=2)
            for core in range(2)}
    elif family == "quad":
        scenario["n_cores"] = 4
        shared = generate_firmware(rng, bias, core_id=0, n_cores=4)
        scenario["programs"] = {str(core): shared for core in range(4)}
    else:  # irq
        irq = generate_irq_firmware(rng)
        scenario["n_cores"] = 1
        scenario["programs"] = {"0": irq["source"]}
        scenario["irq"] = {"isr_label": irq["isr_label"],
                           "core": irq["core"], "timer": irq["timer"]}
    return scenario


__all__ = ["BiasKnobs", "SUPERBLOCK_CAP", "generate_firmware",
           "generate_irq_firmware", "generate_scenario"]
