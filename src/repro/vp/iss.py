"""The instruction-set simulator: one CPU core on the event kernel.

Each core is a simulation process that consumes simulated cycles per
instruction (ALU 1, branch 1, mul/div 3, memory 2).  Interrupts are
level-sensitive: when the core's ``irq`` signal is high and interrupts are
enabled, the core saves state and vectors to ``irq_vector``.

The core exposes *stall hooks* used by the two debugger models: the
non-intrusive VP debugger never stalls a core (it suspends the whole
simulator between events instead), while the intrusive hardware-probe
model injects per-core stalls -- the timing perturbation that creates
Heisenbugs (section VII).

Temporal decoupling (the batching tiers)
----------------------------------------
Paying one kernel event per retired instruction makes the ISS, not the
modeled workload, dominate wall-clock time.  Like SystemC/TLM2 loosely
timed platforms, the core therefore batches *local* progress -- straight
runs of ALU/branch instructions that touch nothing outside the register
file (:data:`repro.vp.isa.LOCAL_OPS`) -- into a single kernel wakeup,
bounded by a configurable time ``quantum``.  Each :class:`AsmProgram` is
decoded once into a per-pc ``batchable`` table plus lazily compiled
superblocks (:mod:`repro.vp.jit`; the *decode cache*, shared by every
core running the program).  Programs are immutable, so a core takes
its decode once, at construction, and executes the program it was
built with.

Backend tiers (``Cpu(backend=...)`` / ``SoCConfig.backend``):

- ``"reference"`` -- one instruction, one kernel event: the independent
  oracle every other tier is checked against.  Its semantics are the
  module's op table (``_OPS``): one handler per assembler op, each
  reading its operands, writing ``rd`` and setting ``pc`` itself.  The
  decode predecodes every pc into a ``(handler, args, delay)`` step
  (:attr:`DecodedProgram.steps`), so a retired instruction costs one
  index, one ``yield`` of a shared ``Delay`` and one handler call.  The
  table's keys are exactly the assembler's ops, and it shares nothing
  with :mod:`repro.vp.jit`;
- ``"compiled"`` (the default) -- chains of superblock-compiled batches
  (:func:`repro.vp.lanes.run_superblock_chain`);
- ``"vector"`` -- lane-lockstep batches for cores sharing one program
  (:mod:`repro.vp.lanes`), degrading to ``"compiled"`` for cores with no
  lane group.

Cycle counts are bit-identical to the per-instruction reference path:
batches accumulate exactly the per-instruction cycle costs, and every
*observable interaction* forces a synchronization boundary where the core
re-enters the kernel at the precise reference cycle.  This is the one
definition of the sync-boundary rule; the other modules point here.  Two
boundaries are static, per pc (the decode's ``batchable`` table):

- bus reads/writes (``lw``/``sw``/``swap``);
- mode changes (``ei``/``di``/``iret``/``halt``).

The others are dynamic, per core, and :meth:`Cpu._must_sync` is their
only full spelling -- the core loop's batch guard (which tests the
kernel-observer clause first), a lane's revalidation of a speculated
batch and a lane leader's choice of lanes all read it:

- an outstanding :meth:`Cpu.acquire_sync` request (the non-intrusive
  debugger holds one while attached);
- kernel :class:`~repro.desim.SimObserver` instrumentation (the obs
  probes see the identical per-instruction event stream);
- any post-instruction hook or an installed ``stall_hook``;
- an open interrupt window (interrupts enabled, outside an ISR, with an
  irq vector configured) -- the reference path samples ``irq`` before
  every instruction, so the batching tiers degrade to it;
- subscribers on ``pc_signal`` (debugger signal watchpoints).

``quantum=1`` disables batching entirely and reproduces the historical
per-instruction behavior event for event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.desim import Delay, Signal, Simulator
from repro.vp import jit
from repro.vp.bus import Bus
from repro.vp.isa import (AsmProgram, CYCLES, DEFAULT_CYCLES, Instr,
                          LINK_REGISTER, LOCAL_OPS, REGISTER_COUNT, _div32,
                          _to_signed32)
from repro.vp.lanes import run_superblock_chain

DEFAULT_QUANTUM = 64

BACKENDS = ("reference", "compiled", "vector")
DEFAULT_BACKEND = "compiled"

_MASK32 = 0xFFFFFFFF
_INT_MIN = -0x8000_0000
_INT_MAX = 0x7FFF_FFFF

# Register-file invariant: every register always holds the *canonical*
# signed 32-bit image of its value (-2**31 .. 2**31-1).  Every writer
# that can leave that range wraps (add/sub/mul/div, addi, li, loads);
# writers that cannot (bitwise ops, compares, mov of a canonical source,
# link writes) store raw.  slt and the blt/bge tests then compare the
# signed-32 images by construction -- no masking needed at compare sites.
# The compiled backend (repro.vp.jit) relies on the same invariant.


# ---------------------------------------------------------------------------
# the reference semantics: one handler per op
# ---------------------------------------------------------------------------
#
# ``handler(cpu, args)`` retires one instruction: it reads its operands
# (r0 reads as 0), writes ``rd`` (writes to r0 are dropped; pure ops skip
# the work) and sets ``cpu.pc`` last, so a faulting instruction leaves pc
# on itself.  Additive results take the in-range fast path and wrap only
# when they leave the word.

def _add(cpu: "Cpu", args) -> None:
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        value = (regs[ra] if ra else 0) + (regs[rb] if rb else 0)
        regs[rd] = (value if _INT_MIN <= value <= _INT_MAX
                    else _to_signed32(value))
    cpu.pc += 1


def _sub(cpu: "Cpu", args) -> None:
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        value = (regs[ra] if ra else 0) - (regs[rb] if rb else 0)
        regs[rd] = (value if _INT_MIN <= value <= _INT_MAX
                    else _to_signed32(value))
    cpu.pc += 1


def _mul(cpu: "Cpu", args) -> None:
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        regs[rd] = _to_signed32((regs[ra] if ra else 0)
                                * (regs[rb] if rb else 0))
    cpu.pc += 1


def _div(cpu: "Cpu", args) -> None:
    rd, ra, rb = args
    regs = cpu.regs
    divisor = regs[rb] if rb else 0
    if divisor == 0:  # faults even when rd is r0
        raise RuntimeError(f"{cpu.name}: division by zero at pc={cpu.pc}")
    if rd:
        regs[rd] = _div32(regs[ra] if ra else 0, divisor)
    cpu.pc += 1


def _and(cpu: "Cpu", args) -> None:
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        regs[rd] = (regs[ra] if ra else 0) & (regs[rb] if rb else 0)
    cpu.pc += 1


def _or(cpu: "Cpu", args) -> None:
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        regs[rd] = (regs[ra] if ra else 0) | (regs[rb] if rb else 0)
    cpu.pc += 1


def _xor(cpu: "Cpu", args) -> None:
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        regs[rd] = (regs[ra] if ra else 0) ^ (regs[rb] if rb else 0)
    cpu.pc += 1


def _shl(cpu: "Cpu", args) -> None:
    """32-bit logical left shift: the result wraps to a signed 32-bit
    word and the shift amount uses the low 5 bits, as on real 32-bit
    RISC hardware (and as compiled C firmware observes)."""
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        regs[rd] = _to_signed32(((regs[ra] if ra else 0) & _MASK32)
                                << ((regs[rb] if rb else 0) & 31))
    cpu.pc += 1


def _shr(cpu: "Cpu", args) -> None:
    """32-bit arithmetic right shift (sign-extending), shift amount
    masked to the low 5 bits."""
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        regs[rd] = (_to_signed32(regs[ra] if ra else 0)
                    >> ((regs[rb] if rb else 0) & 31))
    cpu.pc += 1


def _slt(cpu: "Cpu", args) -> None:
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        left = regs[ra] if ra else 0
        regs[rd] = 1 if left < (regs[rb] if rb else 0) else 0
    cpu.pc += 1


def _sltu(cpu: "Cpu", args) -> None:
    """Unsigned compare of the 32-bit two's-complement images."""
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        regs[rd] = 1 if (((regs[ra] if ra else 0) & _MASK32)
                         < ((regs[rb] if rb else 0) & _MASK32)) else 0
    cpu.pc += 1


def _seq(cpu: "Cpu", args) -> None:
    rd, ra, rb = args
    if rd:
        regs = cpu.regs
        left = regs[ra] if ra else 0
        regs[rd] = 1 if left == (regs[rb] if rb else 0) else 0
    cpu.pc += 1


def _addi(cpu: "Cpu", args) -> None:
    rd, ra, imm = args
    if rd:
        regs = cpu.regs
        value = (regs[ra] if ra else 0) + imm
        regs[rd] = (value if _INT_MIN <= value <= _INT_MAX
                    else _to_signed32(value))
    cpu.pc += 1


def _li(cpu: "Cpu", args) -> None:
    rd, imm = args
    if rd:
        cpu.regs[rd] = _to_signed32(imm)
    cpu.pc += 1


def _mov(cpu: "Cpu", args) -> None:
    rd, ra = args
    if rd:
        regs = cpu.regs
        regs[rd] = regs[ra] if ra else 0
    cpu.pc += 1


def _lw(cpu: "Cpu", args) -> None:
    rd, imm, base = args
    regs = cpu.regs
    value = _to_signed32(cpu.bus.read((regs[base] if base else 0) + imm,
                                      master=cpu.name))
    if rd:
        regs[rd] = value
    cpu.pc += 1


def _sw(cpu: "Cpu", args) -> None:
    rs, imm, base = args
    regs = cpu.regs
    cpu.bus.write((regs[base] if base else 0) + imm,
                  regs[rs] if rs else 0, master=cpu.name)
    cpu.pc += 1


def _swap(cpu: "Cpu", args) -> None:
    """Atomic exchange: the old word lands in ``rd`` after ``rd``'s value
    is stored."""
    rd, imm, base = args
    regs = cpu.regs
    bus = cpu.bus
    address = (regs[base] if base else 0) + imm
    old = _to_signed32(bus.read(address, master=cpu.name))
    bus.write(address, regs[rd] if rd else 0, master=cpu.name)
    if rd:
        regs[rd] = old
    cpu.pc += 1


def _beq(cpu: "Cpu", args) -> None:
    ra, rb, target = args
    regs = cpu.regs
    if (regs[ra] if ra else 0) == (regs[rb] if rb else 0):
        cpu.pc = target
    else:
        cpu.pc += 1


def _bne(cpu: "Cpu", args) -> None:
    ra, rb, target = args
    regs = cpu.regs
    if (regs[ra] if ra else 0) != (regs[rb] if rb else 0):
        cpu.pc = target
    else:
        cpu.pc += 1


def _blt(cpu: "Cpu", args) -> None:
    ra, rb, target = args
    regs = cpu.regs
    if (regs[ra] if ra else 0) < (regs[rb] if rb else 0):
        cpu.pc = target
    else:
        cpu.pc += 1


def _bge(cpu: "Cpu", args) -> None:
    ra, rb, target = args
    regs = cpu.regs
    if (regs[ra] if ra else 0) >= (regs[rb] if rb else 0):
        cpu.pc = target
    else:
        cpu.pc += 1


def _jmp(cpu: "Cpu", args) -> None:
    cpu.pc = args[0]


def _jal(cpu: "Cpu", args) -> None:
    cpu.regs[LINK_REGISTER] = cpu.pc + 1
    cpu.pc = args[0]


def _jr(cpu: "Cpu", args) -> None:
    ra = args[0]
    cpu.pc = cpu.regs[ra] if ra else 0


def _ret(cpu: "Cpu", args) -> None:
    cpu.pc = cpu.regs[LINK_REGISTER]


def _nop(cpu: "Cpu", args) -> None:
    cpu.pc += 1


def _halt(cpu: "Cpu", args) -> None:
    cpu.halted = True
    cpu.pc += 1


def _ei(cpu: "Cpu", args) -> None:
    cpu.interrupts_enabled = True
    cpu.pc += 1


def _di(cpu: "Cpu", args) -> None:
    cpu.interrupts_enabled = False
    cpu.pc += 1


def _iret(cpu: "Cpu", args) -> None:
    """Return from interrupt.  The ``"iret"`` hooks run before pc moves
    to ``epc`` (they still see the iret's pc)."""
    if not cpu.in_isr:
        raise RuntimeError(f"{cpu.name}: iret outside ISR")
    cpu.regs = list(cpu.saved_regs)
    epc = cpu.epc
    cpu.in_isr = False
    if cpu._irq_hooks:
        for hook in list(cpu._irq_hooks):
            hook(cpu, "iret")
    cpu.pc = epc


# The op table: the reference semantics of every assembler op.
_OPS = {
    "add": _add, "sub": _sub, "mul": _mul, "div": _div,
    "and": _and, "or": _or, "xor": _xor, "shl": _shl, "shr": _shr,
    "slt": _slt, "sltu": _sltu, "seq": _seq,
    "addi": _addi, "li": _li, "mov": _mov,
    "lw": _lw, "sw": _sw, "swap": _swap,
    "beq": _beq, "bne": _bne, "blt": _blt, "bge": _bge,
    "jmp": _jmp, "jal": _jal, "jr": _jr, "ret": _ret,
    "nop": _nop, "halt": _halt, "ei": _ei, "di": _di, "iret": _iret,
}

# The reference path yields one shared, frozen Delay per op cost instead
# of allocating one per retired instruction.
_OP_DELAYS = {op: Delay(cycles) for op, cycles in CYCLES.items()}
_DEFAULT_DELAY = Delay(DEFAULT_CYCLES)


def _unknown_op(cpu: "Cpu", op: str) -> None:
    """The step of an op without reference semantics (only a hand-built
    program can hold one): it faults when it retires, after its delay,
    like any faulting instruction.  Its step args are the op name."""
    raise RuntimeError(f"{cpu.name}: unknown op {op!r}")


@dataclass
class CoreState:
    """Architectural state snapshot (what the debugger shows)."""

    core_id: int
    pc: int
    regs: List[int]
    halted: bool
    interrupts_enabled: bool
    in_isr: bool
    cycle_count: int
    instr_count: int


# ---------------------------------------------------------------------------
# decode cache
# ---------------------------------------------------------------------------

class DecodedProgram:
    """Dispatch-ready decode of one :class:`AsmProgram`'s immutable
    instruction tuple (``instrs``).

    Two per-pc tables -- ``steps``, the reference path's predecoded
    ``(handler, args, delay)`` per instruction (the ``_OPS`` handler and
    the shared ``Delay`` of its cost), and ``batchable`` (no observable
    interaction) -- plus the lazily built superblock caches of the
    compiled and vector tiers (:mod:`repro.vp.jit`), which hang off the
    same object.  Built once per program and never revalidated: the
    instructions cannot change.
    """

    __slots__ = ("instrs", "n", "steps", "batchable", "_superblocks",
                 "_laneblocks")

    def __init__(self, program: AsmProgram) -> None:
        instrs = program.instructions
        self.instrs = instrs
        self.n = len(instrs)
        steps = []
        for instr in instrs:
            handler = _OPS.get(instr.op)
            if handler is None:
                steps.append((_unknown_op, instr.op, _DEFAULT_DELAY))
            else:
                steps.append((handler, instr.args,
                              _OP_DELAYS.get(instr.op, _DEFAULT_DELAY)))
        self.steps = steps
        self.batchable = [instr.op in LOCAL_OPS for instr in instrs]
        self._superblocks = None
        self._laneblocks = None

    def superblocks(self) -> jit.SuperBlockCache:
        """The lazily built superblock cache for the compiled backend.

        Salted with :data:`repro.vp.jit.JIT_SALT` (a digest of the
        compiler source, the farm's code-version-salt idiom): editing
        the block compiler invalidates every cache built by the old
        version.
        """
        cache = self._superblocks
        if cache is None or cache.salt != jit.JIT_SALT:
            cache = self._superblocks = jit.SuperBlockCache(
                self.instrs, self.batchable)
        return cache

    def lane_superblocks(self) -> jit.LaneBlockCache:
        """The lane-vectorized superblock cache (the vector backend's
        tier), lazily built and salted exactly like :meth:`superblocks`."""
        cache = self._laneblocks
        if cache is None or cache.salt != jit.JIT_SALT:
            cache = self._laneblocks = jit.LaneBlockCache(
                self.instrs, self.batchable)
        return cache


def decode_program(program: AsmProgram) -> DecodedProgram:
    """Fetch (or build and cache) the decoded form of ``program``.

    The cache lives on the program object itself, so it is shared by
    every core running the same :class:`AsmProgram` and dies with it.
    Each :class:`Cpu` calls this once, at construction.
    """
    cached = getattr(program, "_iss_decoded", None)
    if cached is not None and cached.instrs is program.instructions:
        return cached
    decoded = program._iss_decoded = DecodedProgram(program)
    return decoded


# ---------------------------------------------------------------------------
# the core
# ---------------------------------------------------------------------------

class Cpu:
    """One RISC core executing an :class:`AsmProgram`."""

    def __init__(self, sim: Simulator, bus: Bus, program: AsmProgram,
                 core_id: int = 0, irq_vector: Optional[int] = None,
                 entry: int = 0, quantum: int = DEFAULT_QUANTUM,
                 backend: str = DEFAULT_BACKEND) -> None:
        self.sim = sim
        self.bus = bus
        self.program = program
        self.core_id = core_id
        self.name = f"core{core_id}"
        self.pc = entry
        self.regs = [0] * REGISTER_COUNT
        self.halted = False
        self.interrupts_enabled = False
        self.in_isr = False
        self.irq_vector = irq_vector
        self.epc = 0
        self.saved_regs: List[int] = []
        self.cycle_count = 0
        self.instr_count = 0
        # Temporal decoupling: max simulated cycles executed per kernel
        # wakeup on the batching tiers; 1 forces the per-instruction
        # reference path (see module docstring for the sync-boundary
        # rules).
        if not isinstance(quantum, int) or quantum < 1:
            raise ValueError(f"quantum must be a positive int, "
                             f"got {quantum!r}")
        self.quantum = quantum
        # Execution backend tier (see module docstring).  "reference"
        # pins the event-exact per-instruction path regardless of
        # quantum; all tiers are bit-identical and the sync-boundary
        # rules apply unchanged to both batching tiers.
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {sorted(BACKENDS)}, "
                             f"got {backend!r}")
        self.backend = backend
        # Fixed bus-arbitration rank.  Kernel wakeups tie-break on
        # (priority, seq); seq depends on *when* an event was scheduled,
        # which temporal decoupling changes (a batch schedules its wakeup
        # at batch start, the reference path one instruction earlier), so
        # relying on seq makes tied-cycle access order quantum-dependent.
        # A distinct per-core priority pins the order architecturally:
        # device masters (priority 0) win tied cycles, then cores in
        # core-id order -- identical on every path.
        self.priority = core_id + 1
        # Signals observable by the debugger (non-intrusively).
        self.irq = Signal(f"{self.name}.irq", 0)
        self.halted_signal = Signal(f"{self.name}.halted", 0)
        self.pc_signal = Signal(f"{self.name}.pc", entry)
        # Hook returning extra stall cycles before each instruction
        # (installed by the intrusive hardware-probe model).
        self.stall_hook: Optional[Callable[["Cpu"], float]] = None
        # Hooks called after each instruction (tracers, probes, ...).
        # Append-only list: several observers can coexist on one core.
        self._post_instr_hooks: List[Callable[["Cpu", Instr], None]] = []
        # Hooks called on interrupt entry ("enter") and on iret ("iret").
        # Both happen only on the reference path (vectoring requires an
        # open irq window and iret is never batchable), so the checks
        # cost nothing on the batching tiers.
        self._irq_hooks: List[Callable[["Cpu", str], None]] = []
        # Outstanding synchronization requests: while > 0 the core runs
        # per-instruction regardless of `quantum` (debugger contract).
        self._sync_requests = 0
        # The decode this core executes for its whole life.
        self._decoded = decode_program(program)
        # Lane-lockstep state (backend "vector"): the SoC wires cores
        # sharing one program into a repro.vp.lanes.LaneGroup, which
        # assigns _lane_group/_lane_id.  _lane_pending holds a batch a
        # group leader speculatively retired for this lane, consumed --
        # unless a sync boundary appeared since -- at the next wake-up.
        # Cores without a group (heterogeneous programs, n_cores=1)
        # degrade to the compiled tier.
        self._lane_group = None
        self._lane_id = -1
        self._lane_pending = None
        # Checkpoint support (repro.snap): which kind of yield the core's
        # process is currently suspended at.  "ref" marks the reference
        # path's per-instruction Delay -- the only suspension point whose
        # continuation is reconstructible from architectural state alone
        # (pc + registers determine the pending instruction), so snapshot
        # capture parks every core there before serializing.
        self._wait_state: Optional[str] = None
        self.process = None

    # ------------------------------------------------------------------
    def add_post_instr_hook(
            self, hook: Callable[["Cpu", Instr], None]
    ) -> Callable[["Cpu", Instr], None]:
        """Register a hook called after every retired instruction."""
        self._post_instr_hooks.append(hook)
        return hook

    def remove_post_instr_hook(
            self, hook: Callable[["Cpu", Instr], None]) -> None:
        self._post_instr_hooks.remove(hook)

    def add_irq_hook(
            self, hook: Callable[["Cpu", str], None]
    ) -> Callable[["Cpu", str], None]:
        """Register a hook called with ``(cpu, "enter")`` when the core
        vectors into its ISR and ``(cpu, "iret")`` when it returns."""
        self._irq_hooks.append(hook)
        return hook

    def remove_irq_hook(self, hook: Callable[["Cpu", str], None]) -> None:
        self._irq_hooks.remove(hook)

    # ------------------------------------------------------------------
    def acquire_sync(self) -> None:
        """Force per-instruction execution (quantum=1 behavior) until the
        matching :meth:`release_sync`.  Takes effect at the next
        synchronization boundary; counted, so several debuggers nest."""
        self._sync_requests += 1

    def release_sync(self) -> None:
        if self._sync_requests <= 0:
            raise RuntimeError(f"{self.name}: release_sync without acquire")
        self._sync_requests -= 1

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the core's execution process on the kernel."""
        self.process = self.sim.spawn(self._run(), name=self.name,
                                      priority=self.priority)

    def state(self) -> CoreState:
        return CoreState(self.core_id, self.pc, list(self.regs), self.halted,
                         self.interrupts_enabled, self.in_isr,
                         self.cycle_count, self.instr_count)

    # ------------------------------------------------------------------
    def _must_sync(self) -> bool:
        """The dynamic sync-boundary rule (module docstring): True while
        an observable interaction pins this core to the per-instruction
        reference path.  Read only where a batch could start (after the
        ``batchable`` lookup); keep it cheap.  The core loop's batch
        guard tests the kernel-observer clause (``Simulator.has_observers``,
        a plain attribute) before calling this, so a core that observers
        pin to the reference path -- every fault job -- pays no call per
        instruction; the clause stays here, since lane revalidation and
        lane selection read the rule whole."""
        return not (self._sync_requests == 0
                    and not self.sim.has_observers
                    and not self._post_instr_hooks
                    and self.stall_hook is None
                    and not (self.interrupts_enabled and not self.in_isr
                             and self.irq_vector is not None)
                    and not self.pc_signal.observed)

    def _run(self, resume: bool = False):
        """The core's execution process.

        With ``resume=True`` (checkpoint restore, :mod:`repro.snap`) the
        core is parked at the reference path's per-instruction Delay,
        which already elapsed: the process is spawned at its wake time
        and retires the instruction at ``pc`` without yielding first.
        """
        sim = self.sim
        lane_group = self._lane_group
        decoded = self._decoded
        instructions = decoded.instrs
        steps = decoded.steps
        batchable = decoded.batchable
        n = decoded.n
        quantum = self.quantum
        batching = quantum > 1 and self.backend != "reference"
        while not self.halted:
            if lane_group is not None:
                # Any non-vector iteration invalidates the parked claim --
                # a leader must never read a lane that is about to
                # execute outside the lockstep protocol.
                lane_group.unpark(self)
            # Interrupt entry check (level-sensitive); a resumed core
            # sampled irq before its checkpoint.
            if (not resume and self.interrupts_enabled and not self.in_isr
                    and self.irq_vector is not None and self.irq.read()):
                self.epc = self.pc
                self.saved_regs = list(self.regs)
                self.pc = self.irq_vector
                self.in_isr = True
                if self._irq_hooks:
                    for hook in list(self._irq_hooks):
                        hook(self, "enter")
            if not 0 <= self.pc < n:
                raise RuntimeError(
                    f"{self.name}: pc {self.pc} outside program "
                    f"(len {n})")
            if resume:
                # The parked instruction's Delay elapsed before the
                # checkpoint (the DmaDevice._transfer(resume=True) idiom).
                resume = False
                pc = self.pc
                handler, args, delay = steps[pc]
            else:
                if self.stall_hook is not None:
                    stall = self.stall_hook(self)
                    if stall > 0:
                        self._wait_state = "stall"
                        yield Delay(stall)
                elif batching:
                    # Batching eligibility: no observable interaction may
                    # fall inside a batch (module docstring).  The
                    # observer clause of _must_sync() is hoisted: it pins
                    # a fault job's core for the whole job.
                    if batchable[self.pc] and not sim.has_observers \
                            and not self._must_sync():
                        if lane_group is not None:
                            # Lane-lockstep tier: one group step retires
                            # this batch for every convergent lane (twins
                            # by state copy, distinct lanes through the
                            # lane-compiled superblocks); divergent lanes
                            # were simply not collected and rejoin at the
                            # next common pc.  The early pc commit (before
                            # the delay) publishes the parked state a
                            # later-waking leader reads.
                            batch = lane_group.step(self)
                            while batch is not None:
                                self.pc = batch.pc
                                lane_group.park(self)
                                self._wait_state = "lane"
                                # One kernel event per batch (not the
                                # compiled tier's two): the wakeup still
                                # lands on a reference-path cycle, and
                                # tied-time order is pinned by per-core
                                # priority, not by an intermediate wake.
                                yield Delay(batch.total)
                                self.cycle_count += batch.total
                                self.instr_count += batch.count
                                self.pc_signal.write(self.pc)
                                if batch.fault is not None:
                                    raise RuntimeError(
                                        f"{self.name}: {batch.fault}")
                                # A leader may have retired this lane's
                                # next batch from its parked state while
                                # it slept: consume it unless a sync
                                # boundary appeared since, in which case
                                # restore the pre-batch registers and
                                # re-execute it.
                                batch = self._lane_pending
                                self._lane_pending = None
                                if batch is not None and self._must_sync():
                                    self.regs[:] = batch.backup
                                    batch = None
                            continue
                        # Superblock tier: one generated-function call per
                        # basic block, chained until the quantum budget is
                        # spent or a sync boundary is reached.  The quantum
                        # rounds up to block granularity -- legal because
                        # blocks contain no observable interaction, so
                        # every wakeup lands on a reference-path cycle.
                        pc, total, count, cost, fault = run_superblock_chain(
                            decoded, self.regs, self.pc, quantum)
                        # Two kernel events per batch: the final
                        # instruction's delay is issued separately so that
                        # every batch yield is scheduled at a simulation
                        # time where the reference path also scheduled
                        # one.  Time alignment alone is not enough for
                        # tied-time ordering -- the batch's first wakeup
                        # carries a seq from batch *start*, older than the
                        # reference path's -- which is why core processes
                        # run at a fixed per-core kernel priority (see
                        # __init__): tied wakeups order by (time,
                        # priority), not history.
                        self._wait_state = "batch"
                        if total > cost:
                            yield Delay(total - cost)
                        yield Delay(cost)
                        self.cycle_count += total
                        self.instr_count += count
                        self.pc = pc
                        self.pc_signal.write(pc)
                        if fault is not None:
                            raise RuntimeError(f"{self.name}: {fault}")
                        continue
                # Reference path: one instruction, one kernel event,
                # one predecoded step.  The step is fetched before the
                # yield, so the instruction that retires is the one at
                # pc when its delay began.
                pc = self.pc
                handler, args, delay = steps[pc]
                self._wait_state = "ref"
                yield delay
            self.cycle_count += delay.duration
            self.instr_count += 1
            handler(self, args)
            self.pc_signal.write(self.pc)
            if self._post_instr_hooks:
                for hook in self._post_instr_hooks:
                    hook(self, instructions[pc])
        self.halted_signal.write(1)


__all__ = ["BACKENDS", "CoreState", "Cpu", "DEFAULT_BACKEND",
           "DEFAULT_QUANTUM", "DecodedProgram", "decode_program"]
