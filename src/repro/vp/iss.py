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
superblocks (:mod:`repro.vp.jit`; the *decode cache*, invalidated when
the program object or its length changes; call :func:`invalidate_decode`
after editing instructions in place).

Backend tiers (``Cpu(backend=...)`` / ``SoCConfig.backend``):

- ``"reference"`` -- one instruction, one kernel event, executed by
  :meth:`Cpu._execute`: the independent oracle every other tier is
  checked against;
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
only spelling -- the core loop's batch guard, a lane's revalidation of a
speculated batch and a lane leader's choice of lanes all read it:

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

# The reference path yields one shared, frozen Delay per op cost instead
# of allocating one per retired instruction.
_OP_DELAYS = {op: Delay(cycles) for op, cycles in CYCLES.items()}
_DEFAULT_DELAY = Delay(DEFAULT_CYCLES)

# Register-file invariant: every register always holds the *canonical*
# signed 32-bit image of its value (-2**31 .. 2**31-1).  Every writer
# that can leave that range wraps (add/sub/mul/div, addi, li, loads);
# writers that cannot (bitwise ops, compares, mov of a canonical source,
# link writes) store raw.  slt and the blt/bge tests then compare the
# signed-32 images by construction -- no masking needed at compare sites.
# The compiled backend (repro.vp.jit) relies on the same invariant.


def _unsigned_lt(a: int, b: int) -> int:
    """``sltu``: compare the 32-bit two's-complement images."""
    return 1 if (a & _MASK32) < (b & _MASK32) else 0


def _shl32(a: int, b: int) -> int:
    """``shl``: 32-bit logical left shift.  The result wraps to a signed
    32-bit word and the shift amount uses the low 5 bits, as on real
    32-bit RISC hardware (and as compiled C firmware observes)."""
    return _to_signed32((a & _MASK32) << (b & 31))


def _shr32(a: int, b: int) -> int:
    """``shr``: 32-bit arithmetic right shift (sign-extending), shift
    amount masked to the low 5 bits."""
    return _to_signed32(a) >> (b & 31)


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
    """Dispatch-ready decode of one :class:`AsmProgram`.

    A per-pc ``batchable`` table (no observable interaction) plus the
    lazily built superblock caches of the compiled and vector tiers
    (:mod:`repro.vp.jit`), which hang off the same object, so one decode
    invalidation drops every tier.
    """

    __slots__ = ("n", "batchable", "_source_list", "_superblocks",
                 "_laneblocks")

    def __init__(self, program: AsmProgram) -> None:
        instrs = program.instructions
        self._source_list = instrs
        self.n = len(instrs)
        self.batchable = [instr.op in LOCAL_OPS for instr in instrs]
        self._superblocks = None
        self._laneblocks = None

    def matches(self, program: AsmProgram) -> bool:
        """Cheap identity check: same instruction list, same length.
        In-place edits that keep the length need :func:`invalidate_decode`."""
        return (program.instructions is self._source_list
                and len(program.instructions) == self.n)

    def superblocks(self) -> jit.SuperBlockCache:
        """The lazily built superblock cache for the compiled backend.

        Salted with :data:`repro.vp.jit.JIT_SALT` (a digest of the
        compiler source, the farm's code-version-salt idiom): editing
        the block compiler invalidates every cache built by the old
        version, exactly like an in-place program edit invalidates the
        decode itself.
        """
        cache = self._superblocks
        if cache is None or cache.salt != jit.JIT_SALT:
            cache = self._superblocks = jit.SuperBlockCache(
                self._source_list, self.batchable)
        return cache

    def lane_superblocks(self) -> jit.LaneBlockCache:
        """The lane-vectorized superblock cache (the vector backend's
        tier), lazily built and salted exactly like :meth:`superblocks`."""
        cache = self._laneblocks
        if cache is None or cache.salt != jit.JIT_SALT:
            cache = self._laneblocks = jit.LaneBlockCache(
                self._source_list, self.batchable)
        return cache


def decode_program(program: AsmProgram) -> DecodedProgram:
    """Fetch (or build and cache) the decoded form of ``program``.

    The cache lives on the program object itself, so it is shared by
    every core running the same :class:`AsmProgram` and dies with it.
    """
    cached = getattr(program, "_iss_decoded", None)
    if cached is not None and cached.matches(program):
        return cached
    decoded = DecodedProgram(program)
    program._iss_decoded = decoded
    return decoded


def invalidate_decode(program: AsmProgram) -> None:
    """Drop the cached decode (required after in-place instruction edits
    that keep ``len(program.instructions)`` unchanged).

    The stale decode is *poisoned*, not merely unlinked: cores cache a
    reference in ``Cpu._decoded`` and revalidate it with
    :meth:`DecodedProgram.matches`, which compares against the live
    instruction list -- an in-place edit keeps that list identical, so
    an unlinked-but-unpoisoned decode would keep matching and the core
    would keep executing stale compiled superblocks (scalar and lane
    caches both hang off the decode).  Clearing
    ``_source_list`` makes every future ``matches()`` fail, forcing a
    re-decode, and drops both compiled-tier caches with it.
    """
    decoded = getattr(program, "_iss_decoded", None)
    if decoded is not None:
        decoded._source_list = None
        decoded._superblocks = None
        decoded._laneblocks = None
        program._iss_decoded = None


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
        self._decoded: Optional[DecodedProgram] = None
        # Lane-lockstep state (backend "vector"): the SoC wires cores
        # sharing one program into a repro.vp.lanes.LaneGroup, which
        # assigns _lane_group/_lane_id.  _lane_pending holds a batch a
        # group leader speculatively retired for this lane, consumed --
        # after revalidation -- at the next wake-up.  Cores without a
        # group (heterogeneous programs, n_cores=1) degrade to the
        # compiled tier.
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

    def _read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def _write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = int(value)

    # ------------------------------------------------------------------
    def _must_sync(self) -> bool:
        """The dynamic sync-boundary rule (module docstring): True while
        an observable interaction pins this core to the per-instruction
        reference path.  Read only where a batch could start (after the
        ``batchable`` lookup), never once per reference-path
        instruction."""
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
        lane_group = self._lane_group
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
            program = self.program
            n = len(program.instructions)
            if not 0 <= self.pc < n:
                raise RuntimeError(
                    f"{self.name}: pc {self.pc} outside program "
                    f"(len {n})")
            if resume:
                # The parked instruction's Delay elapsed before the
                # checkpoint (the DmaDevice._transfer(resume=True) idiom).
                resume = False
                instr = program.instructions[self.pc]
                cycles = CYCLES.get(instr.op, DEFAULT_CYCLES)
            else:
                if self.stall_hook is not None:
                    stall = self.stall_hook(self)
                    if stall > 0:
                        self._wait_state = "stall"
                        yield Delay(stall)
                elif self.quantum > 1 and self.backend != "reference":
                    decoded = self._decoded
                    if decoded is None or not decoded.matches(program):
                        decoded = self._decoded = decode_program(program)
                    # Batching eligibility: no observable interaction may
                    # fall inside a batch (module docstring).
                    if decoded.batchable[self.pc] and not self._must_sync():
                        if lane_group is not None and self.backend == "vector":
                            # Lane-lockstep tier: one group step retires
                            # this batch for every convergent lane (twins
                            # by state copy, distinct lanes through the
                            # lane-compiled superblocks); divergent lanes
                            # were simply not collected and rejoin at the
                            # next common pc.  The early pc commit (before
                            # the delay) publishes the parked state a
                            # later-waking leader reads.
                            batch = lane_group.step(self, decoded)
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
                                # it slept: consume it unless something
                                # diverged since, in which case restore the
                                # pre-batch registers and re-execute it.
                                batch = self._lane_pending
                                self._lane_pending = None
                                if batch is not None and not (
                                        batch.decoded is decoded
                                        and decoded.matches(self.program)
                                        and self.quantum > 1
                                        and not self._must_sync()):
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
                            decoded, self.regs, self.pc, self.quantum)
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
                # Reference path: one instruction, one kernel event.
                instr = program.instructions[self.pc]
                delay = _OP_DELAYS.get(instr.op, _DEFAULT_DELAY)
                cycles = delay.duration
                self._wait_state = "ref"
                yield delay
            self.cycle_count += cycles
            self.instr_count += 1
            self._execute(instr)
            self.pc_signal.write(self.pc)
            if self._post_instr_hooks:
                for hook in self._post_instr_hooks:
                    hook(self, instr)
        self.halted_signal.write(1)

    # ------------------------------------------------------------------
    def _execute(self, instr: Instr) -> None:
        op = instr.op
        args = instr.args
        next_pc = self.pc + 1
        if op in ("add", "sub", "mul", "div", "and", "or", "xor",
                  "shl", "shr", "slt", "sltu", "seq"):
            rd, ra, rb = args
            a, b = self._read_reg(ra), self._read_reg(rb)
            if op == "add":
                value = _to_signed32(a + b)
            elif op == "sub":
                value = _to_signed32(a - b)
            elif op == "mul":
                value = _to_signed32(a * b)
            elif op == "div":
                if b == 0:
                    raise RuntimeError(f"{self.name}: division by zero "
                                       f"at pc={self.pc}")
                value = _div32(a, b)
            elif op == "and":
                value = a & b
            elif op == "or":
                value = a | b
            elif op == "xor":
                value = a ^ b
            elif op == "shl":
                value = _shl32(a, b)
            elif op == "shr":
                value = _shr32(a, b)
            elif op == "slt":
                value = 1 if a < b else 0
            elif op == "sltu":
                value = _unsigned_lt(a, b)
            else:  # seq
                value = 1 if a == b else 0
            self._write_reg(rd, value)
        elif op == "addi":
            rd, ra, imm = args
            self._write_reg(rd, _to_signed32(self._read_reg(ra) + imm))
        elif op == "li":
            rd, imm = args
            self._write_reg(rd, _to_signed32(imm))
        elif op == "mov":
            rd, ra = args
            self._write_reg(rd, self._read_reg(ra))
        elif op == "lw":
            rd, imm, base = args
            address = self._read_reg(base) + imm
            self._write_reg(rd, _to_signed32(
                self.bus.read(address, master=self.name)))
        elif op == "sw":
            rs, imm, base = args
            address = self._read_reg(base) + imm
            self.bus.write(address, self._read_reg(rs), master=self.name)
        elif op == "swap":
            rd, imm, base = args
            address = self._read_reg(base) + imm
            old = self.bus.read(address, master=self.name)
            self.bus.write(address, self._read_reg(rd), master=self.name)
            self._write_reg(rd, _to_signed32(old))
        elif op in ("beq", "bne", "blt", "bge"):
            ra, rb, target = args
            a, b = self._read_reg(ra), self._read_reg(rb)
            taken = {"beq": a == b, "bne": a != b,
                     "blt": a < b, "bge": a >= b}[op]
            if taken:
                next_pc = target
        elif op == "jmp":
            next_pc = args[0]
        elif op == "jal":
            self._write_reg(LINK_REGISTER, self.pc + 1)
            next_pc = args[0]
        elif op == "jr":
            next_pc = self._read_reg(args[0])
        elif op == "ret":
            next_pc = self._read_reg(LINK_REGISTER)
        elif op == "nop":
            pass
        elif op == "halt":
            self.halted = True
        elif op == "ei":
            self.interrupts_enabled = True
        elif op == "di":
            self.interrupts_enabled = False
        elif op == "iret":
            if not self.in_isr:
                raise RuntimeError(f"{self.name}: iret outside ISR")
            self.regs = list(self.saved_regs)
            next_pc = self.epc
            self.in_isr = False
            if self._irq_hooks:
                for hook in list(self._irq_hooks):
                    hook(self, "iret")
        else:
            raise RuntimeError(f"{self.name}: unknown op {op!r}")
        self.pc = next_pc


__all__ = ["BACKENDS", "CoreState", "Cpu", "DEFAULT_BACKEND",
           "DEFAULT_QUANTUM", "DecodedProgram", "decode_program",
           "invalidate_decode"]
