"""Superblock-compiled ISS backend (``SoCConfig.backend = "compiled"``,
the default).

Temporal decoupling (repro.vp.iss) batches local instructions into one
kernel event; this module removes the per-instruction interpretation
cost inside a batch: each *superblock* -- a maximal run of batchable
instructions from an entry pc up to and including the first control
transfer (or up to the first synchronization boundary) -- is compiled
once into a single generated-Python function that keeps live registers
in Python locals and re-enters the register file only at block exits.
One function call then retires a whole block; a self-looping block (a
conditional branch back to its own leader, the hot-loop shape) is
compiled to an internal ``while`` that retires *many iterations* per
call, bounded by the caller's remaining quantum budget.

Correctness contract (the reference path -- the per-op handler table
``_OPS`` in :mod:`repro.vp.iss`, which shares no code with this
module -- is the oracle):

- **Sync boundaries are never compiled.**  Blocks only ever contain
  LOCAL_OPS (register-file-only work); bus ops, mode changes and every
  other observable interaction stay on the reference path, so all the
  sync-boundary rules in :mod:`repro.vp.iss` are preserved unchanged.
- **32-bit wrap semantics are exact.**  Generated code tracks, per
  local, whether the value is already the canonical signed-32 image and
  inserts the branchless wrap ``((x + 2**31) & 0xFFFFFFFF) - 2**31``
  lazily: additive chains defer it (sum masking commutes with mod
  2**32), while every wrap-sensitive use (signed compares, shifts,
  division, backedges, block exits and faulting points) sees the
  canonical image.  This is only correct because the reference path
  wraps too -- the unbounded-arithmetic fix this backend depends on.
- **Faults surface at the reference cycle.**  A ``div`` by zero writes
  back all architectural state retired before the faulting instruction,
  then raises :class:`BlockFault` carrying the exact cycle/instruction
  charge so the core can align the kernel delay before surfacing it.
- **Quantum rounds up to block granularity.**  A batch ends at the
  first block exit at or past the budget -- legal because blocks contain
  no observable interaction, so every wakeup still lands on a cycle
  where the reference path also scheduled one, and tied-time ordering
  is pinned architecturally by per-core kernel priority.

Compiled blocks are cached on the decoded program (the existing decode
cache, built once per immutable program) via :class:`SuperBlockCache`,
lazily per entry pc -- jump targets that are never reached are never
compiled.  The cache lives only as long as the process that built it,
so it never outlives the compiler that generated its blocks.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.vp.isa import (BRANCH_OPS, CONTROL_OPS, CYCLES, DEFAULT_CYCLES,
                          Instr, LINK_REGISTER, THREE_REG_OPS, _div32,
                          _to_signed32)

# Cap on instructions fused into one block: bounds generated-function
# size and the quantum overshoot of a batch that ends mid-block.
MAX_BLOCK_INSTRS = 64

# Branch mnemonics to the Python comparison on canonical signed images.
_BRANCH_PY = {"beq": "==", "bne": "!=", "blt": "<", "bge": ">="}


class BlockFault(Exception):
    """A fault raised inside a compiled superblock.

    Carries the faulting ``pc`` and the exact charge accumulated inside
    the block call (``cycles``/``count`` include the faulting
    instruction, matching the reference path, which charges before
    raising; ``cost`` is the faulting instruction's own cycle cost, used
    to split the batch delay so the error surfaces at the reference
    cycle).
    """

    def __init__(self, pc: int, cycles: int, count: int, cost: int,
                 detail: str) -> None:
        super().__init__(detail)
        self.pc = pc
        self.cycles = cycles
        self.count = count
        self.cost = cost
        self.detail = detail


class SuperBlock:
    """One compiled superblock.

    Static blocks: ``fn(regs) -> next_pc`` with fixed ``cycles`` and
    ``count`` per call.  Dynamic (self-loop) blocks: ``fn(regs, budget)
    -> (next_pc, cycles, count)`` retiring whole iterations until the
    cycle budget is spent.
    """

    __slots__ = ("fn", "cycles", "count", "last_cost", "start", "end",
                 "dynamic", "source")

    def __init__(self, fn: Callable, cycles: int, count: int,
                 last_cost: int, start: int, end: int, dynamic: bool,
                 source: str) -> None:
        self.fn = fn
        self.cycles = cycles      # cycles per completed straight pass
        self.count = count        # instructions per completed pass
        self.last_cost = last_cost  # final instruction's cycle cost
        self.start = start
        self.end = end            # pc one past the last fused instruction
        self.dynamic = dynamic
        self.source = source      # generated Python (tests, debugging)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "loop" if self.dynamic else "block"
        return (f"<SuperBlock {kind} pc={self.start}..{self.end - 1} "
                f"n={self.count} cycles={self.cycles}>")


def _wrap_expr(expr: str) -> str:
    """The branchless signed-32 wrap as a source expression."""
    return f"((({expr}) + 0x80000000) & 0xFFFFFFFF) - 0x80000000"


def _operand_regs(instr: Instr) -> Tuple[Set[int], Set[int]]:
    """(registers read, registers written) by one batchable instruction."""
    op = instr.op
    args = instr.args
    if op in THREE_REG_OPS:
        return {args[1], args[2]}, {args[0]}
    if op == "addi":
        return {args[1]}, {args[0]}
    if op == "li":
        return set(), {args[0]}
    if op == "mov":
        return {args[1]}, {args[0]}
    if op in BRANCH_OPS:
        return {args[0], args[1]}, set()
    if op == "jal":
        return set(), {LINK_REGISTER}
    if op == "jr":
        return {args[0]}, set()
    if op == "ret":
        return {LINK_REGISTER}, set()
    return set(), set()  # jmp, nop


class _Emitter:
    """Shared per-instruction code emission with canonical-form tracking.

    ``canon[r]`` records whether local ``r{r}`` currently holds the
    canonical signed-32 image; locals loaded from the register file are
    canonical by the register-file invariant (see repro.vp.iss).
    """

    def __init__(self, loads: Sequence[int]) -> None:
        self.body: List[str] = []
        self.local: Set[int] = set(loads)
        self.canon = {r: True for r in loads}
        self.dirty: Set[int] = set()

    def ref(self, r: int) -> str:
        if r == 0:
            return "0"
        if r not in self.local:
            # Read of a register never loaded nor written: only possible
            # for straight-line emission (loop bodies hoist all loads).
            self.body.append(f"r{r} = regs[{r}]")
            self.local.add(r)
            self.canon[r] = True
        return f"r{r}"

    def ref_c(self, r: int) -> str:
        name = self.ref(r)
        if r != 0 and not self.canon[r]:
            self.body.append(f"r{r} = {_wrap_expr(f'r{r}')}")
            self.canon[r] = True
        return name

    def is_canon(self, r: int) -> bool:
        return r == 0 or self.canon.get(r, True)

    def write(self, r: int, expr: str, is_canon: bool) -> None:
        self.body.append(f"r{r} = {expr}")
        self.local.add(r)
        self.canon[r] = is_canon
        self.dirty.add(r)

    def canonicalize_dirty(self) -> None:
        """Force every dirty local into canonical form (backedges)."""
        for r in sorted(self.dirty):
            if not self.canon[r]:
                self.body.append(f"r{r} = {_wrap_expr(f'r{r}')}")
                self.canon[r] = True

    def writeback(self) -> List[str]:
        out = []
        for r in sorted(self.dirty):
            if self.canon[r]:
                out.append(f"regs[{r}] = r{r}")
            else:
                out.append(f"regs[{r}] = {_wrap_expr(f'r{r}')}")
        return out

    def fault_writeback_here(self) -> str:
        """Writeback source for a fault at the current emission point:
        every dirty-so-far local, wrapped unconditionally (wrapping a
        canonical value is the identity; faults are the rare path)."""
        return "; ".join(
            f"regs[{r}] = {_wrap_expr(f'r{r}')}"
            for r in sorted(self.dirty)) or "pass"

    # ------------------------------------------------------------------
    def emit(self, instr: Instr, pc: int, fault_charge: str,
             fault_writeback: str) -> None:
        """Emit one non-control batchable instruction.

        ``fault_charge`` is a source fragment: the (cycles, count)
        expressions charged if this instruction faults -- static numbers
        for straight-line blocks, ``_t + k, _n + k`` inside loop bodies.
        ``fault_writeback`` is the architectural-state writeback to run
        before raising: dirty-so-far for straight-line blocks, a
        placeholder patched to the loop's full dirty set for dynamic
        blocks (whose preamble loads every register the body touches, so
        every writeback target is bound from iteration one).
        """
        op = instr.op
        args = instr.args
        ref, ref_c, write = self.ref, self.ref_c, self.write
        if op in ("add", "sub", "addi"):
            rd, ra, rb_or_imm = args
            if rd:
                a = ref(ra)
                b = str(rb_or_imm) if op == "addi" else ref(rb_or_imm)
                sign = "-" if op == "sub" else "+"
                write(rd, f"{a} {sign} {b}", False)
        elif op == "mul":
            rd, ra, rb = args
            if rd:
                a, b = ref(ra), ref(rb)
                # Wrap products eagerly: deferred mul chains would square
                # bignum widths block-long.  Sums stay lazy.
                write(rd, _wrap_expr(f"{a} * {b}"), True)
        elif op == "li":
            rd, imm = args
            if rd:
                write(rd, repr(_to_signed32(imm)), True)
        elif op == "mov":
            rd, ra = args
            if rd:
                a = ref(ra)
                write(rd, a, self.is_canon(ra))
        elif op in ("and", "or", "xor"):
            rd, ra, rb = args
            if rd:
                a, b = ref(ra), ref(rb)
                sign = {"and": "&", "or": "|", "xor": "^"}[op]
                # Masking commutes with bitwise ops, so the result is
                # canonical exactly when both operands are.
                write(rd, f"{a} {sign} {b}",
                      self.is_canon(ra) and self.is_canon(rb))
        elif op == "shl":
            rd, ra, rb = args
            if rd:
                a, b = ref(ra), ref(rb)
                write(rd, _wrap_expr(f"({a} & 0xFFFFFFFF) << ({b} & 31)"),
                      True)
        elif op == "shr":
            rd, ra, rb = args
            if rd:
                a = ref_c(ra)  # arithmetic shift needs the signed image
                b = ref(rb)
                write(rd, f"{a} >> ({b} & 31)", True)
        elif op == "slt":
            rd, ra, rb = args
            if rd:
                a, b = ref_c(ra), ref_c(rb)
                write(rd, f"1 if {a} < {b} else 0", True)
        elif op == "sltu":
            rd, ra, rb = args
            if rd:
                a, b = ref(ra), ref(rb)
                write(rd, f"1 if ({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF) "
                          f"else 0", True)
        elif op == "seq":
            rd, ra, rb = args
            if rd:
                a, b = ref(ra), ref(rb)
                if self.is_canon(ra) and self.is_canon(rb):
                    write(rd, f"1 if {a} == {b} else 0", True)
                else:
                    write(rd, f"1 if ({a} & 0xFFFFFFFF) == "
                              f"({b} & 0xFFFFFFFF) else 0", True)
        elif op == "div":
            rd, ra, rb = args
            b = self.ref_c(rb)
            self.body.append(f"if {b} == 0:")
            self.body.append(f"    {fault_writeback}")
            self.body.append(
                f"    raise BlockFault({pc}, {fault_charge}, "
                f"{CYCLES['div']}, 'division by zero at pc={pc}')")
            if rd:
                a = ref_c(ra)
                write(rd, f"_div32({a}, {b})", True)
        elif op == "nop":
            pass
        else:  # pragma: no cover - control ops handled by the caller
            raise AssertionError(f"unexpected op {op!r} in block body")


def compile_superblock(instrs: Sequence[Instr], batchable: Sequence[bool],
                       start: int) -> Optional[SuperBlock]:
    """Compile the superblock whose leader is ``start``.

    Returns ``None`` when ``start`` is a synchronization boundary (the
    caller must take the reference path for that instruction).
    """
    n = len(instrs)
    if not 0 <= start < n or not batchable[start]:
        return None

    # ------------------------------------------------------------------
    # Pass 1: scan the run of batchable instructions and classify.
    run: List[Instr] = []
    pc = start
    terminator: Optional[Instr] = None
    while pc < n and len(run) < MAX_BLOCK_INSTRS and batchable[pc]:
        instr = instrs[pc]
        run.append(instr)
        if instr.op in CONTROL_OPS:
            terminator = instr
            pc += 1
            break
        pc += 1
    end = pc
    if not run:
        return None

    # A conditional branch back to the leader closes a hot loop: compile
    # it as a budget-bounded internal while (a *loop superblock*).
    dynamic = (terminator is not None and terminator.op in BRANCH_OPS
               and terminator.args[2] == start)

    # Registers read before written need a hoisted load.  Dynamic blocks
    # additionally preload every register the body *writes*: a fault in
    # the first iteration writes back the full dirty set, whose members
    # must already be bound (to their unchanged architectural values).
    written: Set[int] = set()
    loads: Set[int] = set()
    for instr in run:
        reads, writes = _operand_regs(instr)
        loads |= {r for r in reads if r and r not in written}
        written |= {r for r in writes if r}
    if dynamic:
        loads |= written

    emitter = _Emitter(sorted(loads))
    preamble = [f"r{r} = regs[{r}]" for r in sorted(loads)]

    cycles_total = 0
    count = 0
    last_cost = 0
    body_pc = start
    for instr in run:
        cost = CYCLES.get(instr.op, DEFAULT_CYCLES)
        if instr.op in CONTROL_OPS:
            break
        if dynamic:
            fault_charge = (f"_t + {cycles_total + cost}, "
                            f"_n + {count + 1}")
            fault_writeback = "__FAULT_WRITEBACK__"
        elif instr.op == "div":  # the only op that can fault
            fault_charge = f"{cycles_total + cost}, {count + 1}"
            fault_writeback = emitter.fault_writeback_here()
        else:
            fault_charge = fault_writeback = ""
        emitter.emit(instr, body_pc, fault_charge, fault_writeback)
        cycles_total += cost
        count += 1
        last_cost = cost
        body_pc += 1

    body = emitter.body

    if terminator is not None:
        op = terminator.op
        cost = CYCLES.get(op, DEFAULT_CYCLES)
        cycles_total += cost
        count += 1
        last_cost = cost
        if op == "jal" and LINK_REGISTER:
            emitter.write(LINK_REGISTER, repr(body_pc + 1), True)
        if dynamic:
            ra, rb, _target = terminator.args
            a, b = emitter.ref_c(ra), emitter.ref_c(rb)
            # Backedge: every local must re-enter the loop canonical,
            # because the next iteration was compiled under the same
            # all-canonical entry assumption the first one was.
            emitter.canonicalize_dirty()
            body.append(f"_t += {cycles_total}")
            body.append(f"_n += {count}")
            body.append(f"if not ({a} {_BRANCH_PY[op]} {b}):")
            for line in emitter.writeback():
                body.append(f"    {line}")
            body.append(f"    return {body_pc + 1}, _t, _n")
            body.append(f"if _t >= budget:")
            for line in emitter.writeback():
                body.append(f"    {line}")
            body.append(f"    return {start}, _t, _n")
        elif op in BRANCH_OPS:
            ra, rb, target = terminator.args
            a, b = emitter.ref_c(ra), emitter.ref_c(rb)
            body.extend(emitter.writeback())
            body.append(f"if {a} {_BRANCH_PY[op]} {b}:")
            body.append(f"    return {target}")
            body.append(f"return {body_pc + 1}")
        elif op in ("jmp", "jal"):
            body.extend(emitter.writeback())
            body.append(f"return {terminator.args[0]}")
        else:  # jr / ret
            source_reg = (terminator.args[0] if op == "jr"
                          else LINK_REGISTER)
            t = emitter.ref_c(source_reg)
            body.extend(emitter.writeback())
            body.append(f"return {t}")
    else:
        body.extend(emitter.writeback())
        body.append(f"return {end}")

    if dynamic:
        lines = [f"def _sb(regs, budget):"]
        lines += [f"    {line}" for line in preamble]
        lines += ["    _t = 0", "    _n = 0", "    while True:"]
        lines += [f"        {line}" for line in body]
    else:
        lines = [f"def _sb(regs):"]
        lines += [f"    {line}" for line in preamble]
        lines += [f"    {line}" for line in body]
    source = "\n".join(lines) + "\n"
    if dynamic:
        # Loop fault sites write back *all* dirty locals: locals written
        # textually "later" were retired by the previous iteration (or
        # preloaded unchanged) and must land in the file too.
        source = source.replace("__FAULT_WRITEBACK__",
                                emitter.fault_writeback_here())

    namespace = {"_div32": _div32, "BlockFault": BlockFault}
    exec(compile(source, f"<superblock pc={start}>", "exec"),  # noqa: S102
         namespace)
    return SuperBlock(namespace["_sb"], cycles_total, count, last_cost,
                      start, end, dynamic, source)


# ---------------------------------------------------------------------------
# lane-vectorized blocks (``SoCConfig.backend = "vector"``)
# ---------------------------------------------------------------------------

def _lane_wrap_source(scalar_source: str, dynamic: bool) -> str:
    """Rewrap a scalar superblock's generated source as a lane-loop body.

    The scalar generator emits one function per block whose only exits
    are tail ``return`` statements (plus mid-body ``raise BlockFault``
    fault sites).  The lane form runs the identical body once per lane
    inside ``for regs in _lanes:``, collecting each lane's exit value --
    so every emission rule (lazy canonicalization, fault charges, the
    writeback discipline) is inherited verbatim rather than duplicated:

    - static blocks: ``return pc``        -> ``_out.append((pc))`` + the
      lane loop's ``continue``;
    - dynamic blocks: ``return pc, _t, _n`` -> append + ``break`` out of
      the per-lane ``while`` (nothing follows it, so the lane loop
      advances);
    - fault ``raise`` sites are kept as-is: the caller restores every
      lane from its backup and falls back to the scalar path, which
      re-raises with the exact reference-cycle charge.
    """
    lines = scalar_source.splitlines()
    header = ("def _vb(_lanes, budget):" if dynamic
              else "def _vb(_lanes):")
    out = [header, "    _out = []", "    for regs in _lanes:"]
    leave = "break" if dynamic else "continue"
    for line in lines[1:]:  # skip the scalar ``def _sb(...)``
        stripped = line.strip()
        if stripped.startswith("return "):
            indent = line[:len(line) - len(line.lstrip())]
            out.append(f"    {indent}_out.append(("
                       f"{stripped[len('return '):]}))")
            out.append(f"    {indent}{leave}")
        else:
            out.append(f"    {line}")
    out.append("    return _out")
    return "\n".join(out) + "\n"


def compile_lane_superblock(instrs: Sequence[Instr],
                            batchable: Sequence[bool],
                            start: int) -> Optional[SuperBlock]:
    """Compile the lane-vectorized form of the superblock at ``start``.

    Static blocks: ``fn(lanes) -> [next_pc per lane]``.  Dynamic (self-
    loop) blocks: ``fn(lanes, budget) -> [(next_pc, cycles, count) per
    lane]`` -- each lane retires whole iterations against the *same*
    budget, so lanes that exit the loop earlier (data divergence) come
    back with smaller charges and the caller splits them off.
    """
    scalar = compile_superblock(instrs, batchable, start)
    if scalar is None:
        return None
    source = _lane_wrap_source(scalar.source, scalar.dynamic)
    namespace = {"_div32": _div32, "BlockFault": BlockFault}
    exec(compile(source, f"<lane superblock pc={start}>", "exec"),  # noqa: S102
         namespace)
    return SuperBlock(namespace["_vb"], scalar.cycles, scalar.count,
                      scalar.last_cost, start, scalar.end, scalar.dynamic,
                      source)


class SuperBlockCache:
    """Lazily compiled superblocks for one decoded program.

    Shared by every core running the program (blocks only touch the
    ``regs`` list they are handed).
    """

    __slots__ = ("_instrs", "_batchable", "blocks")

    _compile = staticmethod(compile_superblock)

    def __init__(self, instrs: Sequence[Instr],
                 batchable: Sequence[bool]) -> None:
        self._instrs = instrs
        self._batchable = batchable
        self.blocks: List[Optional[SuperBlock]] = [None] * len(instrs)

    def get(self, pc: int) -> SuperBlock:
        """The superblock whose leader is ``pc`` (compiled on first use).
        Callers guarantee ``batchable[pc]``."""
        block = self.blocks[pc]
        if block is None:
            block = self._compile(self._instrs, self._batchable, pc)
            if block is None:
                raise ValueError(f"pc {pc} is a sync boundary, "
                                 f"not a superblock leader")
            self.blocks[pc] = block
        return block

    @property
    def compiled_count(self) -> int:
        return sum(1 for block in self.blocks if block is not None)


class LaneBlockCache(SuperBlockCache):
    """Superblock cache whose entries are lane-vectorized (the vector
    backend's tier).  Same lazy discipline as the scalar cache;
    both hang off one :class:`~repro.vp.iss.DecodedProgram`, built once
    per immutable program."""

    __slots__ = ()

    _compile = staticmethod(compile_lane_superblock)


__all__ = ["BlockFault", "LaneBlockCache", "MAX_BLOCK_INSTRS",
           "SuperBlock", "SuperBlockCache", "compile_lane_superblock",
           "compile_superblock"]
