"""A tiny word-addressed RISC ISA and its assembler.

The ISA is deliberately small but real enough that multi-core firmware
with spinlocks, interrupt handlers and DMA programming can be written in
it (the section-VII workloads are).  16 general registers ``r0``-``r15``
(``r0`` is hardwired to zero, ``r14`` is the link register by convention,
``r15`` the stack pointer); memory is word-addressed.

Instructions
------------
ALU:      ``add sub mul div and or xor shl shr rd, ra, rb``
          ``addi rd, ra, imm`` / ``li rd, imm`` / ``mov rd, ra``
Compare:  ``slt sltu seq rd, ra, rb`` (set rd to 0/1)
Memory:   ``lw rd, imm(ra)`` / ``sw rs, imm(ra)``
          ``swap rd, imm(ra)`` -- atomic exchange (test-and-set substrate)
Control:  ``beq bne blt bge ra, rb, label`` / ``jmp label``
          ``jal label`` (link in r14) / ``jr ra`` / ``ret`` (= jr r14)
Misc:     ``nop`` / ``halt`` / ``ei`` / ``di`` (interrupt enable/disable)
          ``iret`` (return from interrupt)

Directives: ``label:``, ``.word v [v ...]``, ``.org addr``, ``; comment``
or ``# comment``.

Immediate ranges
----------------
The assembler canonicalizes every immediate at assemble time so a
program's meaning never depends on which execution path decodes it:

- *data immediates* (``li``/``addi`` constants, ``lw``/``sw``/``swap``
  offsets, ``.word`` values) wrap to the signed 32-bit two's-complement
  image -- the same image every backend's register file holds;
- *control-flow targets* (numeric ``beq``/``bne``/``blt``/``bge``/
  ``jmp``/``jal`` operands) must already be canonical instruction
  indices in ``[0, 2**31)``; anything else is rejected with
  :class:`AsmError`, since no label can ever resolve there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

REGISTER_COUNT = 16
LINK_REGISTER = 14
STACK_REGISTER = 15

THREE_REG_OPS = {"add", "sub", "mul", "div", "and", "or", "xor", "shl",
                 "shr", "slt", "sltu", "seq"}
BRANCH_OPS = {"beq", "bne", "blt", "bge"}
NO_ARG_OPS = {"nop", "halt", "ret", "ei", "di", "iret"}
MEMORY_OPS = {"lw", "sw", "swap"}

# Classification used by the ISS's temporally-decoupled batching tiers:
# LOCAL_OPS touch nothing outside the register file and may be batched into
# one kernel event; every other op (bus traffic, interrupt-mode changes,
# halt) is an observable interaction that forces a synchronization
# boundary.  CONTROL_OPS are local but end a compiled superblock.
CONTROL_OPS = BRANCH_OPS | {"jmp", "jal", "jr", "ret"}
LOCAL_OPS = (THREE_REG_OPS | CONTROL_OPS
             | {"addi", "li", "mov", "nop"})

# Simulated cycles per instruction: mul/div 3, memory 2, everything else 1.
CYCLES = {"mul": 3, "div": 3, "lw": 2, "sw": 2, "swap": 2}
DEFAULT_CYCLES = 1

_MASK32 = 0xFFFFFFFF


def _to_signed32(value: int) -> int:
    """Reduce to the signed 32-bit two's-complement image (the word size
    of every register, data word and immediate)."""
    value &= _MASK32
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def _div_trunc(a: int, b: int) -> int:
    """Pure-integer division truncating toward zero (no float detour, so
    operands beyond 2**53 stay exact)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _div32(a: int, b: int) -> int:
    """``div``: truncating 32-bit division.  The single overflow case,
    INT_MIN / -1, wraps back to INT_MIN as on real 32-bit hardware."""
    return _to_signed32(_div_trunc(a, b))


class AsmError(Exception):
    """Raised on an assembly error, with the offending line."""

    def __init__(self, message: str, line_no: int, line: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no


@dataclass(frozen=True)
class Instr:
    """One decoded instruction."""

    op: str
    args: Tuple[Union[int, str], ...] = ()
    source_line: int = 0

    def __repr__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"<{self.op} {rendered}>"


@dataclass
class AsmProgram:
    """Assembled program: instruction memory plus initialized data words.

    ``instructions`` is an immutable tuple: firmware cannot write its own
    instruction memory, so a core executes exactly the program it was
    built with (:func:`repro.vp.iss.decode_program` decodes it once).
    """

    instructions: Tuple[Instr, ...] = ()
    labels: Dict[str, int] = field(default_factory=dict)
    data: Dict[int, int] = field(default_factory=dict)  # address -> word
    source: str = ""

    def __post_init__(self) -> None:
        self.instructions = tuple(self.instructions)

    def label(self, name: str) -> int:
        if name not in self.labels:
            raise KeyError(f"unknown label {name!r}")
        return self.labels[name]

    def __len__(self) -> int:
        return len(self.instructions)


def _parse_register(token: str, line_no: int, line: str) -> int:
    token = token.strip().lower()
    if not token.startswith("r"):
        raise AsmError(f"expected register, got {token!r}", line_no, line)
    try:
        index = int(token[1:])
    except ValueError:
        raise AsmError(f"bad register {token!r}", line_no, line) from None
    if not 0 <= index < REGISTER_COUNT:
        raise AsmError(f"register out of range {token!r}", line_no, line)
    return index


def _check_target(value: int, op: str, line_no: int, line: str) -> int:
    """Validate a resolved control-flow target: a canonical instruction
    index.  Out-of-program targets still fault at runtime; what is
    rejected here is an encoding no pc can ever hold."""
    if not 0 <= value < 0x8000_0000:
        raise AsmError(f"{op} target {value} out of range [0, 2**31)",
                       line_no, line)
    return value


def _parse_imm(token: str, line_no: int, line: str) -> Union[int, str]:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        if token and (token[0].isalpha() or token[0] == "_"):
            return token  # label reference, resolved in pass 2
        raise AsmError(f"bad immediate {token!r}", line_no, line) from None


def _parse_mem_operand(token: str, line_no: int,
                       line: str) -> Tuple[Union[int, str], int]:
    """Parse ``imm(ra)`` or ``(ra)`` or bare ``imm``; returns (imm, reg)."""
    token = token.strip()
    if "(" in token:
        if not token.endswith(")"):
            raise AsmError("malformed memory operand", line_no, line)
        imm_part, reg_part = token[:-1].split("(", 1)
        imm = _parse_imm(imm_part, line_no, line) if imm_part.strip() else 0
        reg = _parse_register(reg_part, line_no, line)
        return imm, reg
    return _parse_imm(token, line_no, line), 0


def assemble(source: str) -> AsmProgram:
    """Two-pass assembler: collect labels, then encode instructions."""
    program = AsmProgram(source=source)
    pending: List[Tuple[str, List[str], int, str]] = []
    data_cursor: Optional[int] = None

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        while ":" in line:
            label, _, rest = line.partition(":")
            label = label.strip()
            if not label.isidentifier():
                raise AsmError(f"bad label {label!r}", line_no, raw)
            if label in program.labels:
                raise AsmError(f"duplicate label {label!r}", line_no, raw)
            if data_cursor is not None:
                program.labels[label] = data_cursor
            else:
                program.labels[label] = len(pending)
            line = rest.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        op = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if op == ".org":
            data_cursor = int(rest.strip(), 0)
            if data_cursor < 0:
                raise AsmError(f".org address {data_cursor} is negative",
                               line_no, raw)
            continue
        if op == ".word":
            if data_cursor is None:
                raise AsmError(".word before .org", line_no, raw)
            for token in rest.replace(",", " ").split():
                program.data[data_cursor] = _to_signed32(int(token, 0))
                data_cursor += 1
            continue
        if data_cursor is not None:
            raise AsmError("instructions after .org data section",
                           line_no, raw)
        operands = [t.strip() for t in rest.split(",")] if rest else []
        pending.append((op, operands, line_no, raw))

    program.instructions = tuple(
        _encode(op, operands, line_no, raw, program)
        for op, operands, line_no, raw in pending)
    return program


def _encode(op: str, operands: List[str], line_no: int, raw: str,
            program: AsmProgram) -> Instr:
    def resolve(value: Union[int, str]) -> int:
        if isinstance(value, str):
            if value not in program.labels:
                raise AsmError(f"undefined label {value!r}", line_no, raw)
            return program.labels[value]
        return value

    if op in NO_ARG_OPS:
        if operands:
            raise AsmError(f"{op} takes no operands", line_no, raw)
        return Instr(op, (), line_no)
    if op in THREE_REG_OPS:
        if len(operands) != 3:
            raise AsmError(f"{op} needs 3 registers", line_no, raw)
        regs = tuple(_parse_register(t, line_no, raw) for t in operands)
        return Instr(op, regs, line_no)
    if op == "addi":
        if len(operands) != 3:
            raise AsmError("addi needs rd, ra, imm", line_no, raw)
        rd = _parse_register(operands[0], line_no, raw)
        ra = _parse_register(operands[1], line_no, raw)
        imm = _to_signed32(resolve(_parse_imm(operands[2], line_no, raw)))
        return Instr("addi", (rd, ra, imm), line_no)
    if op == "li":
        if len(operands) != 2:
            raise AsmError("li needs rd, imm", line_no, raw)
        rd = _parse_register(operands[0], line_no, raw)
        imm = _to_signed32(resolve(_parse_imm(operands[1], line_no, raw)))
        return Instr("li", (rd, imm), line_no)
    if op == "mov":
        if len(operands) != 2:
            raise AsmError("mov needs rd, ra", line_no, raw)
        rd = _parse_register(operands[0], line_no, raw)
        ra = _parse_register(operands[1], line_no, raw)
        return Instr("mov", (rd, ra), line_no)
    if op in MEMORY_OPS:
        if len(operands) != 2:
            raise AsmError(f"{op} needs reg, imm(reg)", line_no, raw)
        reg = _parse_register(operands[0], line_no, raw)
        imm, base = _parse_mem_operand(operands[1], line_no, raw)
        return Instr(op, (reg, _to_signed32(resolve(imm)), base), line_no)
    if op in BRANCH_OPS:
        if len(operands) != 3:
            raise AsmError(f"{op} needs ra, rb, label", line_no, raw)
        ra = _parse_register(operands[0], line_no, raw)
        rb = _parse_register(operands[1], line_no, raw)
        target = _check_target(resolve(_parse_imm(operands[2], line_no, raw)),
                               op, line_no, raw)
        return Instr(op, (ra, rb, target), line_no)
    if op in ("jmp", "jal"):
        if len(operands) != 1:
            raise AsmError(f"{op} needs a target", line_no, raw)
        target = _check_target(resolve(_parse_imm(operands[0], line_no, raw)),
                               op, line_no, raw)
        return Instr(op, (target,), line_no)
    if op == "jr":
        if len(operands) != 1:
            raise AsmError("jr needs a register", line_no, raw)
        return Instr("jr", (_parse_register(operands[0], line_no, raw),),
                     line_no)
    raise AsmError(f"unknown mnemonic {op!r}", line_no, raw)


__all__ = ["AsmError", "AsmProgram", "BRANCH_OPS", "CONTROL_OPS", "CYCLES",
           "DEFAULT_CYCLES", "Instr", "LINK_REGISTER", "LOCAL_OPS",
           "MEMORY_OPS", "REGISTER_COUNT", "STACK_REGISTER", "THREE_REG_OPS",
           "assemble"]
