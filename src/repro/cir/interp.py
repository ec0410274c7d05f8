"""Counting interpreter for mini-C, compiled to Python code objects.

The interpreter serves three roles in the reproduction:

1. **Semantics oracle** -- Source Recoder transformations (section VI) are
   validated by running a program before and after a transformation and
   comparing results and output.
2. **Cost model** -- executed-operation counts per function/statement feed
   the MAPS partitioner's task weights (section IV) and HOPES turns the
   op delta around every ``Interpreter.call`` into simulated time.
3. **Golden reference** -- MAPS-generated parallel task code is checked
   against the sequential interpretation.

Semantics follow C where the subset overlaps: truncating integer division,
short-circuit ``&&``/``||``, arrays passed by reference, scalars by value,
``int`` arithmetic wrapped to the 32-bit word.  A variable lives only in
its binding (the call's ``env`` or ``globals_env``) and ``&x`` points at
that binding.  A pointer variable or parameter receiving an array gets a
pointer to its first element; pointers are equal when they address the
same place.

Execution model: each function is emitted as Python source on its first
call through an :class:`Interpreter`, and so are the global initializers
when the interpreter is built.  Expressions become three-address Python
code; ``int`` fast paths run inline and every other operand kind falls
back to the shared helpers below.  The source names no per-interpreter
state: it defines a factory that takes the interpreter, ``globals_env``,
``externals``, ``step_limit`` and the AST nodes its error messages print.
Code objects are memoized by their source text in a bounded
process-wide LRU, so interpreters of equal programs compile once, and a
hit runs exactly the code a miss would.  The AST is read only while
emitting, so mutating it (or ``step_limit``) under a live ``Interpreter``
is unsupported: build a new one instead.

The counts live in two locals of the running call and are written back
to the interpreter before every mini-C, external or intrinsic call (and
read again after it), and in a ``finally`` when the call returns or
raises.  Ticks that nothing between them can interrupt are added in one
step; they are added and checked before anything that can raise or call,
so the counts an external or an error sees are exact.

Counting contract (what ``op_count``/``stmt_count`` mean): every executed
statement is one statement and one op; every loop iteration, array read,
call, unary operator, binary operator and ternary is one op.  Literals,
identifier reads and assignment targets are free, and so is the operator
of a compound assignment.  The step-limit error fires on the first op past
``step_limit``.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.cir.nodes import (
    ArrayIndex, Assign, BinOp, Block, Break, Call, Cond, Continue, Decl,
    Expr, ExprStmt, FloatLit, For, FuncDef, Ident, If, IntLit, Program,
    Return, Stmt, StringLit, UnaryOp, While,
)
from repro.cir.typesys import ArrayType, PointerType, ScalarType, Type


class InterpError(Exception):
    """Raised on runtime errors: bad index, division by zero, step limit,
    call stack overflow."""


@dataclass
class ArrayValue:
    """A (multi-dimensional) array stored flat, shared by reference."""

    element: ScalarType
    dims: Tuple[int, ...]
    storage: List[Any]

    @classmethod
    def zeros(cls, element: ScalarType, dims: Tuple[int, ...]) -> "ArrayValue":
        size = 1
        for dim in dims:
            size *= dim
        zero: Any = 0.0 if element.name == "float" else 0
        return cls(element, dims, [zero] * size)

    def flat_offset(self, indices: List[int]) -> int:
        if len(indices) != len(self.dims):
            raise InterpError(
                f"array needs {len(self.dims)} indices, got {len(indices)}")
        offset = 0
        for index, dim in zip(indices, self.dims):
            if not (0 <= index < dim):
                raise InterpError(
                    f"index {index} out of bounds for dimension {dim}")
            offset = offset * dim + index
        return offset

    def get(self, indices: List[int]) -> Any:
        return self.storage[self.flat_offset(indices)]

    def tolist(self) -> List[Any]:
        return list(self.storage)


class _Binding:
    """A one-slot view of the variable stored under key ``name`` in
    ``env``: the storage ``&name`` points into.  Stores follow
    :func:`_store_name`'s rules."""

    __slots__ = ("env", "name")

    def __init__(self, env: "Env", name: str) -> None:
        self.env = env
        self.name = name

    def __len__(self) -> int:
        # deref/store measure first: a left block's local has no slot.
        if self.name not in self.env:
            name = self.name.split("'")[0]  # a shadowing key is x'1
            raise InterpError(f"dangling pointer to {name!r}")
        return 1

    def __getitem__(self, _offset: int) -> Any:
        return self.env[self.name]

    def __setitem__(self, _offset: int, value: Any) -> None:
        _store_name(self.env, self.name, value)


@dataclass(eq=False)
class PointerValue:
    """A pointer into a storage list (an array's backing store) or into a
    variable's binding."""

    storage: Union[List[Any], _Binding]
    offset: int

    def __eq__(self, other: Any) -> bool:
        # Equal when both address the same place, whatever it holds.
        if not isinstance(other, PointerValue):
            return NotImplemented
        mine, theirs = self.storage, other.storage
        return self.offset == other.offset and (
            mine is theirs
            or (type(mine) is _Binding and type(theirs) is _Binding
                and mine.env is theirs.env and mine.name == theirs.name))

    def deref(self) -> Any:
        if not (0 <= self.offset < len(self.storage)):
            raise InterpError(f"pointer dereference out of bounds "
                              f"({self.offset}/{len(self.storage)})")
        return self.storage[self.offset]

    def store(self, value: Any) -> None:
        if not (0 <= self.offset < len(self.storage)):
            raise InterpError(f"pointer store out of bounds "
                              f"({self.offset}/{len(self.storage)})")
        self.storage[self.offset] = _converted(value,
                                               self.storage[self.offset])


Value = Union[int, float, str, ArrayValue, PointerValue]
Env = Dict[str, Value]


@dataclass
class RunResult:
    """Outcome of interpreting a program."""

    return_value: Any
    output: List[Any] = field(default_factory=list)
    op_count: int = 0
    stmt_count: int = 0
    call_counts: Dict[str, int] = field(default_factory=dict)
    func_op_counts: Dict[str, int] = field(default_factory=dict)
    globals: Dict[str, Any] = field(default_factory=dict)


class Interpreter:
    """Interprets a mini-C :class:`Program`.

    ``externals`` maps names of undeclared called functions to Python
    callables; this is how MAPS-generated task code reads/writes simulated
    channels (the generated C calls ``ch_read``/``ch_write``).
    """

    DEFAULT_STEP_LIMIT = 5_000_000

    def __init__(self, program: Program,
                 externals: Optional[Dict[str, Callable[..., Any]]] = None,
                 step_limit: int = DEFAULT_STEP_LIMIT) -> None:
        self.program = program
        self.externals = dict(externals or {})
        self.step_limit = step_limit
        self.functions: Dict[str, FuncDef] = {
            func.name: func for func in program.functions}
        self.globals_env: Env = _Globals()
        self.output: List[Any] = []
        self.op_count = 0
        self.stmt_count = 0
        self.call_counts: Dict[str, int] = {}
        self.func_op_counts: Dict[str, int] = {}
        # Function name -> its compiled entry (args list -> return value).
        self._compiled: Dict[str, Callable[[List[Any]], Any]] = \
            _Functions(self)
        decls = program.globals
        if any(decl.init is not None for decl in decls):
            _compile_globals(self, decls)()
        else:
            for decl in decls:
                self.globals_env[decl.name] = _zero(decl.type)

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def run(self, entry: str = "main", args: Optional[List[Any]] = None) -> RunResult:
        """Call ``entry`` and package the result."""
        value = self.call(entry, args or [])
        snapshot = {
            name: val.tolist() if isinstance(val, ArrayValue) else val
            for name, val in self.globals_env.items()
        }
        return RunResult(
            return_value=value,
            output=list(self.output),
            op_count=self.op_count,
            stmt_count=self.stmt_count,
            call_counts=dict(self.call_counts),
            func_op_counts=dict(self.func_op_counts),
            globals=snapshot,
        )

    def call(self, name: str, args: List[Any]) -> Any:
        """Invoke a mini-C function (or an external) with Python values.

        Recursion deeper than the host interpreter's stack surfaces as an
        :class:`InterpError`, like every other runtime error."""
        if name in self.functions:
            try:
                return self._compiled[name](args)
            except RecursionError:
                raise InterpError(
                    f"call stack overflow: recursion too deep (entered "
                    f"via {name!r})") from None
        if name in self.externals:
            return self.externals[name](*args)
        if name in _INTRINSICS:
            return _call_intrinsic(self, name, args)
        raise InterpError(f"call to unknown function {name!r}")


# ---------------------------------------------------------------------------
# values, coercions and operators (shared by all emitted code)
# ---------------------------------------------------------------------------

INT_MIN, INT_MAX = -2**31, 2**31 - 1

_MISSING = object()


def _limit_error(limit: int) -> InterpError:
    return InterpError(f"step limit {limit} exceeded (infinite loop?)")


def _type_name(value: Any) -> str:
    if isinstance(value, PointerValue):
        return "pointer"
    if isinstance(value, ArrayValue):
        return "array"
    if isinstance(value, str):
        return "string"
    return type(value).__name__


def _operand_error(op: str, *operands: Any) -> InterpError:
    kinds = " and ".join(_type_name(value) for value in operands)
    return InterpError(f"invalid operands to {op}: {kinds}")


def _c_div(left: Any, right: Any) -> Any:
    if right == 0:
        raise InterpError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        # C semantics: truncation toward zero, wrapped to the 32-bit word
        # (the single overflow case, INT_MIN / -1, wraps back to INT_MIN
        # exactly like the ISS's div -- see repro.vp.isa._div32).
        quotient = abs(left) // abs(right)
        if (left >= 0) != (right >= 0):
            quotient = -quotient
        return _wrap32(quotient)
    return left / right


def _c_mod(left: Any, right: Any) -> Any:
    if isinstance(left, float) or isinstance(right, float):
        # C rejects % on floating operands (use fmod); silently computing
        # a float remainder here would diverge from any compiled target.
        raise InterpError("invalid operands to %: floats are not allowed")
    if right == 0:
        raise InterpError("modulo by zero")
    # Truncated remainder (sign follows the dividend), wrapped to the
    # 32-bit word so the div/mod pair preserves a == (a/b)*b + a%b on
    # every operand pair.  The single overflow corner, INT_MIN % -1,
    # therefore returns 0: its quotient wraps back to INT_MIN (see
    # _c_div), and the ISS-side lowering of % as a - (a/b)*b computes
    # the identical 0 through the same wraps.
    remainder = abs(left) % abs(right)
    return _wrap32(remainder if left >= 0 else -remainder)


def _wrap32(value: int) -> int:
    """Reduce to the signed 32-bit two's-complement image (the ISS word
    size -- see repro.vp.iss)."""
    value &= 0xFFFFFFFF
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def _c_shl(left: Any, right: Any) -> int:
    # 32-bit semantics as executed by the ISS: result wraps to a signed
    # word, shift count uses the low 5 bits.
    return _wrap32((int(left) & 0xFFFFFFFF) << (int(right) & 31))


def _c_shr(left: Any, right: Any) -> int:
    return _wrap32(int(left)) >> (int(right) & 31)


def _c_add(left: Any, right: Any) -> Any:
    # int + int models the 32-bit target word and wraps (matching the
    # ISS's add -- both execution paths of the same firmware must agree
    # bit for bit); float arithmetic stays host-precision like C doubles.
    if type(left) is int and type(right) is int:
        return _wrap32(left + right)
    return left + right


def _c_sub(left: Any, right: Any) -> Any:
    if type(left) is int and type(right) is int:
        return _wrap32(left - right)
    return left - right


def _c_mul(left: Any, right: Any) -> Any:
    if type(left) is int and type(right) is int:
        return _wrap32(left * right)
    return left * right


# Arithmetic, shift and bitwise operators; comparisons and the short
# circuits are emitted inline (see _Emitter.binop).
_BIN_HANDLERS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": _c_add,
    "-": _c_sub,
    "*": _c_mul,
    "/": _c_div,
    "%": _c_mod,
    "<<": _c_shl,
    ">>": _c_shr,
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
}


def _binop(op: str, left: Any, right: Any) -> Any:
    """``left op right`` for every operand kind, pointer arithmetic
    included; the emitted int fast paths fall back to this."""
    handler = _BIN_HANDLERS.get(op)
    try:
        if isinstance(left, PointerValue) and op in ("+", "-"):
            delta = int(right)
            if op == "-":
                delta = -delta
            return PointerValue(left.storage, left.offset + delta)
        if isinstance(right, PointerValue) and op == "+":
            return PointerValue(right.storage, right.offset + int(left))
        if handler is not None:
            return handler(left, right)
    except (TypeError, ValueError):
        raise _operand_error(op, left, right) from None
    raise InterpError(f"unknown binary operator {op!r}")


def _converted(value: Any, current: Any) -> Any:
    """``value`` as stored over ``current``, the one conversion every
    store (to a variable, an element or through a pointer) applies: the
    slot keeps its type, so an int slot truncates a float, a float slot
    widens an int, and a pointer slot decays an array."""
    kind = type(current)
    if kind is int:
        if type(value) is float:
            return int(value)
    elif kind is float:
        if type(value) is int:
            return float(value)
    elif kind is PointerValue and isinstance(value, ArrayValue):
        return PointerValue(value.storage, 0)
    return value


def _store_name(env: Env, name: str, value: Any) -> None:
    """Assign a named variable found in ``env`` (arrays are not
    assignable) with :func:`_converted`'s conversion."""
    current = env.get(name)
    if isinstance(current, ArrayValue):
        raise InterpError(f"cannot assign to array {name!r}")
    env[name] = _converted(value, current)


# ---------------------------------------------------------------------------
# intrinsics (callable without declaration, like a tiny libc)
# ---------------------------------------------------------------------------

def _intrinsic_print(interp: Interpreter, args: List[Any]) -> int:
    interp.output.extend(args)
    return 0


def _intrinsic_abs(_interp: Interpreter, args: List[Any]) -> Any:
    value = args[0]
    if type(value) is int:
        # abs(INT_MIN) overflows on a 32-bit target, like unary minus.
        return _wrap32(abs(value))
    return abs(value)


_INTRINSICS: Dict[str, Callable[[Interpreter, List[Any]], Any]] = {
    "print": _intrinsic_print,
    "abs": _intrinsic_abs,
    "min": lambda interp, args: min(args),
    "max": lambda interp, args: max(args),
    "sqrt": lambda interp, args: math.sqrt(args[0]),
    "floor": lambda interp, args: int(math.floor(args[0])),
    "ceil": lambda interp, args: int(math.ceil(args[0])),
}

# Intrinsic name -> (fewest, most) arguments; ``None`` = no upper bound.
# The type checker reads the same table.
INTRINSIC_ARITIES: Dict[str, Tuple[int, Optional[int]]] = {
    "print": (0, None), "abs": (1, 1), "min": (1, None), "max": (1, None),
    "sqrt": (1, 1), "floor": (1, 1), "ceil": (1, 1),
}


def intrinsic_arity_error(name: str, count: int) -> Optional[str]:
    """``None`` when intrinsic ``name`` takes ``count`` arguments, else
    what it expects (``1``, ``at least 1``)."""
    fewest, most = INTRINSIC_ARITIES[name]
    if fewest <= count and (most is None or count <= most):
        return None
    return f"at least {fewest}" if most is None else str(most)


def _call_intrinsic(interp: Interpreter, name: str, args: List[Any]) -> Any:
    expected = intrinsic_arity_error(name, len(args))
    if expected is not None:
        raise InterpError(f"{name}() expects {expected} args, "
                          f"got {len(args)}")
    try:
        return _INTRINSICS[name](interp, args)
    except (TypeError, ValueError, OverflowError) as error:
        raise InterpError(f"{name}() domain error: {error}") from None




# ---------------------------------------------------------------------------
# run-time helpers the emitted code calls off its fast paths
# ---------------------------------------------------------------------------

class _Globals(dict):
    """``globals_env``: reading a global that does not exist (yet) is an
    undefined variable, as it is for a global initializer that reads a
    later global."""

    def __missing__(self, name: str) -> Any:
        raise InterpError(f"undefined variable {name!r}")


class _Functions(dict):
    """Function name -> compiled entry, compiled on first lookup."""

    def __init__(self, interp: Interpreter) -> None:
        super().__init__()
        self.interp = interp

    def __missing__(self, name: str) -> Callable[[List[Any]], Any]:
        entry = _compile_function(self.interp, self.interp.functions[name])
        self[name] = entry
        return entry


def _zero(dtype: Type) -> Value:
    """The zero value of ``dtype`` (fresh storage every call)."""
    if isinstance(dtype, ArrayType):
        return ArrayValue.zeros(dtype.element, dtype.dims)
    if isinstance(dtype, PointerType):
        return PointerValue([0], 0)
    if isinstance(dtype, ScalarType) and dtype.name == "float":
        return 0.0
    return 0


def _node_error(what: str, node: Any) -> InterpError:
    return InterpError(f"{what} {node!r}")


def _chain(base: Any, indices: List[Any], node: Expr) -> List[Any]:
    """Indices (innermost first) with floats truncated, after checking
    that ``base`` (the value of ``node``) can be indexed."""
    if not isinstance(base, (ArrayValue, PointerValue)):
        raise _node_error("indexing a non-array value via", node)
    return [int(index) if isinstance(index, float) else index
            for index in indices]


def _element_ref(base: Any, indices: List[int]) -> Tuple[List[Any], int]:
    """(storage, offset) addressed by ``base[indices]``, bounds unchecked
    for pointers (their deref/store checks) and checked for arrays."""
    if isinstance(base, PointerValue):
        if len(indices) != 1:
            raise InterpError("pointer indexing takes one index")
        return base.storage, base.offset + indices[0]
    return base.storage, base.flat_offset(indices)


def _load(base: Any, indices: List[Any], node: Expr) -> Any:
    indices = _chain(base, indices, node)
    if isinstance(base, PointerValue):
        return PointerValue(*_element_ref(base, indices)).deref()
    if len(indices) < len(base.dims):
        raise InterpError("partial array indexing is unsupported")
    return base.get(indices)


def _store(base: Any, indices: List[Any], value: Any, node: Expr) -> None:
    indices = _chain(base, indices, node)
    if isinstance(base, PointerValue):
        PointerValue(*_element_ref(base, indices)).store(value)
        return
    offset = base.flat_offset(indices)
    base.storage[offset] = _converted(value, base.storage[offset])


def _address(home: Env, slot: str, name: str) -> PointerValue:
    """``&name``: an array decays to its first element, anything else
    is addressed through its binding."""
    if slot not in home:
        raise InterpError(f"undefined variable {name!r}")
    value = home[slot]
    if isinstance(value, ArrayValue):
        return PointerValue(value.storage, 0)
    return PointerValue(_Binding(home, slot), 0)


def _store_through(pointer: Any, op: str, value: Any) -> None:
    """``*pointer op= value``."""
    if not isinstance(pointer, PointerValue):
        raise InterpError("dereferencing a non-pointer")
    if op:
        value = _binop(op, pointer.deref(), value)
    pointer.store(value)


def _unary(op: str, value: Any) -> Any:
    if op == "-":
        # Negating INT_MIN overflows on a 32-bit target; wrap like every
        # other int arithmetic op (floats stay host-precision).
        if type(value) is int:
            return _wrap32(-value)
        try:
            return -value
        except TypeError:
            raise _operand_error("-", value) from None
    if op == "!":
        return 0 if value else 1
    if op == "~":
        try:
            return ~int(value)
        except (TypeError, ValueError):
            raise _operand_error("~", value) from None
    if op == "*":
        if not isinstance(value, PointerValue):
            raise InterpError("dereferencing a non-pointer")
        return value.deref()
    raise InterpError(f"unknown unary operator {op!r}")


def _intrinsic(interp: Interpreter, name: str, args: List[Any]) -> Any:
    """A call to an undeclared function that no external provides."""
    if name in _INTRINSICS:
        return _call_intrinsic(interp, name, args)
    raise InterpError(f"call to unknown function {name!r}")


# ---------------------------------------------------------------------------
# the compiler: AST -> Python source -> memoized code
# ---------------------------------------------------------------------------
#
# The emitted source defines ``_make(I, G, X, F, CC, FC, L, N)``, which
# binds one Interpreter's state -- itself, ``globals_env``, ``externals``,
# its compiled functions, ``call_counts``, ``func_op_counts``,
# ``step_limit`` and ``N``, the AST nodes and types the code names in
# error messages and array declarations -- and returns the entry.  The
# text holds none of these, so one code object serves every Interpreter.
#
# In the entry, ``env`` maps the running call's live locals to values: it
# is their only home, and ``&x`` points at the binding in it.  ``ops`` and
# ``st`` hold the op and statement counts.  Ticks accumulate at compile
# time and are added (and checked against ``L``) right before anything
# that can raise, call out or branch.  A batch holds at most one
# statement start; when the limit is crossed before that statement's own
# tick, ``st`` gives it back.  The ``finally`` writes back whichever count
# is further along, the local or the callee's, capped at ``L + 1`` (a
# batch of ticks that nothing can interrupt crosses the limit there).

_INT_ATOM = re.compile(r"\(?-?\d+\)?")
_TEMP = re.compile(r"t\d+")
_ARITH = {"+": "+", "-": "-", "*": "*", "/": "//", "%": "%"}
_COMPARE = ("==", "!=", "<", ">", "<=", ">=")
_WRAPPED = ("({0} if -2147483648 <= ({0} := {1}) <= 2147483647 "
            "else _wrap32({0}))")

_CHUNK_LINES = 100
_COMPILED = itertools.count(1)
_PROLOGUE = """\
def _make(I, G, X, F, CC, FC, L, N):
    def entry({params}):
{setup}        ops = o0 = I.op_count
        st = I.stmt_count
        try:
{body}        finally:
            if ops > I.op_count:
                I.op_count = ops if ops <= L else L + 1
            if st > I.stmt_count:
                I.stmt_count = st
{account}    return entry
"""


@functools.lru_cache(maxsize=256)
def _factory(source: str) -> Callable[..., Callable]:
    """The ``_make`` of emitted ``source``, compiled once per process.
    Bounded (least recently used sources are dropped)."""
    namespace = dict(_RUNTIME)
    # Profilers key a function by (file, line, name), so each code object
    # gets a file name of its own, one that places it under repro/cir/.
    name = f"<repro/cir/interp.py: mini-C {next(_COMPILED)}>"
    exec(compile(source, name, "exec"), namespace)
    return namespace["_make"]


def _bind(interp: Interpreter, emitter: "_Emitter", body: List[str],
          params: str = "", setup: List[str] = (),
          account: str = "") -> Callable:
    """Compile (or find) an emitted entry and bind it to ``interp``."""
    source = _PROLOGUE.format(
        params=params, setup="".join(line + "\n" for line in setup),
        body="".join(line + "\n" for line in body or ["            pass"]),
        account=account)
    return _factory(source)(
        interp, interp.globals_env, interp.externals, interp._compiled,
        interp.call_counts, interp.func_op_counts, interp.step_limit,
        emitter.consts)


def _compile_function(interp: Interpreter, func: FuncDef) -> Callable:
    """``func``'s entry: args list -> coerced return value, keeping
    ``call_counts``/``func_op_counts`` as every call returns or raises."""
    emitter = _Emitter(interp.functions, func.name)
    emitter.scopes[-1].update((param.name, param.name)
                              for param in func.params)
    count = len(func.params)
    emitter.depth = 2
    emitter.line(f"if len(args) != {count}:")
    emitter.line(f"    raise InterpError("
                 f"{f'{func.name}() expects {count} args, got '!r} "
                 f"+ str(len(args)))")
    pairs = []
    for index, param in enumerate(func.params):
        value = emitter.coerce(f"args[{index}]", param.type)
        pairs.append(f"{param.name!r}: {value}")
    emitter.line(f"env = {{{', '.join(pairs)}}}")
    emitter.line(f"CC[{func.name!r}] = CC.get({func.name!r}, 0) + 1")
    setup, emitter.lines, emitter.depth = emitter.lines, [], 3
    emitter.return_type = func.return_type
    # The body's own declarations share the parameters' scope and need no
    # restoring: the call's env dies with it.  compile() of a long text
    # peaks at ~100 bytes per character, so a long body is cut between
    # top-level statements into chunks of about _CHUNK_LINES lines.  Each
    # chunk is an entry of its own, taking ``env``; the function's entry
    # calls it like a mini-C function and returns what it returns unless
    # it fell through (``_MISSING``).
    chunks: List[List[str]] = [[]]
    for stmt in func.body.stmts:
        emitter.lines = []
        emitter.stmt(stmt)
        emitter.flush()
        if chunks[-1] and len(chunks[-1]) + len(emitter.lines) > _CHUNK_LINES:
            chunks.append([])
        chunks[-1].extend(emitter.lines)
    emitter.lines = chunks[0]
    for lines in chunks[1:]:
        chunk = emitter.const(_bind(
            interp, emitter, lines + ["            return _MISSING"], "env"))
        emitter.line("I.op_count = ops; I.stmt_count = st")
        result = emitter.temp(f"{chunk}(env)")
        emitter.line("ops = I.op_count; st = I.stmt_count")
        emitter.line(f"if {result} is not _MISSING: return {result}")
    return _bind(interp, emitter, emitter.lines, "args", setup,
                 f"            FC[{func.name!r}] = FC.get({func.name!r}, 0) "
                 f"+ I.op_count - o0\n")


def _compile_globals(interp: Interpreter, decls: List[Decl]) -> Callable:
    """A function that runs the global declarations in order.  Their
    initializers run in global scope: every name is a global."""
    emitter = _Emitter(interp.functions, "")
    for decl in decls:
        if decl.init is None:
            value = _zero_text(decl.type, emitter)
        else:
            value = emitter.coerce(emitter.expr(decl.init), decl.type)
            emitter.flush()
        emitter.line(f"G[{decl.name!r}] = {value}")
    return _bind(interp, emitter, emitter.lines)


def _continues(stmts: List[Stmt]) -> bool:
    """Whether a ``continue`` in ``stmts`` targets their loop."""
    for stmt in stmts:
        kind = type(stmt)
        if kind is Continue:
            return True
        if kind is Block and _continues(stmt.stmts):
            return True
        if kind is If and (_continues(stmt.then.stmts) or (
                stmt.other is not None and _continues(stmt.other.stmts))):
            return True
    return False


class _Emitter:
    """Writes the body of one entry (see ``_PROLOGUE``).

    Identifiers are resolved once, at compile time, by C's static scope
    rule: a name refers to the innermost local of that name whose scope
    is open at that point of the code, else to the global.  Scoping is
    static and mini-C has no ``goto``, so an open local is always bound
    in the call's ``env`` when the code runs, and a closed one never is.

    ``scopes`` maps names to ``env`` keys, one dict per open scope.  A
    local's key is its name, except for a declaration that shadows a
    local of an enclosing scope: that one gets a key of its own (``x'1``),
    so a pointer to the outer ``x`` keeps addressing the outer one.

    An expression compiles to an atom: a literal, a temporary, or a
    local read (``env['x']``), which moves into a temporary where a call
    could change the local before the atom is used.  ``exits`` holds what
    a ``break``, ``continue`` or ``return`` passes on its way out: loops,
    blocks whose declarations it restores, and the ``init``/``step`` of
    a ``for``, which drop it.
    """

    def __init__(self, functions: Dict[str, FuncDef], name: str) -> None:
        self.functions = functions
        self.name = name
        self.lines: List[str] = []
        self.depth = 3
        self.pending = 0
        self.stmt_at: Optional[int] = None  # pending ticks before `st += 1`
        self.temps = 0
        self.calls = 0
        self.consts: List[Any] = []
        self.scopes: List[Dict[str, str]] = [{}]
        self.renamed = 0
        self.exits: List[list] = []
        self.return_type: Optional[Type] = None

    # -- plumbing -------------------------------------------------------------
    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def temp(self, value: Optional[str] = None) -> str:
        self.temps += 1
        name = f"t{self.temps}"
        if value is not None:
            self.line(f"{name} = {value}")
        return name

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"N[{len(self.consts) - 1}]"

    def flush(self) -> None:
        """Add the pending ticks and check the step limit."""
        if self.pending:
            # A statement that starts inside the batch does not count when
            # the limit is crossed before its own tick.
            fix = "" if not self.stmt_at else \
                f"st -= ops - {self.pending - self.stmt_at} > L; "
            self.line(f"if (ops := ops + {self.pending}) > L: "
                      f"{fix}raise _limit_error(L)")
            self.pending = 0
        self.stmt_at = None

    def value(self, atom: str) -> str:
        """``atom`` as something cheap to read more than once."""
        return self.temp(atom) if atom.startswith("env[") else atom

    def mark(self) -> Tuple[int, int, int]:
        return len(self.lines), self.calls, self.depth

    def keep(self, atom: str, mark: Tuple[int, int, int]) -> str:
        """``atom`` as read at ``mark``: a local read moves into a
        temporary there when a call has been emitted since."""
        at, calls, depth = mark
        if calls == self.calls or not atom.startswith("env["):
            return atom
        self.temps += 1
        name = f"t{self.temps}"
        self.lines.insert(at, "    " * depth + f"{name} = {atom}")
        return name

    def operands(self, nodes: List[Expr]) -> List[str]:
        atoms = [(self.expr(node), self.mark()) for node in nodes]
        # Later captures first: each is inserted before the next one's.
        return [self.keep(atom, mark) for atom, mark in reversed(atoms)][::-1]

    def nested(self, emit: Callable[[], None]) -> None:
        """Emit one branch of an ``if``: no ticks cross its edges."""
        self.depth += 1
        start = len(self.lines)
        emit()
        self.flush()
        if len(self.lines) == start:
            self.line("pass")
        self.depth -= 1

    def key(self, name: str) -> Optional[str]:
        """The ``env`` key of the local ``name`` refers to at this point
        of the code, or None when it refers to a global."""
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def declare(self, name: str) -> str:
        """The ``env`` key of a declaration of ``name`` in the innermost
        scope."""
        scope = self.scopes[-1]
        if name not in scope:
            if any(name in outer for outer in self.scopes):
                self.renamed += 1
                scope[name] = f"{name}'{self.renamed}"
            else:
                scope[name] = name
        return scope[name]

    def restore(self, saved: List[Tuple[str, str]]) -> None:
        for key, old in saved:
            self.line(f"if {old} is _MISSING: env.pop({key!r}, None)")
            self.line(f"else: env[{key!r}] = {old}")

    def leave(self, kind: str) -> bool:
        """Emit the way out of a ``kind`` statement: restore the blocks it
        leaves, then jump.  False when it leaves the function."""
        for entry in reversed(self.exits):
            if entry[0] == "block":
                self.restore(entry[2])
            elif entry[0] == "discard" or kind != "return":
                self.line("break" if entry[0] == "discard" else kind)
                return True
        return False

    def coerce(self, atom: str, dtype: Type) -> str:
        """``atom`` as a value of declared type ``dtype``: an int drops a
        float's fraction, a float widens an int, a pointer decays an
        array."""
        if isinstance(dtype, ScalarType) and dtype.name == "int":
            if _INT_ATOM.fullmatch(atom):
                return atom
            test, convert = "isinstance({0}, float)", "int({0})"
        elif isinstance(dtype, ScalarType) and dtype.name == "float":
            test, convert = "isinstance({0}, int)", "float({0})"
        elif isinstance(dtype, PointerType):
            test, convert = ("isinstance({0}, ArrayValue)",
                             "PointerValue({0}.storage, 0)")
        else:
            return atom
        name = atom if _TEMP.fullmatch(atom) else self.temp(atom)
        self.line(f"if {test.format(name)}: {name} = {convert.format(name)}")
        return name

    # -- statements -------------------------------------------------------
    def block(self, block: Block, scoped: bool = True) -> None:
        """The block's statements in sequence.  A block that declares
        names restores their bindings when it is left (by falling
        through, ``break``, ``continue`` or ``return``)."""
        if not scoped:
            for stmt in block.stmts:
                self.stmt(stmt)
            return
        scope: Dict[str, str] = {}
        entry = ["block", scope, [], set()]
        self.scopes.append(scope)
        self.exits.append(entry)
        for stmt in block.stmts:
            self.stmt(stmt)
        self.exits.pop()
        self.scopes.pop()
        self.flush()
        self.restore(entry[2])

    def stmt(self, stmt: Stmt) -> None:
        if self.stmt_at is not None:
            self.flush()
        self.stmt_at = self.pending
        self.line("st += 1")
        self.pending += 1
        kind = type(stmt)
        if kind is Assign:
            self.assign(stmt)
        elif kind is ExprStmt:
            self.expr(stmt.expr)
        elif kind is Decl:
            self.decl(stmt)
        elif kind is If:
            self.line(f"if {self.test(stmt.test)}:")
            self.nested(lambda: self.block(stmt.then))
            if stmt.other is not None:
                self.line("else:")
                self.nested(lambda: self.block(stmt.other))
        elif kind is While:
            self.loop(stmt.test, None, stmt.body)
        elif kind is For:
            self.for_stmt(stmt)
        elif kind is Return:
            value = "None"
            if stmt.value is not None:
                value = self.value(self.coerce(self.expr(stmt.value),
                                               self.return_type))
            self.flush()
            if not self.leave("return"):
                self.line(f"return {value}")
        elif kind is Block:
            self.block(stmt)
        elif kind is Break or kind is Continue:
            word = "break" if kind is Break else "continue"
            self.flush()
            if not self.leave(word):
                self.line(f"raise InterpError({word!r} + "
                          f"' outside a loop in ' + {self.name!r} + '()')")
        else:
            self.flush()
            self.line(f"raise _node_error('cannot execute statement', "
                      f"{self.const(stmt)})")

    def decl(self, stmt: Decl) -> None:
        at = self.mark()
        value = self.expr(stmt.init) if stmt.init is not None else None
        key = self.declare(stmt.name)
        entry = self.exits[-1] if self.exits else None
        if entry is not None and entry[0] == "block" \
                and entry[1] is self.scopes[-1] and key not in entry[3]:
            # The binding the block restores when it is left.
            entry[3].add(key)
            self.temps += 1
            old = f"t{self.temps}"
            entry[2].append((key, old))
            self.lines.insert(at[0], "    " * at[2]
                              + f"{old} = env.get({key!r}, _MISSING)")
        if value is None:
            value = _zero_text(stmt.type, self)
        else:
            value = self.coerce(value, stmt.type)
        self.line(f"env[{key!r}] = {value}")

    def simple(self, stmt: Stmt) -> None:
        """A ``for``'s init or step: a ``break``, ``continue`` or
        ``return`` in it only ends it."""
        if type(stmt) in (Assign, ExprStmt, Decl):
            self.stmt(stmt)
            self.flush()
            return
        self.line("while True:")
        self.depth += 1
        self.exits.append(["discard"])
        self.stmt(stmt)
        self.exits.pop()
        self.flush()
        self.line("break")
        self.depth -= 1

    def for_stmt(self, stmt: For) -> None:
        self.flush()
        # A for-header declaration lives for the duration of the loop.
        self.scopes.append({})
        at = self.mark()
        if stmt.init is not None:
            self.simple(stmt.init)
        self.loop(stmt.test, stmt.step, stmt.body)
        header = next(iter(self.scopes.pop().values()), None)
        if header is not None:
            self.temps += 1
            old = f"t{self.temps}"
            self.lines.insert(at[0], "    " * at[2]
                              + f"{old} = env.get({header!r}, _MISSING)")
            self.restore([(header, old)])

    def loop(self, test: Optional[Expr], step: Optional[Stmt],
             body: Block) -> None:
        """``while (test) body``, with ``step`` after every iteration; a
        ``continue`` reaches the step through a flag at the loop top."""
        self.flush()
        again = self.temp("False") if step is not None \
            and _continues(body.stmts) else None
        self.line("while True:")
        self.depth += 1
        # The test compiles before the step, and the step before the body.
        outer, self.lines = self.lines, []
        if test is not None:
            self.test(test, loop=True)
        test_lines, self.lines = self.lines, []
        if step is not None:
            nest = int(again is not None)
            self.depth += nest
            self.simple(step)
            self.depth -= nest
        step_lines, self.lines = self.lines, outer
        if again is not None:
            self.line(f"if {again}:")
            self.lines.extend(step_lines)
            self.line(f"{again} = True")
        self.lines.extend(test_lines)
        self.pending += 1  # the iteration's op
        self.exits.append(["loop"])
        self.block(body)
        self.exits.pop()
        self.flush()
        if again is None:
            self.lines.extend(step_lines)
        self.depth -= 1

    # -- assignment ---------------------------------------------------------
    def assign(self, stmt: Assign) -> None:
        """``target op= value``: the value is evaluated first, then the
        target is resolved once (indices outermost first, then the base);
        a compound assignment reads and writes that one location."""
        target, op = stmt.target, stmt.op
        value = self.expr(stmt.value)
        at = self.mark()
        if isinstance(target, Ident):
            key = self.key(target.name)
            self.flush()
            if key is None:
                if op:
                    value = self.temp(f"_binop({op!r}, G[{target.name!r}], "
                                      f"{value})")
                undefined = f"undefined variable {target.name!r}"
                self.line(f"if {target.name!r} not in G: "
                          f"raise InterpError({undefined!r})")
                self.line(f"_store_name(G, {target.name!r}, {value})")
                return
            current = self.temp(f"env[{key!r}]")
            if op in _ARITH:
                self.arith(op, current, value, key)
                return
            if op:
                value = self.temp(f"_binop({op!r}, {current}, {value})")
            value = self.value(value)
            fast = f"type({current}) is int"
            if not _INT_ATOM.fullmatch(value):
                fast = f"type({value}) is int and {fast}"
            self.line(f"if {fast}: env[{key!r}] = {value}")
            self.line(f"else: _store_name(env, {key!r}, {value})")
        elif isinstance(target, ArrayIndex):
            if op:
                self.pending += 1  # reading the element costs its index op
            indices, base = _index_chain(target)
            atoms = self.operands(indices + [base])
            value = self.keep(value, at)
            self.flush()
            index = f"[{', '.join(reversed(atoms[:-1]))}]"
            node = self.const(base)
            base = self.value(atoms[-1])
            if op:
                element = self.temp(f"_load({base}, {index}, {node})")
                value = self.temp(f"_binop({op!r}, {element}, {value})")
                self.line(f"_store({base}, {index}, {value}, {node})")
            elif len(atoms) == 2:
                at_index, value = self.value(atoms[0]), self.value(value)
                slots = self.temp()
                self.line(f"if {_fast_index(base, at_index)} and type({value})"
                          f" is type(({slots} := {base}.storage)[{at_index}]):"
                          f" {slots}[{at_index}] = {value}")
                self.line(f"else: _store({base}, [{at_index}], {value}, "
                          f"{node})")
            else:
                self.line(f"_store({base}, {index}, {value}, {node})")
        elif isinstance(target, UnaryOp) and target.op == "*":
            if op:
                self.pending += 1  # reading ``*p`` costs its unary op
            pointer = self.expr(target.operand)
            value = self.keep(value, at)
            self.flush()
            self.line(f"_store_through({pointer}, {op!r}, {value})")
        else:
            if op:  # a compound assignment still reads its target
                self.expr(target)
            self.flush()
            self.line(f"raise _node_error('invalid assignment target', "
                      f"{self.const(target)})")

    # -- expressions --------------------------------------------------------
    def expr(self, expr: Expr) -> str:
        kind = type(expr)
        if kind is IntLit or kind is FloatLit or kind is StringLit:
            value = expr.value
            if type(value) in (int, str, bool) or (
                    type(value) is float and math.isfinite(value)):
                text = repr(value)
                return f"({text})" if text[0] == "-" else text
            return self.const(value)
        if kind is Ident:
            key = self.key(expr.name)
            if key is not None:
                return f"env[{key!r}]"
            self.flush()
            return self.temp(f"G[{expr.name!r}]")
        if kind is BinOp:
            return self.binop(expr)
        if kind is ArrayIndex:
            return self.index(expr)
        if kind is Call:
            return self.call(expr)
        if kind is UnaryOp:
            return self.unary(expr)
        if kind is Cond:
            self.pending += 1
            test = self.test(expr.test)
            result = f"t{self.temps + 1}"
            self.temps += 1
            self.line(f"if {test}:")
            self.nested(lambda: self.line(
                f"{result} = {self.expr(expr.then)}"))
            self.line("else:")
            self.nested(lambda: self.line(
                f"{result} = {self.expr(expr.other)}"))
            return result
        self.flush()
        self.line(f"raise _node_error('cannot evaluate expression', "
                  f"{self.const(expr)})")
        return "None"

    def binop(self, expr: BinOp) -> str:
        op = expr.op
        self.pending += 1
        if op == "&&" or op == "||":
            left = self.test(expr.left)
            self.temps += 1
            result = f"t{self.temps}"
            self.line(f"if {'not ' if op == '&&' else ''}{left}: "
                      f"{result} = {0 if op == '&&' else 1}")
            self.line("else:")
            self.nested(lambda: self.line(
                f"{result} = 1 if {self.test(expr.right)} else 0"))
            return result
        left, right = self.operands([expr.left, expr.right])
        self.flush()
        if op in _ARITH:
            return self.arith(op, left, right)
        if op in _COMPARE:
            result = self.temp()
            self.compare(f"{result} = 1 if {left} {op} {right} else 0",
                         op, left, right)
            return result
        return self.temp(f"_binop({op!r}, {left}, {right})")

    def compare(self, text: str, op: str, left: str, right: str) -> None:
        """``text``, which compares ``left op right``, with a failed
        comparison raised as an operand error."""
        self.line("try:")
        self.line("    " + text)
        self.line("except TypeError:")
        self.line(f"    raise _operand_error({op!r}, {left}, {right}) "
                  f"from None")

    def test(self, expr: Expr, loop: bool = False) -> str:
        """``expr`` for its truth only (a comparison need not become 1 or
        0); with ``loop``, ``break`` when it is false."""
        if type(expr) is not BinOp or expr.op not in _COMPARE:
            atom = self.expr(expr)
            self.flush()
            if loop:
                self.line(f"if not {atom}: break")
            return atom
        self.pending += 1
        op = expr.op
        left, right = self.operands([expr.left, expr.right])
        self.flush()
        if loop:
            self.compare(f"if not {left} {op} {right}: break", op, left, right)
            return ""
        result = self.temp()
        self.compare(f"{result} = {left} {op} {right}", op, left, right)
        return result

    def arith(self, op: str, left: str, right: str,
              key: Optional[str] = None) -> str:
        """``left op right`` for ``+ - * / %``: plain Python int ops
        wrapped only on overflow for two ints (``/ %`` only on a
        non-negative int over a positive one), ``_binop`` otherwise.
        With ``key`` (a local, whose value ``left`` is), the result is
        stored to it as ``_store_name`` would."""
        left, right = self.value(left), self.value(right)
        slow = f"_binop({op!r}, {left}, {right})"
        constant = _INT_ATOM.fullmatch(right)
        tests = [f"type({atom}) is int" for atom in (left, right)
                 if not _INT_ATOM.fullmatch(atom)]
        if op in "/%":
            tests += [f"{left} >= 0"] + ([] if constant else [f"{right} > 0"])
            if constant and int(right.strip("()")) <= 0:
                tests = ["False"]
        result = self.temp()
        fast = _WRAPPED.format(result, f"{left} {_ARITH[op]} {right}")
        test = " and ".join(tests)
        if key is not None:
            self.line(f"if {test}: env[{key!r}] = {fast}")
            self.line(f"else: _store_name(env, {key!r}, {slow})")
        elif tests:
            self.line(f"{result} = {fast} if {test} else {slow}")
        else:
            self.line(f"{result} = {fast}")
        return result

    def index(self, expr: ArrayIndex) -> str:
        """``a[i]...``: one op, then the indices (outermost first), then
        the base."""
        self.pending += 1
        indices, base = _index_chain(expr)
        atoms = self.operands(indices + [base])
        self.flush()
        node = self.const(base)
        index = f"[{', '.join(reversed(atoms[:-1]))}]"
        base = self.value(atoms[-1])
        if len(atoms) == 2:
            at_index = self.value(atoms[0])
            return self.temp(
                f"{base}.storage[{at_index}] if "
                f"{_fast_index(base, at_index)} else "
                f"_load({base}, [{at_index}], {node})")
        return self.temp(f"_load({base}, {index}, {node})")

    def call(self, expr: Call) -> str:
        self.pending += 1
        args = ", ".join(self.operands(expr.args))
        self.flush()
        self.line("I.op_count = ops; I.stmt_count = st")
        name = expr.name
        if name in self.functions:
            result = self.temp(f"F[{name!r}]([{args}])")
        else:
            result = self.temp(f"X.get({name!r})")
            self.line(f"{result} = {result}({args}) if {result} is not None "
                      f"else _intrinsic(I, {name!r}, [{args}])")
        self.line("ops = I.op_count; st = I.stmt_count")
        self.calls += 1
        return result

    def unary(self, expr: UnaryOp) -> str:
        self.pending += 1
        op, operand = expr.op, expr.operand
        if op == "&":
            if isinstance(operand, Ident):
                key = self.key(operand.name)
                if key is None:
                    self.flush()
                    home, key = "G", operand.name
                else:
                    home = "env"
                return self.temp(f"_address({home}, {key!r}, "
                                 f"{operand.name!r})")
            if isinstance(operand, ArrayIndex):
                indices, base = _index_chain(operand)
                atoms = self.operands(indices + [base])
                self.flush()
                base, node = self.value(atoms[-1]), self.const(base)
                index = ", ".join(reversed(atoms[:-1]))
                return self.temp(f"PointerValue(*_element_ref({base}, "
                                 f"_chain({base}, [{index}], {node})))")
            self.flush()
            self.line(f"raise _node_error('cannot take the address of', "
                      f"{self.const(operand)})")
            return "None"
        value = self.expr(operand)
        self.flush()
        if op == "-":
            value = self.value(value)
            return self.temp(f"_wrap32(-{value}) if type({value}) is int "
                             f"else _unary('-', {value})")
        return self.temp(f"_unary({op!r}, {value})")


def _fast_index(base: str, index: str) -> str:
    """The test for ``base[index]`` being an in-bounds element of a 1-D
    array."""
    return (f"type({base}) is ArrayValue and type({index}) is int and "
            f"len({base}.dims) == 1 and 0 <= {index} < {base}.dims[0]")


def _zero_text(dtype: Type, emitter: _Emitter) -> str:
    if isinstance(dtype, (ArrayType, PointerType)):
        return f"_zero({emitter.const(dtype)})"
    return repr(_zero(dtype))


def _index_chain(node: ArrayIndex) -> Tuple[List[Expr], Expr]:
    """The index expressions of ``a[i][j]`` outermost first (``[j, i]``)
    and the base (``a``): the order the chain is evaluated in."""
    indices: List[Expr] = []
    while isinstance(node, ArrayIndex):
        indices.append(node.index)
        node = node.base
    return indices, node


# What the emitted code sees besides its arguments.
_RUNTIME: Dict[str, Any] = {
    name: globals()[name] for name in (
        "ArrayValue", "InterpError", "PointerValue", "_MISSING", "_address",
        "_binop", "_chain", "_converted", "_element_ref", "_intrinsic",
        "_limit_error", "_load", "_node_error", "_operand_error", "_store",
        "_store_name", "_store_through", "_unary", "_wrap32", "_zero")}



def run_program(program: Program, entry: str = "main",
                args: Optional[List[Any]] = None,
                externals: Optional[Dict[str, Callable[..., Any]]] = None,
                step_limit: int = Interpreter.DEFAULT_STEP_LIMIT) -> RunResult:
    """Parse-and-go convenience: interpret ``program`` from ``entry``."""
    interp = Interpreter(program, externals=externals, step_limit=step_limit)
    return interp.run(entry, args)


__all__ = ["ArrayValue", "INTRINSIC_ARITIES", "InterpError",
           "Interpreter", "PointerValue", "RunResult", "Value",
           "intrinsic_arity_error", "run_program"]
