"""Counting interpreter for mini-C, compiled to nested Python closures.

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

Execution model: each function is compiled once per :class:`Interpreter`,
on its first call, into a tree of closures (one per AST node) that carry
their own op/statement ticks and step-limit checks; global initializers are
compiled the same way when the interpreter is built.  The closures read
the AST only while compiling, so mutating the AST (or ``step_limit``)
under a live ``Interpreter`` is unsupported: build a new one instead.

Counting contract (what ``op_count``/``stmt_count`` mean): every executed
statement is one statement and one op; every loop iteration, array read,
call, unary operator, binary operator and ternary is one op.  Literals,
identifier reads and assignment targets are free, and so is the operator
of a compound assignment.  The step-limit error fires on the first op past
``step_limit``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple, Union

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
        self.globals_env: Env = {}
        self.output: List[Any] = []
        self.op_count = 0
        self.stmt_count = 0
        self.call_counts: Dict[str, int] = {}
        self.func_op_counts: Dict[str, int] = {}
        # Function name -> its compiled entry (args list -> return value).
        self._compiled: Dict[str, Callable[[List[Any]], Any]] = {}
        self._global_names = frozenset(decl.name for decl in program.globals)
        self._init_globals()

    def _init_globals(self) -> None:
        # Initializers run in global scope: their env *is* globals_env.
        compiler = _Compiler(self, frozenset())
        for decl in self.program.globals:
            if decl.init is not None:
                init = compiler.expr(decl.init)
                value = _coerce(init(self.globals_env), decl.type)
            else:
                value = _default_factory(decl.type)()
            self.globals_env[decl.name] = value

    def _function(self, name: str) -> Callable[[List[Any]], Any]:
        """The compiled entry of mini-C function ``name``, compiled on
        first use."""
        entry = self._compiled.get(name)
        if entry is None:
            entry = _compile_function(self, self.functions[name])
            self._compiled[name] = entry
        return entry

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
                return self._function(name)(args)
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
# values, coercions and operators (shared by every compiled closure)
# ---------------------------------------------------------------------------

INT_MIN, INT_MAX = -2**31, 2**31 - 1

# Statement results other than "fall through": loops consume these two,
# a ``return`` hands back a 1-tuple holding its value.
_BREAK = ("break",)
_CONTINUE = ("continue",)
_MISSING = object()


def _limit_error(limit: int) -> InterpError:
    return InterpError(f"step limit {limit} exceeded (infinite loop?)")


def _default_factory(dtype: Type) -> Callable[[], Value]:
    """A maker of the zero value of ``dtype`` (fresh storage per call)."""
    if isinstance(dtype, ArrayType):
        element, dims = dtype.element, dtype.dims
        return lambda: ArrayValue.zeros(element, dims)
    if isinstance(dtype, PointerType):
        return lambda: PointerValue([0], 0)
    if isinstance(dtype, ScalarType) and dtype.name == "float":
        return lambda: 0.0
    return lambda: 0


def _coerce(value: Any, dtype: Type) -> Any:
    if isinstance(dtype, ScalarType):
        if dtype.name == "int" and isinstance(value, float):
            return int(value)
        if dtype.name == "float" and isinstance(value, int):
            return float(value)
    elif isinstance(value, ArrayValue) and isinstance(dtype, PointerType):
        return PointerValue(value.storage, 0)  # array-to-pointer decay
    return value


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
# circuits have closures of their own (see _Compiler.binop).
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
    included; the closures' int fast paths fall back to this."""
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


def _index_chain(node: ArrayIndex) -> Tuple[List[Expr], Expr]:
    """The index expressions of ``a[i][j]`` outermost first (``[j, i]``)
    and the base (``a``): the order the chain is evaluated in."""
    indices: List[Expr] = []
    while isinstance(node, ArrayIndex):
        indices.append(node.index)
        node = node.base
    return indices, node


def _resolve_chain(index_fns: List[Callable], base_fn: Callable,
                   base_node: Expr, env: Env):
    """Evaluate an index chain's compiled indices (outermost first) and
    then its base: (the array or pointer, the indices innermost first)."""
    indices = []
    for index_fn in index_fns:
        index = index_fn(env)
        indices.append(int(index) if isinstance(index, float) else index)
    indices.reverse()
    base = base_fn(env)
    if not isinstance(base, (ArrayValue, PointerValue)):
        raise InterpError(f"indexing a non-array value via {base_node!r}")
    return base, indices


def _element_ref(base: Any, indices: List[int]) -> Tuple[List[Any], int]:
    """(storage, offset) addressed by ``base[indices]``, bounds unchecked
    for pointers (their deref/store checks) and checked for arrays."""
    if isinstance(base, PointerValue):
        if len(indices) != 1:
            raise InterpError("pointer indexing takes one index")
        return base.storage, base.offset + indices[0]
    return base.storage, base.flat_offset(indices)


def _read_element(base: Any, indices: List[int]) -> Any:
    if isinstance(base, PointerValue):
        return PointerValue(*_element_ref(base, indices)).deref()
    if len(indices) < len(base.dims):
        raise InterpError("partial array indexing is unsupported")
    return base.get(indices)


def _write_element(base: Any, indices: List[int], value: Any) -> None:
    if isinstance(base, PointerValue):
        PointerValue(*_element_ref(base, indices)).store(value)
        return
    offset = base.flat_offset(indices)
    base.storage[offset] = _converted(value, base.storage[offset])


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
# the compiler: AST -> closures
# ---------------------------------------------------------------------------
#
# A compiled expression is ``fn(env) -> value``.  A compiled statement is
# ``fn(env) -> None | _BREAK | _CONTINUE | (value,)``.  ``env`` maps the
# names of the running call's live locals to values; it is their only
# home, and ``&x`` points at the binding in it.

def _compile_function(interp: Interpreter,
                      func: FuncDef) -> Callable[[List[Any]], Any]:
    """Compile ``func`` into its entry: args list -> coerced return value,
    keeping ``call_counts``/``func_op_counts`` as every call returns or
    raises."""
    local_names = {param.name for param in func.params}
    local_names.update(node.name for node in func.body.walk()
                       if isinstance(node, Decl))
    compiler = _Compiler(interp, frozenset(local_names))
    compiler.scopes[-1].update((param.name, param.name)
                               for param in func.params)
    # The body's own declarations share the parameters' scope and need no
    # scope bookkeeping: the call's env dies with it.
    body = compiler.block(func.body, scoped=False)
    name = func.name
    params = [(param.name, param.type) for param in func.params]
    return_type = func.return_type
    call_counts = interp.call_counts
    func_op_counts = interp.func_op_counts

    def entry(args: List[Any]) -> Any:
        if len(args) != len(params):
            raise InterpError(
                f"{name}() expects {len(params)} args, got {len(args)}")
        env: Env = {}
        for (param, dtype), arg in zip(params, args):
            env[param] = _coerce(arg, dtype)
        call_counts[name] = call_counts.get(name, 0) + 1
        ops_before = interp.op_count
        try:
            outcome = body(env)
        finally:
            func_op_counts[name] = (func_op_counts.get(name, 0)
                                    + interp.op_count - ops_before)
        if outcome is None:
            return _coerce(None, return_type)
        if outcome is _BREAK or outcome is _CONTINUE:
            raise InterpError(f"{outcome[0]} outside a loop in {name}()")
        return _coerce(outcome[0], return_type)

    return entry


class _Compiler:
    """Compiles the statements and expressions of one scope.

    ``local_names`` are the names the function declares (parameters and
    every ``Decl``); identifiers are classified against it at compile
    time: never declared here -> read ``globals_env`` only; declared here
    and never global -> read the call's ``env`` only; both -> ``env``
    first, then ``globals_env``.

    A local's ``env`` key is its name, except for a declaration that
    shadows a local of an enclosing scope: that one gets a key of its own
    (``x'1``), resolved while compiling, so a pointer to the outer ``x``
    keeps addressing the outer one.  ``scopes`` maps names to keys, one
    dict per open scope.
    """

    def __init__(self, interp: Interpreter, local_names: FrozenSet[str]) -> None:
        self.interp = interp
        self.limit = interp.step_limit
        self.local_names = local_names
        self.global_names = interp._global_names
        self.scopes: List[Dict[str, str]] = [{}]
        self.renamed = 0

    def key(self, name: str) -> str:
        """The ``env`` key ``name`` refers to at this point of the code."""
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return name

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

    # -- statements -------------------------------------------------------
    def block(self, block: Block, scoped: bool = True):
        """The block's statements in sequence.  A block that declares
        names restores their bindings when it is left (by falling
        through, ``break`` or ``continue``)."""
        if not scoped:
            return _sequence([self.stmt(stmt) for stmt in block.stmts])
        self.scopes.append({})
        stmts = [self.stmt(stmt) for stmt in block.stmts]
        scope = self.scopes.pop()
        if scope:
            return _scoped_block(
                [scope[stmt.name] if isinstance(stmt, Decl) else None
                 for stmt in block.stmts], stmts)
        return _sequence(stmts)

    def stmt(self, stmt: Stmt):
        interp, limit = self.interp, self.limit
        kind = type(stmt)
        if kind is Assign:
            return self.assign(stmt)
        if kind is ExprStmt:
            expr = self.expr(stmt.expr)

            def run_expr(env):
                interp.stmt_count += 1
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                expr(env)
            return run_expr
        if kind is Decl:
            return self.decl(stmt)
        if kind is If:
            return self.if_stmt(stmt)
        if kind is For:
            return self.for_stmt(stmt)
        if kind is While:
            return self.while_stmt(stmt)
        if kind is Return:
            value = self.expr(stmt.value) if stmt.value is not None else None

            def run_return(env):
                interp.stmt_count += 1
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                return (value(env) if value is not None else None,)
            return run_return
        if kind is Block:
            inner = self.block(stmt)
            signal = None
        else:
            inner = None
            signal = {Break: _BREAK, Continue: _CONTINUE}.get(kind)

        def run_other(env):
            interp.stmt_count += 1
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            if inner is not None:
                return inner(env)
            if signal is None:
                raise InterpError(f"cannot execute statement {stmt!r}")
            return signal
        return run_other

    def decl(self, stmt: Decl):
        interp, limit = self.interp, self.limit
        dtype = stmt.type
        init = self.expr(stmt.init) if stmt.init is not None else None
        name = self.declare(stmt.name)
        default = _default_factory(dtype)

        def run_decl(env):
            interp.stmt_count += 1
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            if init is None:
                env[name] = default()
            else:
                env[name] = _coerce(init(env), dtype)
        return run_decl

    def if_stmt(self, stmt: If):
        interp, limit = self.interp, self.limit
        test = self.expr(stmt.test)
        then = self.block(stmt.then)
        other = self.block(stmt.other) if stmt.other is not None else None

        def run_if(env):
            interp.stmt_count += 1
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            if test(env):
                return then(env)
            if other is not None:
                return other(env)
        return run_if

    def while_stmt(self, stmt: While):
        interp, limit = self.interp, self.limit
        test = self.expr(stmt.test)
        body = self.block(stmt.body)

        def run_while(env):
            interp.stmt_count += 1
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            while test(env):
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                outcome = body(env)
                if outcome is not None:
                    if outcome is _BREAK:
                        break
                    if outcome is not _CONTINUE:
                        return outcome
        return run_while

    def for_stmt(self, stmt: For):
        interp, limit = self.interp, self.limit
        # A for-header declaration lives for the duration of the loop.
        self.scopes.append({})
        init = self.stmt(stmt.init) if stmt.init is not None else None
        test = self.expr(stmt.test) if stmt.test is not None else None
        step = self.stmt(stmt.step) if stmt.step is not None else None
        body = self.block(stmt.body)
        header = next(iter(self.scopes.pop().values()), None)

        def run_for(env):
            interp.stmt_count += 1
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            if header is not None:
                shadow = env.get(header, _MISSING)
            if init is not None:
                init(env)
            while test is None or test(env):
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                outcome = body(env)
                if outcome is not None:
                    if outcome is _BREAK:
                        break
                    if outcome is not _CONTINUE:
                        return outcome
                if step is not None:
                    step(env)
            if header is not None:
                if shadow is _MISSING:
                    env.pop(header, None)
                else:
                    env[header] = shadow
        return run_for

    # -- assignment ---------------------------------------------------------
    def assign(self, stmt: Assign):
        """``target op= value``: the value is evaluated first, then the
        target is resolved once (indices outermost first, then the base);
        a compound assignment reads and writes that one location."""
        interp, limit = self.interp, self.limit
        value_fn = self.expr(stmt.value)
        target, op = stmt.target, stmt.op
        if isinstance(target, Ident):
            return self.assign_name(target.name, op, value_fn)
        if isinstance(target, ArrayIndex):
            return self.assign_index(target, op, value_fn)
        if isinstance(target, UnaryOp) and target.op == "*":
            pointer_fn = self.expr(target.operand)

            def run_assign_deref(env):
                interp.stmt_count += 1
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                value = value_fn(env)
                if op:
                    # Reading ``*p`` costs its unary op.
                    ops = interp.op_count + 1
                    interp.op_count = ops
                    if ops > limit:
                        raise _limit_error(limit)
                pointer = pointer_fn(env)
                if not isinstance(pointer, PointerValue):
                    raise InterpError("dereferencing a non-pointer")
                if op:
                    value = _binop(op, pointer.deref(), value)
                pointer.store(value)
            return run_assign_deref

        # A compound assignment still reads its (unassignable) target.
        read_target = self.expr(target) if op else None

        def run_assign_invalid(env):
            interp.stmt_count += 1
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            value_fn(env)
            if read_target is not None:
                read_target(env)
            raise InterpError(f"invalid assignment target {target!r}")
        return run_assign_invalid

    def assign_name(self, name: str, op: str, value_fn):
        interp, limit = self.interp, self.limit
        undefined = f"undefined variable {name!r}"
        key = self.key(name)
        if name not in self.local_names:
            # Only globals can be meant: the call's env never holds it.
            globals_env = interp.globals_env

            def run_assign_global(env):
                interp.stmt_count += 1
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                value = value_fn(env)
                if name not in globals_env:
                    raise InterpError(undefined)
                if op:
                    value = _binop(op, globals_env[name], value)
                _store_name(globals_env, name, value)
            return run_assign_global
        if name in self.global_names:
            globals_env = interp.globals_env

            def run_assign_shadowing(env):
                interp.stmt_count += 1
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                value = value_fn(env)
                if key in env:
                    if op:
                        value = _binop(op, env[key], value)
                    _store_name(env, key, value)
                elif name in globals_env:
                    if op:
                        value = _binop(op, globals_env[name], value)
                    _store_name(globals_env, name, value)
                else:
                    raise InterpError(undefined)
            return run_assign_shadowing

        def run_assign_local(env):
            interp.stmt_count += 1
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            value = value_fn(env)
            if key not in env:
                raise InterpError(undefined)
            current = env[key]
            if op:
                if type(current) is int and type(value) is int \
                        and (op == "+" or op == "-"):
                    value = current + value if op == "+" \
                        else current - value
                    if not INT_MIN <= value <= INT_MAX:
                        value = _wrap32(value)
                else:
                    value = _binop(op, current, value)
            if type(value) is int and type(current) is int:
                env[key] = value
            else:
                _store_name(env, key, value)
        return run_assign_local

    def assign_index(self, target: ArrayIndex, op: str, value_fn):
        interp, limit = self.interp, self.limit
        index_nodes, base_node = _index_chain(target)
        index_fns = [self.expr(node) for node in index_nodes]
        base_fn = self.expr(base_node)

        if len(index_fns) == 1 and not op:
            index_fn = index_fns[0]

            def run_store_1d(env):
                interp.stmt_count += 1
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                value = value_fn(env)
                index = index_fn(env)
                if isinstance(index, float):
                    index = int(index)
                base = base_fn(env)
                if type(base) is ArrayValue and len(base.dims) == 1:
                    size = base.dims[0]
                    if not 0 <= index < size:
                        raise InterpError(f"index {index} out of bounds "
                                          f"for dimension {size}")
                    storage = base.storage
                    current = storage[index]
                    if type(value) is not type(current):
                        value = _converted(value, current)
                    storage[index] = value
                    return
                if not isinstance(base, (ArrayValue, PointerValue)):
                    raise InterpError(f"indexing a non-array value via "
                                      f"{base_node!r}")
                _write_element(base, [index], value)
            return run_store_1d

        def run_store(env):
            interp.stmt_count += 1
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            value = value_fn(env)
            if op:
                # Reading the element costs its index op.
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
            base, indices = _resolve_chain(index_fns, base_fn, base_node, env)
            if op:
                value = _binop(op, _read_element(base, indices), value)
            _write_element(base, indices, value)
        return run_store

    # -- expressions --------------------------------------------------------
    def expr(self, expr: Expr):
        kind = type(expr)
        if kind is IntLit or kind is FloatLit or kind is StringLit:
            constant = expr.value
            return lambda env: constant
        if kind is Ident:
            return self.ident(expr.name)
        if kind is BinOp:
            return self.binop(expr)
        if kind is ArrayIndex:
            return self.index(expr)
        if kind is Call:
            return self.call(expr)
        if kind is UnaryOp:
            return self.unary(expr)
        if kind is Cond:
            return self.cond(expr)

        def unknown(env):
            raise InterpError(f"cannot evaluate expression {expr!r}")
        return unknown

    def ident(self, name: str):
        undefined = f"undefined variable {name!r}"
        globals_env = self.interp.globals_env
        if name not in self.local_names:
            def read_global(env):
                try:
                    return globals_env[name]
                except KeyError:
                    raise InterpError(undefined) from None
            return read_global
        key = self.key(name)
        if name not in self.global_names:
            def read_local(env):
                try:
                    return env[key]
                except KeyError:
                    raise InterpError(undefined) from None
            return read_local

        def read_shadowing(env):
            if key in env:
                return env[key]
            try:
                return globals_env[name]
            except KeyError:
                raise InterpError(undefined) from None
        return read_shadowing

    def binop(self, expr: BinOp):
        interp, limit = self.interp, self.limit
        op = expr.op
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        if op == "&&":
            def run_and(env):
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                if not left(env):
                    return 0
                return 1 if right(env) else 0
            return run_and
        if op == "||":
            def run_or(env):
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                if left(env):
                    return 1
                return 1 if right(env) else 0
            return run_or
        # An int literal on the right is folded into the operator closure.
        constant = expr.right.value if type(expr.right) is IntLit \
            else _MISSING
        if op in _INT_FAST:
            return _arith(interp, limit, op, left, right, constant)
        if op in _COMPARE:
            return _compare(interp, limit, op, left, right, constant)

        def run_binop(env):
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            return _binop(op, left(env), right(env))
        return run_binop

    def index(self, expr: ArrayIndex):
        """``a[i]...``: one op, then the indices (outermost first), then
        the base."""
        interp, limit = self.interp, self.limit
        index_nodes, base_node = _index_chain(expr)
        index_fns = [self.expr(node) for node in index_nodes]
        base_fn = self.expr(base_node)
        if len(index_fns) == 1:
            index_fn = index_fns[0]

            def run_index_1d(env):
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                index = index_fn(env)
                if isinstance(index, float):
                    index = int(index)
                base = base_fn(env)
                if type(base) is ArrayValue and len(base.dims) == 1:
                    size = base.dims[0]
                    if 0 <= index < size:
                        return base.storage[index]
                    raise InterpError(f"index {index} out of bounds for "
                                      f"dimension {size}")
                if not isinstance(base, (ArrayValue, PointerValue)):
                    raise InterpError(f"indexing a non-array value via "
                                      f"{base_node!r}")
                return _read_element(base, [index])
            return run_index_1d

        def run_index(env):
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            base, indices = _resolve_chain(index_fns, base_fn, base_node, env)
            return _read_element(base, indices)
        return run_index

    def call(self, expr: Call):
        interp, limit = self.interp, self.limit
        name = expr.name
        arg_fns = [self.expr(arg) for arg in expr.args]
        if name in interp.functions:
            compiled = interp._compiled

            def run_call(env):
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                args = [arg(env) for arg in arg_fns]
                entry = compiled.get(name)
                if entry is None:
                    entry = interp._function(name)
                return entry(args)
            return run_call
        externals = interp.externals

        def run_other_call(env):
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            args = [arg(env) for arg in arg_fns]
            external = externals.get(name)
            if external is not None:
                return external(*args)
            if name in _INTRINSICS:
                return _call_intrinsic(interp, name, args)
            raise InterpError(f"call to unknown function {name!r}")
        return run_other_call

    def unary(self, expr: UnaryOp):
        interp, limit = self.interp, self.limit
        op = expr.op
        if op == "&":
            address = self.address_of(expr.operand)

            def run_address(env):
                ops = interp.op_count + 1
                interp.op_count = ops
                if ops > limit:
                    raise _limit_error(limit)
                return address(env)
            return run_address
        operand = self.expr(expr.operand)

        def run_unary(env):
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            value = operand(env)
            if op == "-":
                # Negating INT_MIN overflows on a 32-bit target; wrap like
                # every other int arithmetic op (floats stay host-precision).
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
        return run_unary

    def address_of(self, operand: Expr):
        """``&operand`` (its op is counted by the caller)."""
        if isinstance(operand, Ident):
            name = operand.name
            key = self.key(name)
            undefined = f"undefined variable {name!r}"
            globals_env = self.interp.globals_env

            def run_address_name(env):
                slot = key
                if slot not in env:
                    if name not in globals_env:
                        raise InterpError(undefined)
                    env, slot = globals_env, name
                value = env[slot]
                if isinstance(value, ArrayValue):
                    return PointerValue(value.storage, 0)
                return PointerValue(_Binding(env, slot), 0)
            return run_address_name
        if isinstance(operand, ArrayIndex):
            index_nodes, base_node = _index_chain(operand)
            index_fns = [self.expr(node) for node in index_nodes]
            base_fn = self.expr(base_node)

            def run_address_element(env):
                base, indices = _resolve_chain(index_fns, base_fn, base_node,
                                               env)
                return PointerValue(*_element_ref(base, indices))
            return run_address_element

        def run_address_invalid(env):
            raise InterpError(f"cannot take the address of {operand!r}")
        return run_address_invalid

    def cond(self, expr: Cond):
        interp, limit = self.interp, self.limit
        test = self.expr(expr.test)
        then = self.expr(expr.then)
        other = self.expr(expr.other)

        def run_cond(env):
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            if test(env):
                return then(env)
            return other(env)
        return run_cond


def _sequence(stmts: List[Callable]):
    """Run ``stmts`` in order until one leaves the block."""
    if not stmts:
        return lambda env: None
    if len(stmts) == 1:
        return stmts[0]
    if len(stmts) == 2:
        first, second = stmts

        def run_pair(env):
            outcome = first(env)
            if outcome is not None:
                return outcome
            return second(env)
        return run_pair

    def run_sequence(env):
        for stmt in stmts:
            outcome = stmt(env)
            if outcome is not None:
                return outcome
    return run_sequence


def _scoped_block(keys: List[Optional[str]], stmts: List[Callable]):
    """A block with declarations (``keys[i]`` is the ``env`` key statement
    ``i`` declares, else None): when a key is first declared in it, the
    binding it had is saved, and every key the block declared so far is
    restored when the block is left."""
    plan = []
    seen = set()
    for key, stmt in zip(keys, stmts):
        if key in seen:
            key = None
        seen.add(key)
        plan.append((stmt, key))

    def run_scoped(env):
        saved = []
        outcome = None
        for stmt, key in plan:
            if key is not None:
                saved.append((key, env.get(key, _MISSING)))
            outcome = stmt(env)
            if outcome is not None:
                break
        for key, old_value in saved:
            if old_value is _MISSING:
                env.pop(key, None)
            else:
                env[key] = old_value
        return outcome
    return run_scoped


# -- arithmetic and comparison closures --------------------------------------
# ``+ - *`` on two ints, and ``/ %`` on a non-negative int over a positive
# one, are plain Python int ops wrapped only on overflow; every other
# operand kind (floats, pointers, strings, signs) goes through ``_binop``.
# Each factory also has a variant for an int literal right operand.

_INT_FAST: Dict[str, Tuple[Callable[[int, int], int], bool]] = {
    # op -> (the int operation, whether it is a division)
    "+": (operator.add, False), "-": (operator.sub, False),
    "*": (operator.mul, False), "/": (operator.floordiv, True),
    "%": (operator.mod, True),
}


def _arith(interp: Interpreter, limit: int, op: str, left, right, constant):
    fast, division = _INT_FAST[op]
    if constant is not _MISSING and (constant > 0 or not division):
        def run_arith_constant(env):
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            a = left(env)
            if type(a) is int and (not division or a >= 0):
                result = fast(a, constant)
                return result if INT_MIN <= result <= INT_MAX \
                    else _wrap32(result)
            return _binop(op, a, constant)
        return run_arith_constant

    def run_arith(env):
        ops = interp.op_count + 1
        interp.op_count = ops
        if ops > limit:
            raise _limit_error(limit)
        a = left(env)
        b = right(env)
        if type(a) is int and type(b) is int \
                and (not division or (a >= 0 and b > 0)):
            result = fast(a, b)
            return result if INT_MIN <= result <= INT_MAX else _wrap32(result)
        return _binop(op, a, b)
    return run_arith


def _compare(interp: Interpreter, limit: int, op: str, left, right,
             constant):
    compare = _COMPARE[op]
    if constant is not _MISSING:
        def run_compare_constant(env):
            ops = interp.op_count + 1
            interp.op_count = ops
            if ops > limit:
                raise _limit_error(limit)
            a = left(env)
            try:
                return 1 if compare(a, constant) else 0
            except TypeError:
                raise _operand_error(op, a, constant) from None
        return run_compare_constant

    def run_compare(env):
        ops = interp.op_count + 1
        interp.op_count = ops
        if ops > limit:
            raise _limit_error(limit)
        a = left(env)
        b = right(env)
        try:
            return 1 if compare(a, b) else 0
        except TypeError:
            raise _operand_error(op, a, b) from None
    return run_compare


_COMPARE: Dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}


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
