"""AST interpreter for mini-C with operation counting.

The interpreter serves three roles in the reproduction:

1. **Semantics oracle** -- Source Recoder transformations (section VI) are
   validated by running a program before and after a transformation and
   comparing results and output.
2. **Cost model** -- executed-operation counts per function/statement feed
   the MAPS partitioner's task weights (section IV).
3. **Golden reference** -- MAPS-generated parallel task code is checked
   against the sequential interpretation.

Semantics follow C where the subset overlaps: truncating integer division,
short-circuit ``&&``/``||``, arrays passed by reference, scalars by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import math

from repro.cir.nodes import (
    ArrayIndex, Assign, BinOp, Block, Break, Call, Cond, Continue, Decl,
    Expr, ExprStmt, FloatLit, For, FuncDef, Ident, If, IntLit, Program,
    Return, Stmt, StringLit, UnaryOp, While,
)
from repro.cir.typesys import ArrayType, PointerType, ScalarType, Type


class InterpError(Exception):
    """Raised on runtime errors: bad index, division by zero, step limit."""


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

    def set(self, indices: List[int], value: Any) -> None:
        self.storage[self.flat_offset(indices)] = value

    def tolist(self) -> List[Any]:
        return list(self.storage)


@dataclass
class PointerValue:
    """A pointer into a storage list (array backing store or a scalar cell)."""

    storage: List[Any]
    offset: int

    def deref(self) -> Any:
        if not (0 <= self.offset < len(self.storage)):
            raise InterpError(f"pointer dereference out of bounds "
                              f"({self.offset}/{len(self.storage)})")
        return self.storage[self.offset]

    def store(self, value: Any) -> None:
        if not (0 <= self.offset < len(self.storage)):
            raise InterpError(f"pointer store out of bounds "
                              f"({self.offset}/{len(self.storage)})")
        self.storage[self.offset] = value


# A scalar variable lives in a one-slot list so '&x' can point at it.
Cell = List[Any]
Value = Union[int, float, str, ArrayValue, PointerValue]


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value


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
        self.globals_env: Dict[str, Value] = {}
        self.global_cells: Dict[str, Cell] = {}
        self.output: List[Any] = []
        self.op_count = 0
        self.stmt_count = 0
        self.call_counts: Dict[str, int] = {}
        self.func_op_counts: Dict[str, int] = {}
        self._call_stack: List[str] = []
        self._block_decl_cache: Dict[int, bool] = {}
        self._init_globals()

    # ------------------------------------------------------------------
    def _init_globals(self) -> None:
        for decl in self.program.globals:
            value = self._default_value(decl.type)
            if decl.init is not None:
                value = self._coerce(self._eval(decl.init, self.globals_env,
                                                self.global_cells), decl.type)
            if decl.type.is_scalar():
                self.global_cells[decl.name] = [value]
            self.globals_env[decl.name] = value

    def _default_value(self, dtype: Type) -> Value:
        if isinstance(dtype, ArrayType):
            return ArrayValue.zeros(dtype.element, dtype.dims)
        if isinstance(dtype, PointerType):
            return PointerValue([0], 0)
        if isinstance(dtype, ScalarType) and dtype.name == "float":
            return 0.0
        return 0

    @staticmethod
    def _coerce(value: Any, dtype: Type) -> Any:
        if isinstance(dtype, ScalarType):
            if dtype.name == "int" and isinstance(value, float):
                return int(value)
            if dtype.name == "float" and isinstance(value, int):
                return float(value)
        return value

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def run(self, entry: str = "main", args: Optional[List[Any]] = None) -> RunResult:
        """Call ``entry`` and package the result."""
        value = self.call(entry, args or [])
        snapshot = {
            name: (val.tolist() if isinstance(val, ArrayValue) else
                   (self.global_cells[name][0]
                    if name in self.global_cells else val))
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
        """Invoke a mini-C function (or an external) with Python values."""
        if name not in self.functions:
            if name in self.externals:
                return self.externals[name](*args)
            intrinsic = _INTRINSICS.get(name)
            if intrinsic is not None:
                return intrinsic(self, args)
            raise InterpError(f"call to unknown function {name!r}")
        func = self.functions[name]
        if len(args) != len(func.params):
            raise InterpError(
                f"{name}() expects {len(func.params)} args, got {len(args)}")
        env: Dict[str, Value] = {}
        cells: Dict[str, Cell] = {}
        for param, arg in zip(func.params, args):
            value = self._coerce(arg, param.type)
            if param.type.is_scalar():
                cells[param.name] = [value]
            env[param.name] = value
        self.call_counts[name] = self.call_counts.get(name, 0) + 1
        self._call_stack.append(name)
        ops_before = self.op_count
        try:
            self._exec_block(func.body, env, cells)
            result: Any = None
        except _ReturnSignal as signal:
            result = signal.value
        finally:
            self._call_stack.pop()
            spent = self.op_count - ops_before
            self.func_op_counts[name] = self.func_op_counts.get(name, 0) + spent
        return self._coerce(result, func.return_type)

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    def _tick(self, amount: int = 1) -> None:
        self.op_count += amount
        if self.op_count > self.step_limit:
            raise InterpError(f"step limit {self.step_limit} exceeded "
                              f"(infinite loop?)")

    def _exec_block(self, block: Block, env: Dict[str, Value],
                    cells: Dict[str, Cell]) -> None:
        # Fast path: blocks without declarations (the common loop body)
        # need no shadowing bookkeeping.  Cached per block identity; valid
        # while the AST is not mutated under a running interpreter.
        block_id = id(block)
        has_decls = self._block_decl_cache.get(block_id)
        if has_decls is None:
            has_decls = any(isinstance(stmt, Decl) for stmt in block.stmts)
            self._block_decl_cache[block_id] = has_decls
        if not has_decls:
            execute = self._exec_stmt
            for stmt in block.stmts:
                execute(stmt, env, cells)
            return
        # Locals declared inside the block shadow and then disappear.
        declared: List[str] = []
        shadowed_env: Dict[str, Any] = {}
        shadowed_cells: Dict[str, Any] = {}
        try:
            for stmt in block.stmts:
                if isinstance(stmt, Decl):
                    if stmt.name in env and stmt.name not in declared:
                        shadowed_env[stmt.name] = env[stmt.name]
                        if stmt.name in cells:
                            shadowed_cells[stmt.name] = cells[stmt.name]
                    declared.append(stmt.name)
                self._exec_stmt(stmt, env, cells)
        finally:
            for name in declared:
                env.pop(name, None)
                cells.pop(name, None)
            env.update(shadowed_env)
            cells.update(shadowed_cells)

    def _exec_stmt(self, stmt: Stmt, env: Dict[str, Value],
                   cells: Dict[str, Cell]) -> None:
        # Hot path: dispatch on concrete node type (see _STMT_DISPATCH).
        self.stmt_count += 1
        self.op_count += 1
        if self.op_count > self.step_limit:
            raise InterpError(f"step limit {self.step_limit} exceeded "
                              f"(infinite loop?)")
        method = _STMT_DISPATCH.get(type(stmt))
        if method is None:
            raise InterpError(f"cannot execute statement {stmt!r}")
        method(self, stmt, env, cells)

    def _exec_decl(self, stmt, env, cells) -> None:
        value = self._default_value(stmt.type)
        if stmt.init is not None:
            value = self._coerce(self._eval(stmt.init, env, cells),
                                 stmt.type)
        if stmt.type.is_scalar():
            cells[stmt.name] = [value]
        env[stmt.name] = value

    def _exec_exprstmt(self, stmt, env, cells) -> None:
        self._eval(stmt.expr, env, cells)

    def _exec_if(self, stmt, env, cells) -> None:
        if self._truthy(self._eval(stmt.test, env, cells)):
            self._exec_block(stmt.then, env, cells)
        elif stmt.other is not None:
            self._exec_block(stmt.other, env, cells)

    def _exec_while(self, stmt, env, cells) -> None:
        while self._truthy(self._eval(stmt.test, env, cells)):
            self._tick()
            try:
                self._exec_block(stmt.body, env, cells)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue

    def _exec_return(self, stmt, env, cells) -> None:
        value = None
        if stmt.value is not None:
            value = self._eval(stmt.value, env, cells)
        raise _ReturnSignal(value)

    def _exec_break(self, stmt, env, cells) -> None:
        raise _BreakSignal()

    def _exec_continue(self, stmt, env, cells) -> None:
        raise _ContinueSignal()

    def _exec_for(self, stmt: For, env: Dict[str, Value],
                  cells: Dict[str, Cell]) -> None:
        # For-header declarations live for the duration of the loop.
        header_decl = isinstance(stmt.init, Decl)
        shadow: Tuple[Any, Any, bool] = (None, None, False)
        if header_decl:
            name = stmt.init.name  # type: ignore[union-attr]
            shadow = (env.get(name), cells.get(name), name in env)
        try:
            if stmt.init is not None:
                self._exec_stmt(stmt.init, env, cells)
            while (stmt.test is None or
                   self._truthy(self._eval(stmt.test, env, cells))):
                self._tick()
                try:
                    self._exec_block(stmt.body, env, cells)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if stmt.step is not None:
                    self._exec_stmt(stmt.step, env, cells)
        finally:
            if header_decl:
                name = stmt.init.name  # type: ignore[union-attr]
                old_env, old_cell, was_present = shadow
                if was_present:
                    env[name] = old_env
                    if old_cell is not None:
                        cells[name] = old_cell
                else:
                    env.pop(name, None)
                    cells.pop(name, None)

    def _exec_assign(self, stmt: Assign, env: Dict[str, Value],
                     cells: Dict[str, Cell]) -> None:
        value = self._eval(stmt.value, env, cells)
        target = stmt.target
        if stmt.op:
            old = self._eval(target, env, cells)
            value = self._binop(stmt.op, old, value)
        self._store(target, value, env, cells)

    def _store(self, target: Expr, value: Any, env: Dict[str, Value],
               cells: Dict[str, Cell]) -> None:
        if isinstance(target, Ident):
            container_env, container_cells = self._containers(target.name,
                                                              env, cells)
            current = container_env.get(target.name)
            if isinstance(current, ArrayValue):
                raise InterpError(f"cannot assign to array {target.name!r}")
            if isinstance(current, (int, float)) and isinstance(value, float) \
                    and isinstance(current, int) and not isinstance(current, bool):
                value = int(value)
            container_env[target.name] = value
            if target.name in container_cells:
                container_cells[target.name][0] = value
        elif isinstance(target, ArrayIndex):
            array, indices = self._resolve_index(target, env, cells)
            if isinstance(array, PointerValue):
                if len(indices) != 1:
                    raise InterpError("pointer indexing takes one index")
                PointerValue(array.storage, array.offset + indices[0]).store(value)
            else:
                if array.element.name == "int" and isinstance(value, float):
                    value = int(value)
                array.set(indices, value)
        elif isinstance(target, UnaryOp) and target.op == "*":
            pointer = self._eval(target.operand, env, cells)
            if not isinstance(pointer, PointerValue):
                raise InterpError("dereferencing a non-pointer")
            pointer.store(value)
        else:
            raise InterpError(f"invalid assignment target {target!r}")

    def _containers(self, name: str, env: Dict[str, Value],
                    cells: Dict[str, Cell]):
        if name in env:
            return env, cells
        if name in self.globals_env:
            return self.globals_env, self.global_cells
        raise InterpError(f"undefined variable {name!r}")

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, expr: Expr, env: Dict[str, Value],
              cells: Dict[str, Cell]) -> Any:
        # Hot path: dispatch on concrete node type (see _EVAL_DISPATCH).
        method = _EVAL_DISPATCH.get(type(expr))
        if method is None:
            raise InterpError(f"cannot evaluate expression {expr!r}")
        return method(self, expr, env, cells)

    def _eval_literal(self, expr, env, cells) -> Any:
        return expr.value

    def _eval_ident(self, expr, env, cells) -> Any:
        name = expr.name
        if name in env:
            return env[name]
        if name in self.globals_env:
            return self.globals_env[name]
        raise InterpError(f"undefined variable {name!r}")

    def _eval_index(self, expr, env, cells) -> Any:
        self._tick()
        array, indices = self._resolve_index(expr, env, cells)
        if isinstance(array, PointerValue):
            if len(indices) != 1:
                raise InterpError("pointer indexing takes one index")
            return PointerValue(array.storage,
                                array.offset + indices[0]).deref()
        if len(indices) < len(array.dims):
            raise InterpError("partial array indexing is unsupported")
        return array.get(indices)

    def _eval_call(self, expr, env, cells) -> Any:
        self._tick()
        args = [self._eval(arg, env, cells) for arg in expr.args]
        return self.call(expr.name, args)

    def _eval_cond(self, expr, env, cells) -> Any:
        self._tick()
        if self._truthy(self._eval(expr.test, env, cells)):
            return self._eval(expr.then, env, cells)
        return self._eval(expr.other, env, cells)

    def _resolve_index(self, expr: ArrayIndex, env: Dict[str, Value],
                       cells: Dict[str, Cell]):
        """Return (ArrayValue-or-PointerValue, [int indices])."""
        indices: List[int] = []
        node: Expr = expr
        while isinstance(node, ArrayIndex):
            index = self._eval(node.index, env, cells)
            if isinstance(index, float):
                index = int(index)
            indices.append(index)
            node = node.base
        indices.reverse()
        base = self._eval(node, env, cells)
        if isinstance(base, (ArrayValue, PointerValue)):
            return base, indices
        raise InterpError(f"indexing a non-array value via {node!r}")

    def _eval_unary(self, expr: UnaryOp, env: Dict[str, Value],
                    cells: Dict[str, Cell]) -> Any:
        self._tick()
        if expr.op == "&":
            return self._address_of(expr.operand, env, cells)
        value = self._eval(expr.operand, env, cells)
        if expr.op == "-":
            # Negating INT_MIN overflows on a 32-bit target; wrap like
            # every other int arithmetic op (floats stay host-precision).
            if type(value) is int:
                return _wrap32(-value)
            return -value
        if expr.op == "!":
            return 0 if self._truthy(value) else 1
        if expr.op == "~":
            return ~int(value)
        if expr.op == "*":
            if not isinstance(value, PointerValue):
                raise InterpError("dereferencing a non-pointer")
            return value.deref()
        raise InterpError(f"unknown unary operator {expr.op!r}")

    def _address_of(self, operand: Expr, env: Dict[str, Value],
                    cells: Dict[str, Cell]) -> PointerValue:
        if isinstance(operand, Ident):
            value_env, value_cells = self._containers(operand.name, env, cells)
            value = value_env[operand.name]
            if isinstance(value, ArrayValue):
                return PointerValue(value.storage, 0)
            if operand.name not in value_cells:
                value_cells[operand.name] = [value]
            return PointerValue(value_cells[operand.name], 0)
        if isinstance(operand, ArrayIndex):
            array, indices = self._resolve_index(operand, env, cells)
            if isinstance(array, PointerValue):
                if len(indices) != 1:
                    raise InterpError("pointer indexing takes one index")
                return PointerValue(array.storage, array.offset + indices[0])
            return PointerValue(array.storage, array.flat_offset(indices))
        raise InterpError(f"cannot take the address of {operand!r}")

    def _eval_binop(self, expr: BinOp, env: Dict[str, Value],
                    cells: Dict[str, Cell]) -> Any:
        self.op_count += 1
        if self.op_count > self.step_limit:
            raise InterpError(f"step limit {self.step_limit} exceeded "
                              f"(infinite loop?)")
        op = expr.op
        if op == "&&":
            left = self._eval(expr.left, env, cells)
            if not self._truthy(left):
                return 0
            return 1 if self._truthy(self._eval(expr.right, env, cells)) else 0
        if op == "||":
            left = self._eval(expr.left, env, cells)
            if self._truthy(left):
                return 1
            return 1 if self._truthy(self._eval(expr.right, env, cells)) else 0
        left = self._eval(expr.left, env, cells)
        right = self._eval(expr.right, env, cells)
        # Hot path: plain arithmetic via the operator table.
        if not (type(left) is PointerValue or type(right) is PointerValue):
            handler = _BIN_HANDLERS.get(op)
            if handler is not None:
                return handler(left, right)
        return self._binop(op, left, right)

    def _binop(self, op: str, left: Any, right: Any) -> Any:
        # Pointer arithmetic: ptr +/- int.
        if isinstance(left, PointerValue) and op in ("+", "-"):
            delta = int(right)
            if op == "-":
                delta = -delta
            return PointerValue(left.storage, left.offset + delta)
        if isinstance(right, PointerValue) and op == "+":
            return PointerValue(right.storage, right.offset + int(left))
        handler = _BIN_HANDLERS.get(op)
        if handler is None:
            raise InterpError(f"unknown binary operator {op!r}")
        return handler(left, right)

    @staticmethod
    def _truthy(value: Any) -> bool:
        if isinstance(value, PointerValue):
            return True
        return bool(value)


# ---------------------------------------------------------------------------
# dispatch tables (hot-path performance; behaviour identical to the
# straightforward isinstance chains they replace)
# ---------------------------------------------------------------------------

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


_BIN_HANDLERS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": _c_add,
    "-": _c_sub,
    "*": _c_mul,
    "/": _c_div,
    "%": _c_mod,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "<<": _c_shl,
    ">>": _c_shr,
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
}

_STMT_DISPATCH: Dict[type, Callable] = {
    Decl: Interpreter._exec_decl,
    Assign: Interpreter._exec_assign,
    ExprStmt: Interpreter._exec_exprstmt,
    Block: Interpreter._exec_block,
    If: Interpreter._exec_if,
    While: Interpreter._exec_while,
    For: Interpreter._exec_for,
    Return: Interpreter._exec_return,
    Break: Interpreter._exec_break,
    Continue: Interpreter._exec_continue,
}

_EVAL_DISPATCH: Dict[type, Callable] = {
    IntLit: Interpreter._eval_literal,
    FloatLit: Interpreter._eval_literal,
    StringLit: Interpreter._eval_literal,
    Ident: Interpreter._eval_ident,
    ArrayIndex: Interpreter._eval_index,
    Call: Interpreter._eval_call,
    UnaryOp: Interpreter._eval_unary,
    BinOp: Interpreter._eval_binop,
    Cond: Interpreter._eval_cond,
}


# ---------------------------------------------------------------------------
# intrinsics (callable without declaration, like a tiny libc)
# ---------------------------------------------------------------------------

def _intrinsic_print(interp: Interpreter, args: List[Any]) -> int:
    for arg in args:
        interp.output.append(arg)
    return 0


_INTRINSICS: Dict[str, Callable[[Interpreter, List[Any]], Any]] = {
    "print": _intrinsic_print,
    "abs": lambda interp, args: abs(args[0]),
    "min": lambda interp, args: min(args),
    "max": lambda interp, args: max(args),
    "sqrt": lambda interp, args: math.sqrt(args[0]),
    "floor": lambda interp, args: int(math.floor(args[0])),
    "ceil": lambda interp, args: int(math.ceil(args[0])),
}


def run_program(program: Program, entry: str = "main",
                args: Optional[List[Any]] = None,
                externals: Optional[Dict[str, Callable[..., Any]]] = None,
                step_limit: int = Interpreter.DEFAULT_STEP_LIMIT) -> RunResult:
    """Parse-and-go convenience: interpret ``program`` from ``entry``."""
    interp = Interpreter(program, externals=externals, step_limit=step_limit)
    return interp.run(entry, args)


__all__ = ["ArrayValue", "Cell", "InterpError", "Interpreter", "PointerValue",
           "RunResult", "Value", "run_program"]
