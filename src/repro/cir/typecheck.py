"""Static type checker for mini-C.

The interpreter tolerates a lot (it coerces); tools want diagnostics
*before* running, so the MAPS and HOPES front ends can reject broken input
with positions.  :func:`check_program` returns a list of
:class:`Diagnostic` (empty = clean); :func:`require_clean` raises.

Checked: undeclared names (via the binder), call arity against defined
functions, indexing of non-arrays, over-/under-indexing, non-integer
subscripts, assignment into arrays/consts, arithmetic on arrays, return
type presence, condition types, pointer arithmetic shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cir.nodes import (
    ArrayIndex, Assign, BinOp, Block, Break, Call, Cond, Continue, Decl,
    Expr, ExprStmt, FloatLit, For, FuncDef, Ident, If, IntLit, Node,
    Program, Return, Stmt, StringLit, UnaryOp, While,
)
from repro.cir.interp import INTRINSIC_ARITIES, intrinsic_arity_error
from repro.cir.symbols import SymbolTable, build_symbols
from repro.cir.typesys import (
    ArrayType, FLOAT, INT, PointerType, ScalarType, Type, TypeError_, VOID,
)

# Tool-runtime externals: known names, any arity accepted.
_TOOL_EXTERNALS = {"read_port", "write_port", "emit", "ch_read", "ch_write"}


@dataclass
class Diagnostic:
    """One type-check finding."""

    message: str
    line: int
    col: int
    severity: str = "error"  # 'error' | 'warning'

    def __repr__(self) -> str:
        return f"{self.severity} at {self.line}:{self.col}: {self.message}"


class TypeCheckError(TypeError_):
    """Raised by :func:`require_clean` when errors exist."""


class _Checker:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.diagnostics: List[Diagnostic] = []
        try:
            self.table: Optional[SymbolTable] = build_symbols(program)
        except TypeError_ as error:
            self.table = None
            self.diagnostics.append(Diagnostic(str(error), 0, 0))
        self.functions: Dict[str, FuncDef] = {
            func.name: func for func in program.functions}
        self.current: Optional[FuncDef] = None

    def error(self, node: Node, message: str) -> None:
        self.diagnostics.append(Diagnostic(message, node.line, node.col))

    def warn(self, node: Node, message: str) -> None:
        self.diagnostics.append(Diagnostic(message, node.line, node.col,
                                           "warning"))

    # ------------------------------------------------------------------
    def run(self) -> List[Diagnostic]:
        if self.table is None:
            return self.diagnostics
        for decl in self.program.globals:
            if decl.init is not None:
                self.expr_type(decl.init)
        for func in self.program.functions:
            self.current = func
            self.check_block(func.body)
            if func.return_type != VOID and not self._always_returns(
                    func.body):
                self.warn(func, f"{func.name}() may fall off the end "
                                f"without returning {func.return_type}")
        return self.diagnostics

    def _always_returns(self, block: Block) -> bool:
        for stmt in block.stmts:
            if isinstance(stmt, Return):
                return True
            if isinstance(stmt, If) and stmt.other is not None:
                if self._always_returns(stmt.then) and \
                        self._always_returns(stmt.other):
                    return True
            if isinstance(stmt, Block) and self._always_returns(stmt):
                return True
        return False

    # ------------------------------------------------------------------
    def check_block(self, block: Block) -> None:
        for stmt in block.stmts:
            self.check_stmt(stmt)

    def check_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Decl):
            if stmt.init is not None:
                init_type = self.expr_type(stmt.init)
                if init_type is not None and stmt.type.is_scalar() and \
                        not init_type.is_scalar():
                    self.error(stmt, f"cannot initialize {stmt.type} "
                                     f"{stmt.name!r} from {init_type}")
        elif isinstance(stmt, Assign):
            self.check_assign(stmt)
        elif isinstance(stmt, ExprStmt):
            self.expr_type(stmt.expr)
        elif isinstance(stmt, Block):
            self.check_block(stmt)
        elif isinstance(stmt, If):
            self._check_condition(stmt.test)
            self.check_block(stmt.then)
            if stmt.other is not None:
                self.check_block(stmt.other)
        elif isinstance(stmt, While):
            self._check_condition(stmt.test)
            self.check_block(stmt.body)
        elif isinstance(stmt, For):
            if stmt.init is not None:
                self.check_stmt(stmt.init)
            if stmt.test is not None:
                self._check_condition(stmt.test)
            if stmt.step is not None:
                self.check_stmt(stmt.step)
            self.check_block(stmt.body)
        elif isinstance(stmt, Return):
            self.check_return(stmt)
        # Break/Continue: nothing to check.

    def _check_condition(self, test: Expr) -> None:
        test_type = self.expr_type(test)
        if test_type is not None and test_type.is_array():
            self.error(test, "array used as a condition")

    def check_assign(self, stmt: Assign) -> None:
        target_type = self.expr_type(stmt.target, lvalue=True)
        value_type = self.expr_type(stmt.value)
        if isinstance(stmt.target, Ident) and self.table is not None:
            symbol = self.table.bindings.get(stmt.target.node_id)
            if symbol is not None:
                if symbol.type.is_array():
                    self.error(stmt, f"cannot assign to array "
                                     f"{symbol.name!r}")
                if symbol.const:
                    self.error(stmt, f"assignment to const {symbol.name!r}")
                if symbol.kind == "function":
                    self.error(stmt, f"cannot assign to function "
                                     f"{symbol.name!r}")
        if target_type is not None and value_type is not None:
            if target_type.is_scalar() and value_type.is_array():
                self.error(stmt, f"cannot assign {value_type} to "
                                 f"{target_type}")
            if target_type.is_pointer() and value_type.is_scalar() and \
                    not isinstance(stmt.value, IntLit):
                self.warn(stmt, "scalar assigned to pointer")

    def check_return(self, stmt: Return) -> None:
        assert self.current is not None
        expected = self.current.return_type
        if stmt.value is None:
            if expected != VOID:
                self.error(stmt, f"return without a value in "
                                 f"{self.current.name}() returning "
                                 f"{expected}")
            return
        actual = self.expr_type(stmt.value)
        if expected == VOID:
            self.error(stmt, f"void {self.current.name}() returns a value")
        elif actual is not None and actual.is_array():
            self.error(stmt, "cannot return an array")

    # ------------------------------------------------------------------
    def expr_type(self, expr: Expr, lvalue: bool = False) -> Optional[Type]:
        if isinstance(expr, IntLit):
            return INT
        if isinstance(expr, FloatLit):
            return FLOAT
        if isinstance(expr, StringLit):
            return None  # strings only flow into print()
        if isinstance(expr, Ident):
            if self.table is None:
                return None
            symbol = self.table.bindings.get(expr.node_id)
            return symbol.type if symbol is not None else None
        if isinstance(expr, ArrayIndex):
            return self._index_type(expr)
        if isinstance(expr, Call):
            return self._call_type(expr)
        if isinstance(expr, UnaryOp):
            return self._unary_type(expr)
        if isinstance(expr, BinOp):
            return self._binop_type(expr)
        if isinstance(expr, Cond):
            self._check_condition(expr.test)
            then_type = self.expr_type(expr.then)
            other_type = self.expr_type(expr.other)
            return then_type or other_type
        return None

    def _index_type(self, expr: ArrayIndex) -> Optional[Type]:
        base_type = self.expr_type(expr.base)
        index_type = self.expr_type(expr.index)
        if index_type is not None and not index_type.is_scalar():
            self.error(expr.index, "array subscript must be scalar")
        if index_type == FLOAT:
            self.warn(expr.index, "float subscript truncated")
        if base_type is None:
            return None
        if isinstance(base_type, ArrayType):
            return base_type.inner()
        if isinstance(base_type, PointerType):
            return base_type.pointee
        self.error(expr, f"cannot index a value of type {base_type}")
        return None

    def _call_type(self, expr: Call) -> Optional[Type]:
        for arg in expr.args:
            self.expr_type(arg)
        func = self.functions.get(expr.name)
        if func is not None:
            if len(expr.args) != len(func.params):
                self.error(expr, f"{expr.name}() expects "
                                 f"{len(func.params)} argument(s), got "
                                 f"{len(expr.args)}")
            else:
                for param, arg in zip(func.params, expr.args):
                    arg_type = self.expr_type(arg)
                    if arg_type is None:
                        continue
                    if param.type.is_array() and not arg_type.is_array():
                        self.error(arg, f"argument for {param.name!r} "
                                        f"must be an array")
                    if param.type.is_scalar() and arg_type.is_array():
                        self.error(arg, f"array passed for scalar "
                                        f"parameter {param.name!r}")
            return func.return_type
        if expr.name in INTRINSIC_ARITIES:
            expected = intrinsic_arity_error(expr.name, len(expr.args))
            if expected is not None:
                self.error(expr, f"{expr.name}() expects {expected} "
                                 f"argument(s)")
            return INT
        if expr.name in _TOOL_EXTERNALS:
            return INT
        self.warn(expr, f"call to external function {expr.name!r}")
        return None

    def _unary_type(self, expr: UnaryOp) -> Optional[Type]:
        operand_type = self.expr_type(expr.operand)
        if expr.op == "&":
            if isinstance(operand_type, ScalarType):
                return PointerType(operand_type)
            if isinstance(operand_type, ArrayType):
                return PointerType(operand_type.element)
            return None
        if expr.op == "*":
            if isinstance(operand_type, PointerType):
                return operand_type.pointee
            if operand_type is not None:
                self.error(expr, f"cannot dereference {operand_type}")
            return None
        if operand_type is not None and operand_type.is_array():
            self.error(expr, f"unary {expr.op!r} on an array")
        if expr.op in ("!", "~"):
            return INT
        return operand_type

    def _binop_type(self, expr: BinOp) -> Optional[Type]:
        left = self.expr_type(expr.left)
        right = self.expr_type(expr.right)
        for side, side_type in (("left", left), ("right", right)):
            if side_type is not None and side_type.is_array():
                self.error(expr, f"{side} operand of {expr.op!r} is an "
                                 f"array")
                return None
        if expr.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return INT
        # Pointer arithmetic.
        if isinstance(left, PointerType) and expr.op in ("+", "-"):
            if right == FLOAT:
                self.error(expr, "pointer offset must be an integer")
            return left
        if isinstance(right, PointerType) and expr.op == "+":
            return right
        if isinstance(right, PointerType) or isinstance(left, PointerType):
            self.error(expr, f"invalid pointer operation {expr.op!r}")
            return None
        if expr.op in ("%", "<<", ">>", "&", "|", "^"):
            if FLOAT in (left, right):
                self.error(expr, f"float operand to integer operator "
                                 f"{expr.op!r}")
            return INT
        if FLOAT in (left, right):
            return FLOAT
        if left is None and right is None:
            return None
        return INT


def check_program(program: Program) -> List[Diagnostic]:
    """Type-check a program; returns diagnostics (possibly warnings only)."""
    return _Checker(program).run()


def require_clean(program: Program) -> None:
    """Raise :class:`TypeCheckError` if the program has any *errors*."""
    errors = [d for d in check_program(program) if d.severity == "error"]
    if errors:
        raise TypeCheckError("; ".join(str(d) for d in errors[:5]))


__all__ = ["Diagnostic", "TypeCheckError", "check_program", "require_clean"]
