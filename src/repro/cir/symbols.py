"""Symbol tables and scope construction for mini-C.

:func:`build_symbols` walks a :class:`~repro.cir.nodes.Program` and produces
a :class:`SymbolTable` mapping every identifier *use* to its declaration.
The MAPS partitioner and the Source Recoder both need this binding
information (e.g. "which accesses in this loop touch the same array?").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cir.nodes import (
    Assign, Block, Call, Decl, Expr, ExprStmt, For, FuncDef,
    Ident, If, Node, Program, Return, Stmt, While,
)
from repro.cir.typesys import Type, TypeError_


@dataclass
class Symbol:
    """A declared name: a global, local, or parameter."""

    name: str
    type: Type
    kind: str  # 'global' | 'local' | 'param' | 'function'
    decl_node: Optional[Node] = None
    const: bool = False

    def __repr__(self) -> str:
        return f"Symbol({self.name!r}, {self.type}, {self.kind})"


class Scope:
    """A lexical scope with a parent chain."""

    def __init__(self, parent: Optional["Scope"] = None, name: str = "") -> None:
        self.parent = parent
        self.name = name
        self.symbols: Dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> None:
        if symbol.name in self.symbols:
            raise TypeError_(
                f"redeclaration of {symbol.name!r} in scope {self.name!r}")
        self.symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None


@dataclass
class SymbolTable:
    """Binding results for a whole program."""

    program: Program
    globals: Scope
    # node_id of each Ident/Call use -> the Symbol it binds to.
    bindings: Dict[int, Symbol] = field(default_factory=dict)
    # function name -> its body scope (params + top-level locals merged in).
    function_scopes: Dict[str, Scope] = field(default_factory=dict)


class _Binder:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.table = SymbolTable(program, Scope(name="<global>"))

    def run(self) -> SymbolTable:
        for decl in self.program.globals:
            symbol = Symbol(decl.name, decl.type, "global", decl, decl.const)
            self.table.globals.declare(symbol)
            if decl.init is not None:
                self._bind_expr(decl.init, self.table.globals)
        for func in self.program.functions:
            symbol = Symbol(func.name, func.return_type, "function", func)
            self.table.globals.declare(symbol)
        for func in self.program.functions:
            self._bind_function(func)
        return self.table

    def _bind_function(self, func: FuncDef) -> None:
        scope = Scope(self.table.globals, name=func.name)
        for param in func.params:
            scope.declare(Symbol(param.name, param.type, "param", param))
        self.table.function_scopes[func.name] = scope
        self._bind_block(func.body, scope)

    def _bind_block(self, block: Block, parent: Scope) -> None:
        scope = Scope(parent, name=f"block@{block.line}")
        for stmt in block.stmts:
            self._bind_stmt(stmt, scope)

    def _bind_stmt(self, stmt: Stmt, scope: Scope) -> None:
        if isinstance(stmt, Decl):
            if stmt.init is not None:
                self._bind_expr(stmt.init, scope)
            scope.declare(Symbol(stmt.name, stmt.type, "local", stmt,
                                 stmt.const))
        elif isinstance(stmt, Assign):
            self._bind_expr(stmt.target, scope)
            self._bind_expr(stmt.value, scope)
        elif isinstance(stmt, ExprStmt):
            self._bind_expr(stmt.expr, scope)
        elif isinstance(stmt, Block):
            self._bind_block(stmt, scope)
        elif isinstance(stmt, If):
            self._bind_expr(stmt.test, scope)
            self._bind_block(stmt.then, scope)
            if stmt.other is not None:
                self._bind_block(stmt.other, scope)
        elif isinstance(stmt, While):
            self._bind_expr(stmt.test, scope)
            self._bind_block(stmt.body, scope)
        elif isinstance(stmt, For):
            # The for-header introduces its own scope (C99 semantics).
            header = Scope(scope, name=f"for@{stmt.line}")
            if stmt.init is not None:
                self._bind_stmt(stmt.init, header)
            if stmt.test is not None:
                self._bind_expr(stmt.test, header)
            if stmt.step is not None:
                self._bind_stmt(stmt.step, header)
            self._bind_block(stmt.body, header)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                self._bind_expr(stmt.value, scope)
        # Break / Continue bind nothing.

    def _bind_expr(self, expr: Expr, scope: Scope) -> None:
        if isinstance(expr, Ident):
            symbol = scope.lookup(expr.name)
            if symbol is None:
                raise TypeError_(
                    f"use of undeclared identifier {expr.name!r} "
                    f"at {expr.line}:{expr.col}")
            self.table.bindings[expr.node_id] = symbol
        elif isinstance(expr, Call):
            symbol = scope.lookup(expr.name)
            # Calls to undeclared names are allowed: they are treated as
            # externals/intrinsics by the interpreter (e.g. abs, min, max).
            if symbol is not None:
                self.table.bindings[expr.node_id] = symbol
            for arg in expr.args:
                self._bind_expr(arg, scope)
        else:
            for child in expr.children():
                if isinstance(child, Expr):
                    self._bind_expr(child, scope)


def build_symbols(program: Program) -> SymbolTable:
    """Bind every identifier in ``program`` and return the symbol table."""
    return _Binder(program).run()


__all__ = ["Scope", "Symbol", "SymbolTable", "build_symbols"]
