"""Control-flow graph construction for mini-C functions.

The CFG is built at statement granularity: each simple statement (Decl,
Assign, ExprStmt, Return) and each branch test (If/While/For condition)
becomes one node.  Entry and exit are synthetic nodes.

A CFG is built for a function or for one iteration of a loop body; in
the latter, ``break`` and ``continue`` leave the iteration, so they go to
the exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro.cir.nodes import (
    Assign, Block, Break, Continue, Decl, Expr, ExprStmt, For, FuncDef, If,
    Return, Stmt, While,
)


@dataclass
class CFGNode:
    """One node of the control-flow graph."""

    nid: int
    kind: str  # 'entry' | 'exit' | 'stmt' | 'branch'
    stmt: Optional[Stmt] = None      # for 'stmt' nodes
    test: Optional[Expr] = None      # for 'branch' nodes
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    label: str = ""

    def __repr__(self) -> str:
        return f"CFGNode({self.nid}, {self.kind}, {self.label!r})"


class CFG:
    """A per-function control-flow graph."""

    def __init__(self, func_name: str) -> None:
        self.func_name = func_name
        self.nodes: Dict[int, CFGNode] = {}
        self._next = 0
        self.entry = self._new("entry", label="ENTRY")
        self.exit = self._new("exit", label="EXIT")

    def _new(self, kind: str, stmt: Optional[Stmt] = None,
             test: Optional[Expr] = None, label: str = "") -> CFGNode:
        node = CFGNode(self._next, kind, stmt=stmt, test=test, label=label)
        self.nodes[node.nid] = node
        self._next += 1
        return node

    def add_edge(self, src: CFGNode, dst: CFGNode) -> None:
        if dst.nid not in src.succs:
            src.succs.append(dst.nid)
        if src.nid not in dst.preds:
            dst.preds.append(src.nid)

    def node(self, nid: int) -> CFGNode:
        return self.nodes[nid]

    def reachable(self) -> Set[int]:
        """Node ids reachable from entry."""
        seen: Set[int] = set()
        stack = [self.entry.nid]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self.nodes[nid].succs)
        return seen

    def __len__(self) -> int:
        return len(self.nodes)


class _Builder:
    def __init__(self, name: str) -> None:
        self.cfg = CFG(name)
        # (break_target, continue_target) stacks for loop nesting.
        self.loop_stack: List[tuple] = []

    def build(self, body: Block, iteration: bool) -> CFG:
        leaves: List[CFGNode] = []
        if iteration:
            self.loop_stack.append((leaves, leaves))
        tails = self._build_block(body, [self.cfg.entry])
        for tail in tails + leaves:
            self.cfg.add_edge(tail, self.cfg.exit)
        return self.cfg

    def _connect_all(self, sources: List[CFGNode], target: CFGNode) -> None:
        for source in sources:
            self.cfg.add_edge(source, target)

    def _build_block(self, block: Block,
                     preds: List[CFGNode]) -> List[CFGNode]:
        """Wire a block after ``preds``; return the dangling tail nodes."""
        current = preds
        for stmt in block.stmts:
            if not current:
                break  # unreachable code after return/break/continue
            current = self._build_stmt(stmt, current)
        return current

    def _build_stmt(self, stmt: Stmt,
                    preds: List[CFGNode]) -> List[CFGNode]:
        cfg = self.cfg
        if isinstance(stmt, (Decl, Assign, ExprStmt)):
            node = cfg._new("stmt", stmt=stmt, label=type(stmt).__name__)
            self._connect_all(preds, node)
            return [node]
        if isinstance(stmt, Return):
            node = cfg._new("stmt", stmt=stmt, label="Return")
            self._connect_all(preds, node)
            cfg.add_edge(node, cfg.exit)
            return []
        if isinstance(stmt, Break):
            node = cfg._new("stmt", stmt=stmt, label="Break")
            self._connect_all(preds, node)
            if not self.loop_stack:
                raise ValueError("break outside a loop")
            self.loop_stack[-1][0].append(node)
            return []
        if isinstance(stmt, Continue):
            node = cfg._new("stmt", stmt=stmt, label="Continue")
            self._connect_all(preds, node)
            if not self.loop_stack:
                raise ValueError("continue outside a loop")
            self.loop_stack[-1][1].append(node)
            return []
        if isinstance(stmt, Block):
            return self._build_block(stmt, preds)
        if isinstance(stmt, If):
            branch = cfg._new("branch", test=stmt.test, label="if")
            self._connect_all(preds, branch)
            then_tails = self._build_block(stmt.then, [branch])
            if stmt.other is not None:
                else_tails = self._build_block(stmt.other, [branch])
            else:
                else_tails = [branch]
            return then_tails + else_tails
        if isinstance(stmt, While):
            branch = cfg._new("branch", test=stmt.test, label="while")
            self._connect_all(preds, branch)
            breaks: List[CFGNode] = []
            continues: List[CFGNode] = []
            self.loop_stack.append((breaks, continues))
            body_tails = self._build_block(stmt.body, [branch])
            self.loop_stack.pop()
            for tail in body_tails + continues:
                cfg.add_edge(tail, branch)
            return [branch] + breaks
        if isinstance(stmt, For):
            current = preds
            if stmt.init is not None:
                current = self._build_stmt(stmt.init, current)
            branch = cfg._new("branch", test=stmt.test, label="for")
            self._connect_all(current, branch)
            breaks, continues = [], []
            self.loop_stack.append((breaks, continues))
            body_tails = self._build_block(stmt.body, [branch])
            self.loop_stack.pop()
            step_entry: List[CFGNode] = body_tails + continues
            if stmt.step is not None and step_entry:
                step_tails = self._build_stmt(stmt.step, step_entry)
            else:
                step_tails = step_entry
            for tail in step_tails:
                cfg.add_edge(tail, branch)
            return [branch] + breaks
        raise TypeError(f"cannot build CFG for {stmt!r}")


def build_cfg(code: Union[FuncDef, Block]) -> CFG:
    """Build the control-flow graph of a function, or of one iteration of
    a loop body."""
    if isinstance(code, FuncDef):
        return _Builder(code.name).build(code.body, iteration=False)
    return _Builder("loop body").build(code, iteration=True)


__all__ = ["CFG", "CFGNode", "build_cfg"]
