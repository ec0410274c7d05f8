"""Classic dataflow analyses: reaching definitions, liveness, def-use chains.

These run over the :class:`~repro.cir.analysis.cfg.CFG` with a standard
worklist algorithm.  Array writes are treated as *may*-definitions of the
whole array (they do not kill earlier definitions); scalar writes are
strong definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.cir.analysis.cfg import CFG, CFGNode
from repro.cir.nodes import (
    ArrayIndex, Assign, Decl, Expr, ExprStmt, Ident, Return, Stmt,
    UnaryOp,
)


def expr_uses(expr: Optional[Expr]) -> Set[str]:
    """Names read by an expression (array names count as uses when indexed)."""
    if expr is None:
        return set()
    names: Set[str] = set()
    for node in expr.walk():
        if isinstance(node, Ident):
            names.add(node.name)
    return names


def _target_def(target: Expr) -> Tuple[Optional[str], bool, Set[str]]:
    """For an assignment target return (defined name, is_strong, extra uses).

    - Scalar ``x = ...``      -> ('x', strong, {})
    - Array ``a[i] = ...``    -> ('a', weak, uses of the indices + 'a')
    - Pointer ``*p = ...``    -> (None, weak, {'p'}) -- unknown target.
    """
    if isinstance(target, Ident):
        return target.name, True, set()
    if isinstance(target, ArrayIndex):
        root = target.root_ident()
        uses: Set[str] = set()
        for index in target.index_chain():
            uses |= expr_uses(index)
        if root is not None:
            uses.add(root.name)
            return root.name, False, uses
        return None, False, uses
    if isinstance(target, UnaryOp) and target.op == "*":
        return None, False, expr_uses(target.operand)
    return None, False, expr_uses(target)


def stmt_defs(stmt: Stmt) -> Set[str]:
    """Names (possibly weakly) defined by a statement."""
    if isinstance(stmt, Decl):
        return {stmt.name}
    if isinstance(stmt, Assign):
        name, _, _ = _target_def(stmt.target)
        return {name} if name is not None else set()
    if isinstance(stmt, ExprStmt):
        # A call may write through array/pointer arguments; handled by the
        # dependence layer, not here.
        return set()
    return set()


def stmt_strong_defs(stmt: Stmt) -> Set[str]:
    """Names strongly (killing) defined by a statement."""
    if isinstance(stmt, Decl):
        return {stmt.name}
    if isinstance(stmt, Assign):
        name, strong, _ = _target_def(stmt.target)
        return {name} if (name is not None and strong) else set()
    return set()


def stmt_uses(stmt: Stmt) -> Set[str]:
    """Names read by a statement."""
    if isinstance(stmt, Decl):
        return expr_uses(stmt.init)
    if isinstance(stmt, Assign):
        _, _, target_uses = _target_def(stmt.target)
        uses = expr_uses(stmt.value) | target_uses
        if stmt.op:  # compound assignment reads the target too
            uses |= expr_uses(stmt.target)
        return uses
    if isinstance(stmt, ExprStmt):
        return expr_uses(stmt.expr)
    if isinstance(stmt, Return):
        return expr_uses(stmt.value)
    return set()


def defs_of(stmts: Iterable[Stmt]) -> Set[str]:
    """Names the statements, or statements nested in them, define."""
    return {name for stmt in stmts for node in stmt.walk()
            if isinstance(node, Stmt) for name in stmt_defs(node)}


def uses_of(stmts: Iterable[Stmt]) -> Set[str]:
    """Names the statements, or statements nested in them, read (as
    :func:`stmt_uses` counts them: branch tests are not reads)."""
    return {name for stmt in stmts for node in stmt.walk()
            if isinstance(node, Stmt) for name in stmt_uses(node)}


# A definition site: (cfg node id, variable name).
DefSite = Tuple[int, str]


@dataclass
class DataflowResult:
    """Results of the intra-procedural dataflow analyses."""

    cfg: CFG
    reach_in: Dict[int, FrozenSet[DefSite]] = field(default_factory=dict)
    reach_out: Dict[int, FrozenSet[DefSite]] = field(default_factory=dict)
    live_in: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    live_out: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    # (use node id, var) -> def node ids reaching that use.
    def_use: Dict[Tuple[int, str], FrozenSet[int]] = field(default_factory=dict)


def _node_defs(node: CFGNode) -> Set[str]:
    if node.kind == "stmt" and node.stmt is not None:
        return stmt_defs(node.stmt)
    return set()


def _node_strong_defs(node: CFGNode) -> Set[str]:
    if node.kind == "stmt" and node.stmt is not None:
        return stmt_strong_defs(node.stmt)
    return set()


def node_uses(node: CFGNode) -> Set[str]:
    """Names a CFG node reads; a branch node reads its test."""
    if node.kind == "stmt" and node.stmt is not None:
        return stmt_uses(node.stmt)
    if node.kind == "branch" and node.test is not None:
        return expr_uses(node.test)
    return set()


def liveness(cfg: CFG) -> Tuple[Dict[int, Set[str]], Dict[int, Set[str]]]:
    """The names live into and out of every node (backward, may)."""
    nodes = list(cfg.nodes.values())
    live_in: Dict[int, Set[str]] = {n.nid: set() for n in nodes}
    live_out: Dict[int, Set[str]] = {n.nid: set() for n in nodes}
    worklist = [n.nid for n in nodes]
    while worklist:
        nid = worklist.pop()
        node = cfg.node(nid)
        outgoing = set()
        for succ in node.succs:
            outgoing |= live_in[succ]
        live_out[nid] = outgoing
        strong = _node_strong_defs(node)
        incoming = node_uses(node) | (outgoing - strong)
        if incoming != live_in[nid]:
            live_in[nid] = incoming
            worklist.extend(node.preds)
    return live_in, live_out


def analyze_dataflow(cfg: CFG) -> DataflowResult:
    """Run reaching-definitions and liveness to a fixed point."""
    result = DataflowResult(cfg)
    nodes = list(cfg.nodes.values())

    # ---------------- reaching definitions (forward, may) ----------------
    gen: Dict[int, Set[DefSite]] = {}
    kill_vars: Dict[int, Set[str]] = {}
    for node in nodes:
        gen[node.nid] = {(node.nid, var) for var in _node_defs(node)}
        kill_vars[node.nid] = _node_strong_defs(node)

    reach_in: Dict[int, Set[DefSite]] = {n.nid: set() for n in nodes}
    reach_out: Dict[int, Set[DefSite]] = {n.nid: set() for n in nodes}
    worklist = [n.nid for n in nodes]
    while worklist:
        nid = worklist.pop()
        node = cfg.node(nid)
        incoming: Set[DefSite] = set()
        for pred in node.preds:
            incoming |= reach_out[pred]
        reach_in[nid] = incoming
        killed = kill_vars[nid]
        outgoing = {site for site in incoming if site[1] not in killed}
        outgoing |= gen[nid]
        if outgoing != reach_out[nid]:
            reach_out[nid] = outgoing
            worklist.extend(node.succs)

    live_in, live_out = liveness(cfg)

    # ---------------- def-use chains ----------------
    def_use: Dict[Tuple[int, str], Set[int]] = {}
    for node in nodes:
        for var in node_uses(node):
            reaching = {site_nid for (site_nid, site_var) in reach_in[node.nid]
                        if site_var == var}
            if reaching:
                def_use[(node.nid, var)] = reaching

    result.reach_in = {k: frozenset(v) for k, v in reach_in.items()}
    result.reach_out = {k: frozenset(v) for k, v in reach_out.items()}
    result.live_in = {k: frozenset(v) for k, v in live_in.items()}
    result.live_out = {k: frozenset(v) for k, v in live_out.items()}
    result.def_use = {k: frozenset(v) for k, v in def_use.items()}
    return result


__all__ = ["DataflowResult", "DefSite", "analyze_dataflow", "defs_of",
           "expr_uses", "liveness", "node_uses", "stmt_defs",
           "stmt_strong_defs", "stmt_uses", "uses_of"]
