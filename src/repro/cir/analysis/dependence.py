"""Loop dependence analysis and parallelizability classification.

This implements the analysis MAPS needs to decide whether a loop can be
split across processing elements (section IV), and the analysis the Source
Recoder's "analyze shared data accesses" transformation runs before a loop
split (section VI).

The test suite is a classical single-index-variable (SIV) framework:

- subscripts are reduced to affine form ``c * i + k`` in the loop variable
  ``i`` (with ``k`` possibly symbolic in loop-invariant names);
- pairs of accesses to the same array are compared with ZIV/strong-SIV
  tests;
- anything non-affine is conservatively assumed dependent.

Scalars are classified as private (defined before use in every iteration),
reduction (``s = s op expr`` with an associative op), or carried (true
cross-iteration dependence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.cir.analysis.dataflow import expr_uses, stmt_defs, stmt_strong_defs, stmt_uses
from repro.cir.nodes import (
    ArrayIndex, Assign, BinOp, Block, Call, Decl, Expr, ExprStmt, For, Ident,
    IntLit, Stmt, UnaryOp, )

REDUCTION_OPS = {"+", "*", "|", "&", "^"}


# ---------------------------------------------------------------------------
# affine form: coeff * loopvar + (intercept, symbolic terms)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Affine:
    """``coeff * i + const`` with a canonical tuple of symbolic addends.

    ``symbols`` is a sorted tuple of (name, multiplier) pairs for
    loop-invariant identifiers appearing additively, so ``i + base`` and
    ``base + i`` compare equal.
    """

    coeff: int
    const: int
    symbols: Tuple[Tuple[str, int], ...] = ()

    def plus(self, other: "Affine") -> "Affine":
        return Affine(self.coeff + other.coeff, self.const + other.const,
                      _merge_symbols(self.symbols, other.symbols, 1))

    def minus(self, other: "Affine") -> "Affine":
        return Affine(self.coeff - other.coeff, self.const - other.const,
                      _merge_symbols(self.symbols, other.symbols, -1))

    def times_const(self, k: int) -> "Affine":
        return Affine(self.coeff * k, self.const * k,
                      tuple((n, m * k) for n, m in self.symbols if m * k != 0))


def _merge_symbols(a: Tuple[Tuple[str, int], ...],
                   b: Tuple[Tuple[str, int], ...],
                   sign: int) -> Tuple[Tuple[str, int], ...]:
    table: Dict[str, int] = {}
    for name, mult in a:
        table[name] = table.get(name, 0) + mult
    for name, mult in b:
        table[name] = table.get(name, 0) + sign * mult
    return tuple(sorted((n, m) for n, m in table.items() if m != 0))


def affine_of(expr: Expr, loop_var: str,
              invariants: Set[str]) -> Optional[Affine]:
    """Reduce ``expr`` to affine form in ``loop_var``; None if non-affine."""
    if isinstance(expr, IntLit):
        return Affine(0, expr.value)
    if isinstance(expr, Ident):
        if expr.name == loop_var:
            return Affine(1, 0)
        if expr.name in invariants:
            return Affine(0, 0, ((expr.name, 1),))
        return None
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = affine_of(expr.operand, loop_var, invariants)
        return inner.times_const(-1) if inner is not None else None
    if isinstance(expr, BinOp):
        left = affine_of(expr.left, loop_var, invariants)
        right = affine_of(expr.right, loop_var, invariants)
        if expr.op == "+" and left is not None and right is not None:
            return left.plus(right)
        if expr.op == "-" and left is not None and right is not None:
            return left.minus(right)
        if expr.op == "*":
            # One side must be a pure integer constant.
            if (left is not None and left.coeff == 0 and not left.symbols
                    and right is not None):
                return right.times_const(left.const)
            if (right is not None and right.coeff == 0 and not right.symbols
                    and left is not None):
                return left.times_const(right.const)
        return None
    return None


# ---------------------------------------------------------------------------
# access collection
# ---------------------------------------------------------------------------

@dataclass
class AccessInfo:
    """One array access inside a loop body."""

    array: str
    indices: List[Expr]
    is_write: bool
    stmt: Stmt
    node: ArrayIndex

    def __repr__(self) -> str:
        mode = "W" if self.is_write else "R"
        return f"Access({mode} {self.array}, stmt@{self.stmt.line})"


def collect_array_accesses(body: Block) -> List[AccessInfo]:
    """Collect all array reads/writes (including in nested statements)."""
    accesses: List[AccessInfo] = []

    def visit_expr(expr: Expr, stmt: Stmt, writing: bool) -> None:
        if isinstance(expr, ArrayIndex):
            root = expr.root_ident()
            if root is not None:
                accesses.append(AccessInfo(root.name, expr.index_chain(),
                                           writing, stmt, expr))
            for index in expr.index_chain():
                visit_expr(index, stmt, False)
            return
        for child in expr.children():
            if isinstance(child, Expr):
                visit_expr(child, stmt, False)

    def visit_stmt(stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            visit_expr(stmt.target, stmt, True)
            if stmt.op:  # compound assignment also reads the target
                visit_expr(stmt.target, stmt, False)
            visit_expr(stmt.value, stmt, False)
        elif isinstance(stmt, Decl) and stmt.init is not None:
            visit_expr(stmt.init, stmt, False)
        elif isinstance(stmt, ExprStmt):
            visit_expr(stmt.expr, stmt, False)
        else:
            for child in stmt.children():
                if isinstance(child, Stmt):
                    visit_stmt(child)
                elif isinstance(child, Expr):
                    visit_expr(child, stmt, False)

    for stmt in body.stmts:
        visit_stmt(stmt)
    return accesses


# ---------------------------------------------------------------------------
# dependence testing
# ---------------------------------------------------------------------------

@dataclass
class Dependence:
    """A (possible) data dependence between two accesses."""

    kind: str  # 'flow' | 'anti' | 'output'
    array: str
    source: AccessInfo
    sink: AccessInfo
    distance: Optional[int]  # iteration distance if known, None if unknown
    loop_carried: bool
    reason: str = ""

    def __repr__(self) -> str:
        carried = "carried" if self.loop_carried else "independent"
        return (f"Dependence({self.kind}, {self.array}, d={self.distance}, "
                f"{carried}: {self.reason})")


def _test_pair(first: AccessInfo, second: AccessInfo, loop_var: str,
               invariants: Set[str]) -> Optional[Tuple[Optional[int], str]]:
    """SIV/ZIV test.  Returns (distance, reason) if dependent across
    iterations may exist, or None if proven independent.  distance None
    means 'unknown distance'."""
    if len(first.indices) != len(second.indices):
        return None, "rank mismatch treated as may-alias"
    distance: Optional[int] = 0
    for a_expr, b_expr in zip(first.indices, second.indices):
        a = affine_of(a_expr, loop_var, invariants)
        b = affine_of(b_expr, loop_var, invariants)
        if a is None or b is None:
            return None, "non-affine subscript"
        if a.symbols != b.symbols:
            # Different symbolic bases: cannot prove anything -> assume dep.
            return None, "differing symbolic offsets"
        if a.coeff == b.coeff:
            if a.coeff == 0:
                # ZIV: both constant in i.
                if a.const == b.const:
                    distance = _combine_distance(distance, 0)
                    continue
                return None  # proven independent in this dimension
            delta = b.const - a.const
            if delta % a.coeff != 0:
                return None  # no integer solution -> independent
            distance = _combine_distance(distance, -(delta // a.coeff))
            continue
        # coeff differs (weak SIV) -- a single crossing may exist; be
        # conservative but note it.
        return None, "weak-SIV (single crossing assumed dependent)"
    if distance == 0:
        return 0, "same element every iteration" if any(
            affine_of(e, loop_var, invariants) is not None and
            affine_of(e, loop_var, invariants).coeff == 0
            for e in first.indices) else "loop-independent"
    return distance, "constant dependence distance"


def _combine_distance(current: Optional[int],
                      new: int) -> Optional[int]:
    if current is None:
        return None
    if current == 0:
        return new
    if new == 0 or new == current:
        return current
    return None


class LoopClass(Enum):
    """Parallelizability verdict for a loop."""

    DOALL = "doall"              # iterations fully independent
    REDUCTION = "reduction"      # independent except associative reductions
    SEQUENTIAL = "sequential"    # loop-carried dependence

    def parallelizable(self) -> bool:
        return self is not LoopClass.SEQUENTIAL


@dataclass
class LoopInfo:
    """Full analysis result for one counted loop."""

    loop: For
    loop_var: str
    lower: Optional[Expr]
    upper: Optional[Expr]
    step: int
    classification: LoopClass
    dependences: List[Dependence] = field(default_factory=list)
    reductions: Dict[str, str] = field(default_factory=dict)  # var -> op
    private_scalars: Set[str] = field(default_factory=set)
    carried_scalars: Set[str] = field(default_factory=set)
    reasons: List[str] = field(default_factory=list)


def _extract_counted_header(loop: For) -> Optional[Tuple[str, Optional[Expr],
                                                         Optional[Expr], int]]:
    """Recognize ``for (i = L; i < U; i += s)`` shapes.

    Returns (var, lower, upper, step) or None if the loop is not counted.
    """
    init = loop.init
    var: Optional[str] = None
    lower: Optional[Expr] = None
    if isinstance(init, Assign) and isinstance(init.target, Ident) and not init.op:
        var = init.target.name
        lower = init.value
    elif isinstance(init, Decl):
        var = init.name
        lower = init.init
    if var is None:
        return None
    upper: Optional[Expr] = None
    if isinstance(loop.test, BinOp) and loop.test.op in ("<", "<=", ">", ">="):
        left, right = loop.test.left, loop.test.right
        if isinstance(left, Ident) and left.name == var:
            upper = right
        elif isinstance(right, Ident) and right.name == var:
            upper = left
        else:
            return None
    step = 0
    if isinstance(loop.step, Assign) and isinstance(loop.step.target, Ident) \
            and loop.step.target.name == var:
        if loop.step.op in ("+", "-") and isinstance(loop.step.value, IntLit):
            step = loop.step.value.value
            if loop.step.op == "-":
                step = -step
        elif not loop.step.op and isinstance(loop.step.value, BinOp):
            # i = i + c / i = i - c
            binop = loop.step.value
            if (binop.op in ("+", "-") and isinstance(binop.left, Ident)
                    and binop.left.name == var
                    and isinstance(binop.right, IntLit)):
                step = binop.right.value if binop.op == "+" else -binop.right.value
    if step == 0:
        return None
    return var, lower, upper, step


def _body_writes_var(body: Block, var: str) -> bool:
    for stmt in body.stmts:
        for node in stmt.walk():
            if isinstance(node, (Assign,)) and isinstance(node.target, Ident) \
                    and node.target.name == var:
                return True
            if isinstance(node, Decl) and node.name == var:
                return True
    return False


def _scalar_analysis(body: Block, loop_var: str) \
        -> Tuple[Set[str], Dict[str, str], Set[str]]:
    """Classify scalars written in the body: (private, reductions, carried)."""
    private: Set[str] = set()
    reductions: Dict[str, str] = {}
    carried: Set[str] = set()

    written: List[Assign] = []
    declared: Set[str] = set()
    for stmt in body.stmts:
        for node in stmt.walk():
            if isinstance(node, Assign) and isinstance(node.target, Ident):
                written.append(node)
            if isinstance(node, Decl):
                declared.add(node.name)

    # Count reads of each scalar outside its own reduction statements.
    for assign in written:
        name = assign.target.name  # type: ignore[union-attr]
        if name == loop_var:
            continue
        if name in declared:
            private.add(name)
            continue
        if _is_reduction_assign(assign, name):
            other_reads = _reads_elsewhere(body, name, exclude=assign)
            if not other_reads:
                op = assign.op or assign.value.op  # type: ignore[union-attr]
                existing = reductions.get(name)
                if existing is None or existing == op:
                    reductions[name] = op
                    continue
            carried.add(name)
            reductions.pop(name, None)
            continue
        # Written before any read in straight-line top-level code -> private.
        if _defined_before_use(body, name):
            private.add(name)
        else:
            carried.add(name)
    for name in carried:
        reductions.pop(name, None)
    return private, reductions, carried


def _is_reduction_assign(assign: Assign, name: str) -> bool:
    if assign.op in REDUCTION_OPS:
        return not _expr_reads(assign.value, name)
    if not assign.op and isinstance(assign.value, BinOp) \
            and assign.value.op in REDUCTION_OPS:
        binop = assign.value
        if isinstance(binop.left, Ident) and binop.left.name == name:
            return not _expr_reads(binop.right, name)
        if isinstance(binop.right, Ident) and binop.right.name == name \
                and binop.op in ("+", "*"):
            return not _expr_reads(binop.left, name)
    return False


def _expr_reads(expr: Expr, name: str) -> bool:
    return name in expr_uses(expr)


def _reads_elsewhere(body: Block, name: str, exclude: Assign) -> bool:
    for stmt in body.stmts:
        for node in stmt.walk():
            if node is exclude:
                continue
            if isinstance(node, Assign):
                if node is not exclude and name in stmt_uses(node):
                    return True
            elif isinstance(node, (Decl, ExprStmt)):
                if name in stmt_uses(node):
                    return True
    return False


def _defined_before_use(body: Block, name: str) -> bool:
    """True if, scanning top-level statements, a strong def of ``name``
    appears before any use."""
    for stmt in body.stmts:
        if name in stmt_uses(stmt):
            return False
        if name in stmt_strong_defs(stmt):
            return True
        # Conservative: a branch that uses it inside counts as a use.
        for node in stmt.walk():
            if node is stmt:
                continue
            if isinstance(node, (Assign, Decl, ExprStmt)) and \
                    name in stmt_uses(node):
                return False
            if isinstance(node, (Assign, Decl)) and \
                    name in stmt_strong_defs(node):
                return True
    return False


def _has_calls(body: Block, pure: Set[str]) -> List[str]:
    """Names of called functions that are not known-pure."""
    impure: List[str] = []
    for stmt in body.stmts:
        for node in stmt.walk():
            if isinstance(node, Call) and node.name not in pure:
                impure.append(node.name)
    return impure


PURE_INTRINSICS = {"abs", "min", "max", "sqrt", "floor", "ceil"}


def analyze_loop(loop: For, invariants: Optional[Set[str]] = None,
                 pure_functions: Optional[Set[str]] = None) -> LoopInfo:
    """Analyze a counted for-loop for parallelizability."""
    header = _extract_counted_header(loop)
    if header is None:
        return LoopInfo(loop, "", None, None, 0, LoopClass.SEQUENTIAL,
                        reasons=["not a counted loop"])
    var, lower, upper, step = header
    invariants = set(invariants or set())
    pure = PURE_INTRINSICS | set(pure_functions or set())

    reasons: List[str] = []
    if _body_writes_var(loop.body, var):
        reasons.append(f"loop variable {var!r} modified in body")

    impure_calls = _has_calls(loop.body, pure)
    if impure_calls:
        reasons.append(f"calls to possibly-impure functions: "
                       f"{sorted(set(impure_calls))}")

    # Pointer dereferences / address-taking defeat the subscript tests:
    # a *p access may alias anything, so be conservative.  (The Source
    # Recoder's pointer-recoding transformation exists to remove exactly
    # this imprecision -- ablation A4.)
    for stmt in loop.body.stmts:
        for node in stmt.walk():
            if isinstance(node, UnaryOp) and node.op in ("*", "&"):
                reasons.append(
                    "pointer expression defeats dependence analysis")
                break
        else:
            continue
        break

    # Loop-invariant names: anything used but never written in the body.
    body_writes: Set[str] = set()
    for stmt in loop.body.stmts:
        for node in stmt.walk():
            if isinstance(node, (Assign, Decl)):
                body_writes |= stmt_defs(node)
    body_reads: Set[str] = set()
    for stmt in loop.body.stmts:
        for node in stmt.walk():
            if isinstance(node, (Assign, Decl, ExprStmt)):
                body_reads |= stmt_uses(node)
    invariants |= (body_reads - body_writes - {var})

    # Array dependences.
    accesses = collect_array_accesses(loop.body)
    dependences: List[Dependence] = []
    for i, first in enumerate(accesses):
        for second in accesses[i:]:
            if first.array != second.array:
                continue
            if not first.is_write and not second.is_write:
                continue
            verdict = _test_pair(first, second, var, invariants)
            if verdict is None:
                continue
            distance, reason = verdict
            carried = distance is None or distance != 0
            if first is second:
                carried = distance is None or distance != 0
                if distance == 0:
                    continue
            kind = ("output" if first.is_write and second.is_write else
                    "flow" if first.is_write else "anti")
            dependences.append(Dependence(kind, first.array, first, second,
                                          distance, carried, reason))

    private, reductions, carried_scalars = _scalar_analysis(loop.body, var)

    carried_array_deps = [d for d in dependences if d.loop_carried]
    if reasons or carried_array_deps or carried_scalars:
        classification = LoopClass.SEQUENTIAL
        for dep in carried_array_deps:
            reasons.append(f"loop-carried {dep.kind} dependence on "
                           f"{dep.array!r} ({dep.reason})")
        for name in sorted(carried_scalars):
            reasons.append(f"loop-carried scalar {name!r}")
    elif reductions:
        classification = LoopClass.REDUCTION
    else:
        classification = LoopClass.DOALL

    return LoopInfo(loop, var, lower, upper, step, classification,
                    dependences, reductions, private, carried_scalars,
                    reasons)


def find_loops(body: Block) -> List[For]:
    """All for-loops in a block, outermost first."""
    loops: List[For] = []
    for stmt in body.stmts:
        for node in stmt.walk():
            if isinstance(node, For):
                loops.append(node)
    return loops


__all__ = ["AccessInfo", "Affine", "Dependence", "LoopClass", "LoopInfo",
           "REDUCTION_OPS", "affine_of", "analyze_loop",
           "collect_array_accesses", "find_loops"]
