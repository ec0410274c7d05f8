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

Scalars written in the body are classified from one liveness pass over
the control-flow graph of one iteration: a scalar is private when it is
not live at the body's entry; a scalar that is live there is a reduction
when its one write is ``s = s op expr`` (or ``s op= expr``) with an
associative op and no other node reads it (branch tests count as reads),
and carried (a true cross-iteration dependence) otherwise.

Two accesses that name the same loop-invariant element every iteration,
at least one of them a write, are carried at unknown distance.  A loop
that a ``break`` of its own or a ``return`` can leave early, or whose body
writes a name its test reads, is sequential.

:func:`counted_loop` is the one reader of a counted loop header, and
:func:`chunk_loop` the one builder of chunk loops; the MAPS partitioner
and the Source Recoder's loop split both use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.cir.analysis.cfg import build_cfg
from repro.cir.analysis.dataflow import (
    defs_of, expr_uses, liveness, node_uses, stmt_uses,
)
from repro.cir.clone import clone
from repro.cir.nodes import (
    ArrayIndex, Assign, BinOp, Block, Break, Call, Continue, Decl, Expr,
    ExprStmt, For, Ident, IntLit, Return, Stmt, UnaryOp, While,
)

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
    same_element = True
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
                    continue
                return None  # proven independent in this dimension
            same_element = False
            delta = b.const - a.const
            if delta % a.coeff != 0:
                return None  # no integer solution -> independent
            distance = _combine_distance(distance, -(delta // a.coeff))
            continue
        # coeff differs (weak SIV) -- a single crossing may exist; be
        # conservative but note it.
        return None, "weak-SIV (single crossing assumed dependent)"
    if same_element:
        # Every iteration touches this one element, and one side writes it.
        return None, "same element every iteration"
    if distance == 0:
        return 0, "loop-independent"
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


@dataclass(frozen=True)
class CountedLoop:
    """A counted loop header read as a half-open ascending range.

    ``var`` takes values in ``[lower, upper)``, ``abs(step)`` apart:
    upward from ``lower`` when ``step > 0``, downward from ``upper - 1``
    when ``step < 0``.  ``declared`` marks ``for (int i = ...)``.  The
    bounds may share nodes with the loop: clone them before inserting.
    """

    var: str
    lower: Expr
    upper: Expr
    step: int
    declared: bool = False


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def counted_loop(loop: For) -> Optional[CountedLoop]:
    """Read ``for (i = L; i < U; i += s)`` and its variants: ``<=``,
    ``>``, ``>=``, the bound on either side of the test, ``i++``,
    ``i--``, ``i -= s``, ``i = i + s``, ``i = i - s`` and ``int i = L``.
    None for any other header, or one whose test and step disagree in
    direction."""
    init, test = loop.init, loop.test
    if isinstance(init, Assign) and isinstance(init.target, Ident) \
            and not init.op:
        var, start = init.target.name, init.value
    elif isinstance(init, Decl) and init.init is not None:
        var, start = init.name, init.init
    else:
        return None
    step = _step_of(loop.step, var)
    if not step or not isinstance(test, BinOp) or test.op not in _FLIPPED:
        return None
    op, bound = test.op, test.right
    if _is_var(test.right, var):
        op, bound = _FLIPPED[op], test.left
    elif not _is_var(test.left, var):
        return None
    if var in expr_uses(bound) or (step > 0) != (op in ("<", "<=")):
        return None
    declared = isinstance(init, Decl)
    if step > 0:
        upper = _plus_one(bound) if op == "<=" else bound
        return CountedLoop(var, start, upper, step, declared)
    lower = _plus_one(bound) if op == ">" else bound
    return CountedLoop(var, lower, _plus_one(start), step, declared)


def _is_var(expr: Expr, var: str) -> bool:
    return isinstance(expr, Ident) and expr.name == var


def _plus_one(expr: Expr) -> Expr:
    if isinstance(expr, IntLit):
        return IntLit(value=expr.value + 1)
    return BinOp(op="+", left=expr, right=IntLit(value=1))


def _step_of(stmt: Optional[Stmt], var: str) -> int:
    """What a step statement adds to ``var`` each iteration (0: not a
    constant step)."""
    if not (isinstance(stmt, Assign) and _is_var(stmt.target, var)):
        return 0
    op, value = stmt.op, stmt.value
    if not op and isinstance(value, BinOp) and _is_var(value.left, var):
        op, value = value.op, value.right
    if op in ("+", "-") and isinstance(value, IntLit):
        return value.value if op == "+" else -value.value
    return 0


def loop_exits(loop: For) -> List[Stmt]:
    """Every ``return`` in the body of ``loop``, and every ``break`` and
    ``continue`` of this loop (not of a loop nested in it)."""
    exits: List[Stmt] = []

    def visit(stmt: Stmt, own: bool) -> None:
        if isinstance(stmt, Return) or \
                (own and isinstance(stmt, (Break, Continue))):
            exits.append(stmt)
        for child in stmt.children():
            if isinstance(child, Stmt):
                visit(child, own and not isinstance(stmt, (For, While)))

    visit(loop.body, True)
    return exits


def _unfixed_range(loop: For, body_writes: Set[str]) -> List[str]:
    """Why ``loop`` may not run every iteration its header names: its
    body writes a name the test reads, or a ``break`` of its own or a
    ``return`` can leave it early."""
    reasons = [f"{name!r} read by the loop test is modified in body"
               for name in sorted(expr_uses(loop.test) & body_writes)]
    kinds = {type(stmt).__name__.lower() for stmt in loop_exits(loop)
             if not isinstance(stmt, Continue)}
    return reasons + [f"a {kind} leaves the loop early"
                      for kind in sorted(kinds)]


def chunk_refusal(loop: For) -> Optional[str]:
    """Why :func:`chunk_loop` cannot reproduce ``loop`` exactly, or None.

    Chunks are emitted as ``for (i = lo; i < hi; i += 1)``, so the loop
    must count up by one over a range its body neither changes nor
    leaves early."""
    header = counted_loop(loop)
    if header is None:
        return "not a counted loop"
    unfixed = _unfixed_range(loop, defs_of(loop.body.stmts))
    if unfixed:
        return unfixed[0]
    if header.step < 0:
        return "a down-counting loop"
    if header.step != 1:
        return f"step {header.step}"
    return None


def chunk_loop(loop: For, k: int) -> List[For]:
    """``k`` copies of ``loop`` over consecutive sub-ranges of its range,
    in iteration order, each headed ``for (i = lo; i < hi; i += 1)``
    (``int i`` stays declared).

    Literal bounds give chunk sizes that differ by at most one, larger
    chunks first; other bounds give ``L + (U - L) * c / k``.  Raises
    ValueError with :func:`chunk_refusal`'s reason for any other loop.
    """
    why = chunk_refusal(loop)
    if why is not None:
        raise ValueError(why)
    header = counted_loop(loop)
    lower, upper, var = header.lower, header.upper, header.var
    cuts: List[Expr] = []
    if isinstance(lower, IntLit) and isinstance(upper, IntLit):
        base, extra = divmod(max(0, upper.value - lower.value), k)
        for c in range(k + 1):
            cuts.append(IntLit(value=lower.value + c * base + min(c, extra)))
    else:
        span = BinOp(op="-", left=upper, right=lower)
        for c in range(k + 1):
            scaled = BinOp(op="*", left=span, right=IntLit(value=c))
            cuts.append(BinOp(op="+", left=lower, right=BinOp(
                op="/", left=scaled, right=IntLit(value=k))))
    chunks: List[For] = []
    for low, high in zip(cuts, cuts[1:]):
        chunk = clone(loop)
        if header.declared:
            chunk.init.init = clone(low)
        else:
            chunk.init.value = clone(low)
        chunk.test = BinOp(op="<", left=Ident(name=var), right=clone(high))
        chunk.step = Assign(target=Ident(name=var), value=IntLit(value=1),
                            op="+")
        chunks.append(chunk)
    return chunks


@dataclass
class LoopInfo:
    """Full analysis result for one loop (``header`` None: not counted)."""

    loop: For
    header: Optional[CountedLoop]
    classification: LoopClass
    dependences: List[Dependence] = field(default_factory=list)
    reductions: Dict[str, str] = field(default_factory=dict)  # var -> op
    private_scalars: Set[str] = field(default_factory=set)
    carried_scalars: Set[str] = field(default_factory=set)
    reasons: List[str] = field(default_factory=list)


def _scalar_analysis(body: Block, loop_var: str) \
        -> Tuple[Set[str], Dict[str, str], Set[str]]:
    """Classify scalars written in the body: (private, reductions, carried).

    A name declared in the body is private.  Every other written scalar
    but the loop variable is classified by liveness over the CFG of one
    iteration, which is built only when there is such a scalar.
    """
    writes: Dict[str, List[Assign]] = {}
    declared: Set[str] = set()
    for stmt in body.stmts:
        for node in stmt.walk():
            if isinstance(node, Assign) and isinstance(node.target, Ident):
                writes.setdefault(node.target.name, []).append(node)
            if isinstance(node, Decl):
                declared.add(node.name)
    private = declared & writes.keys()
    outer = [name for name in writes
             if name not in declared and name != loop_var]
    reductions: Dict[str, str] = {}
    carried: Set[str] = set()
    if not outer:
        return private, reductions, carried

    cfg = build_cfg(body)
    live = liveness(cfg)[0][cfg.entry.nid]
    readers = {name: 0 for name in outer}  # CFG nodes reading each name
    for node in cfg.nodes.values():
        for name in node_uses(node) & readers.keys():
            readers[name] += 1
    for name in outer:
        assign, *others = writes[name]
        if name not in live:
            private.add(name)
        elif not others and readers[name] == 1 \
                and _is_reduction_assign(assign, name):
            # The reduction statement itself is the one reader.
            reductions[name] = assign.op or assign.value.op  # type: ignore[union-attr]
        else:
            carried.add(name)
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
    header = counted_loop(loop)
    if header is None:
        return LoopInfo(loop, None, LoopClass.SEQUENTIAL,
                        reasons=["not a counted loop"])
    var = header.var
    invariants = set(invariants or set())
    pure = PURE_INTRINSICS | set(pure_functions or set())
    body_writes = defs_of(loop.body.stmts)
    reasons = _unfixed_range(loop, body_writes)

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
            if first is second and distance == 0:
                continue
            carried = distance != 0
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

    return LoopInfo(loop, header, classification,
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


__all__ = ["AccessInfo", "Affine", "CountedLoop", "Dependence", "LoopClass",
           "LoopInfo", "REDUCTION_OPS", "affine_of", "analyze_loop",
           "chunk_loop", "chunk_refusal", "collect_array_accesses",
           "counted_loop", "find_loops", "loop_exits"]
