"""Static cost estimation for mini-C code.

MAPS needs per-task weights to balance partitions before any profile
exists (section IV: the "coarse model of the target architecture").  This
module walks the AST and produces abstract operation counts, scaling loop
bodies by their (statically known) trip counts where possible.

Costs are per-PE-class: a processing element class provides multipliers
for arithmetic, memory and control operations, which is how heterogeneous
PEs (RISC vs DSP vs accelerator) are modelled coarsely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cir.analysis.dependence import counted_loop
from repro.cir.nodes import (
    ArrayIndex, Assign, BinOp, Block, Break, Call, Cond, Continue, Decl,
    Expr, ExprStmt, FloatLit, For, FuncDef, Ident, If, IntLit, Program,
    Return, Stmt, StringLit, UnaryOp, While,
)

DEFAULT_TRIP_COUNT = 16  # assumed iterations for loops with unknown bounds
DEFAULT_BRANCH_PROBABILITY = 0.5


@dataclass(frozen=True)
class CostWeights:
    """Per-operation abstract costs for one PE class."""

    arith: float = 1.0
    memory: float = 2.0
    control: float = 1.0
    call: float = 5.0

    @classmethod
    def for_pe_class(cls, pe_class: str) -> "CostWeights":
        """Coarse PE-class presets used by the MAPS platform model."""
        presets = {
            "risc": cls(arith=1.0, memory=2.0, control=1.0, call=5.0),
            "dsp": cls(arith=0.5, memory=1.5, control=2.0, call=8.0),
            "vliw": cls(arith=0.35, memory=1.2, control=2.5, call=10.0),
            "accelerator": cls(arith=0.2, memory=1.0, control=4.0, call=20.0),
        }
        return presets.get(pe_class, cls())


@dataclass
class CostEstimate:
    """Abstract cycles plus a breakdown."""

    total: float = 0.0
    arith_ops: float = 0.0
    memory_ops: float = 0.0
    control_ops: float = 0.0
    calls: float = 0.0

    def add(self, other: "CostEstimate", scale: float = 1.0) -> None:
        self.total += other.total * scale
        self.arith_ops += other.arith_ops * scale
        self.memory_ops += other.memory_ops * scale
        self.control_ops += other.control_ops * scale
        self.calls += other.calls * scale


class _Estimator:
    def __init__(self, weights: CostWeights,
                 program: Optional[Program] = None,
                 env: Optional[Dict[str, int]] = None) -> None:
        self.weights = weights
        self.program = program
        self.env = dict(env or {})
        self._func_cache: Dict[str, CostEstimate] = {}
        self._in_progress: set = set()

    # -- expressions ----------------------------------------------------
    def expr(self, node: Expr) -> CostEstimate:
        est = CostEstimate()
        w = self.weights
        if isinstance(node, (IntLit, FloatLit, StringLit)):
            return est
        if isinstance(node, Ident):
            return est
        if isinstance(node, ArrayIndex):
            est.memory_ops += 1
            est.total += w.memory
            for index in node.index_chain():
                est.add(self.expr(index))
            return est
        if isinstance(node, Call):
            est.calls += 1
            est.total += w.call
            for arg in node.args:
                est.add(self.expr(arg))
            callee = self._function_cost(node.name)
            if callee is not None:
                est.add(callee)
            return est
        if isinstance(node, BinOp):
            est.arith_ops += 1
            est.total += w.arith
            est.add(self.expr(node.left))
            est.add(self.expr(node.right))
            return est
        if isinstance(node, UnaryOp):
            est.arith_ops += 1
            est.total += w.arith
            est.add(self.expr(node.operand))
            return est
        if isinstance(node, Cond):
            est.control_ops += 1
            est.total += w.control
            est.add(self.expr(node.test))
            est.add(self.expr(node.then), DEFAULT_BRANCH_PROBABILITY)
            est.add(self.expr(node.other), DEFAULT_BRANCH_PROBABILITY)
            return est
        return est

    def _function_cost(self, name: str) -> Optional[CostEstimate]:
        if self.program is None or not self.program.has_function(name):
            return None
        if name in self._in_progress:
            return None  # recursion: charge only the call overhead
        if name not in self._func_cache:
            self._in_progress.add(name)
            func = self.program.function(name)
            self._func_cache[name] = self.block(func.body)
            self._in_progress.discard(name)
        return self._func_cache[name]

    # -- statements -------------------------------------------------------
    def stmt(self, node: Stmt) -> CostEstimate:
        est = CostEstimate()
        w = self.weights
        if isinstance(node, Decl):
            if node.init is not None:
                est.add(self.expr(node.init))
                est.memory_ops += 1
                est.total += w.memory
            return est
        if isinstance(node, Assign):
            est.add(self.expr(node.value))
            if node.op:
                est.arith_ops += 1
                est.total += w.arith
            if isinstance(node.target, ArrayIndex):
                est.add(self.expr(node.target))
            est.memory_ops += 1
            est.total += w.memory
            return est
        if isinstance(node, ExprStmt):
            return self.expr(node.expr)
        if isinstance(node, Block):
            return self.block(node)
        if isinstance(node, If):
            est.control_ops += 1
            est.total += w.control
            est.add(self.expr(node.test))
            est.add(self.block(node.then), DEFAULT_BRANCH_PROBABILITY)
            if node.other is not None:
                est.add(self.block(node.other), DEFAULT_BRANCH_PROBABILITY)
            return est
        if isinstance(node, While):
            trips = DEFAULT_TRIP_COUNT
            body = self.block(node.body)
            test = self.expr(node.test)
            est.add(test, trips + 1)
            est.add(body, trips)
            est.control_ops += trips
            est.total += w.control * trips
            return est
        if isinstance(node, For):
            trips = self.trip_count(node)
            if node.init is not None:
                est.add(self.stmt(node.init))
            if node.test is not None:
                est.add(self.expr(node.test), trips + 1)
            if node.step is not None:
                est.add(self.stmt(node.step), trips)
            est.add(self.block(node.body), trips)
            est.control_ops += trips
            est.total += w.control * trips
            return est
        if isinstance(node, Return):
            if node.value is not None:
                est.add(self.expr(node.value))
            est.control_ops += 1
            est.total += w.control
            return est
        if isinstance(node, (Break, Continue)):
            est.control_ops += 1
            est.total += w.control
            return est
        return est

    def block(self, block: Block) -> CostEstimate:
        est = CostEstimate()
        for stmt in block.stmts:
            est.add(self.stmt(stmt))
        return est

    def trip_count(self, loop: For) -> float:
        """Static trip count if bounds are integer literals / known names."""
        header = counted_loop(loop)
        if header is None:
            return DEFAULT_TRIP_COUNT
        low = self._const_value(header.lower)
        high = self._const_value(header.upper)
        if low is None or high is None:
            return DEFAULT_TRIP_COUNT
        return max(0.0, (high - low) / abs(header.step))

    def _const_value(self, expr: Optional[Expr]) -> Optional[float]:
        if expr is None:
            return None
        if isinstance(expr, IntLit):
            return float(expr.value)
        if isinstance(expr, Ident) and expr.name in self.env:
            return float(self.env[expr.name])
        if isinstance(expr, BinOp):
            left = self._const_value(expr.left)
            right = self._const_value(expr.right)
            if left is None or right is None:
                return None
            try:
                return {
                    "+": left + right, "-": left - right, "*": left * right,
                    "/": left / right if right else None,
                }.get(expr.op)
            except ZeroDivisionError:
                return None
        return None


def estimate_cost(stmt: Stmt, weights: Optional[CostWeights] = None,
                  program: Optional[Program] = None,
                  env: Optional[Dict[str, int]] = None) -> CostEstimate:
    """Estimate the abstract cost of one statement (loops scaled by trips)."""
    estimator = _Estimator(weights or CostWeights(), program, env)
    return estimator.stmt(stmt)


def estimate_function_cost(func: FuncDef,
                           weights: Optional[CostWeights] = None,
                           program: Optional[Program] = None,
                           env: Optional[Dict[str, int]] = None) -> CostEstimate:
    """Estimate the abstract cost of a whole function body."""
    estimator = _Estimator(weights or CostWeights(), program, env)
    return estimator.block(func.body)


__all__ = ["CostEstimate", "CostWeights", "DEFAULT_TRIP_COUNT",
           "estimate_cost", "estimate_function_cost"]
