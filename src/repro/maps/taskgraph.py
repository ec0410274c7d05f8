"""Task graphs: the intermediate representation between partitioning and
mapping (section IV).

A :class:`TaskNode` carries an abstract cost (scaled per PE class via the
coarse cost model) and the AST statements it owns; a :class:`TaskEdge`
carries the data volume flowing between tasks.  Task graphs are DAGs --
the fine-grained graphs MAPS forms after dataflow analysis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cir.nodes import Stmt
from repro.maps.spec import PEClass


@dataclass
class TaskNode:
    """One schedulable task."""

    name: str
    cost: float = 1.0                      # abstract cycles on a 1.0x RISC
    stmts: List[Stmt] = field(default_factory=list)
    kind: str = "compute"                  # 'compute'|'split'|'combine'|'stage'
    preferred_pe: Optional[PEClass] = None
    # Per-PE-class cost multiplier (from the coarse architecture model);
    # effective cost on class k = cost * class_factor.get(k, 1.0).
    class_factor: Dict[PEClass, float] = field(default_factory=dict)

    def cost_on(self, pe_class: PEClass, freq: float = 1.0) -> float:
        factor = self.class_factor.get(pe_class, 1.0)
        return self.cost * factor / freq


@dataclass
class TaskEdge:
    """Data dependence with transfer volume in words."""

    src: str
    dst: str
    words: int = 1
    label: str = ""


class TaskGraph:
    """A DAG of tasks.

    Tasks are added only through :meth:`add_task`/:meth:`add_node` and
    edges only through :meth:`connect`: those keep the per-task in/out
    edge lists (in insertion order) and drop the memoized topological
    order.  ``nodes`` and ``edges`` are for reading.
    """

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self.nodes: Dict[str, TaskNode] = {}
        self.edges: List[TaskEdge] = []
        self._in: Dict[str, List[TaskEdge]] = {}
        self._out: Dict[str, List[TaskEdge]] = {}
        self._order: Optional[List[str]] = None

    def add_task(self, name: str, cost: float = 1.0, **kwargs) -> TaskNode:
        return self.add_node(TaskNode(name, cost, **kwargs))

    def add_node(self, node: TaskNode) -> TaskNode:
        if node.name in self.nodes:
            raise ValueError(f"duplicate task {node.name!r}")
        self.nodes[node.name] = node
        self._in[node.name] = []
        self._out[node.name] = []
        self._order = None
        return node

    def connect(self, src: str, dst: str, words: int = 1,
                label: str = "") -> TaskEdge:
        for endpoint in (src, dst):
            if endpoint not in self.nodes:
                raise KeyError(f"unknown task {endpoint!r}")
        edge = TaskEdge(src, dst, words, label)
        self.edges.append(edge)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        self._order = None
        return edge

    # ------------------------------------------------------------------
    def predecessors(self, name: str) -> List[str]:
        return [e.src for e in self._in.get(name, ())]

    def successors(self, name: str) -> List[str]:
        return [e.dst for e in self._out.get(name, ())]

    def in_edges(self, name: str) -> List[TaskEdge]:
        return list(self._in.get(name, ()))

    def out_edges(self, name: str) -> List[TaskEdge]:
        return list(self._out.get(name, ()))

    def sources(self) -> List[str]:
        return [n for n in self.nodes if not self._in[n]]

    def sinks(self) -> List[str]:
        return [n for n in self.nodes if not self._out[n]]

    def topological_order(self) -> List[str]:
        """Kahn's algorithm, always releasing the smallest ready name;
        raises on cycles (task graphs must be DAGs).  Memoized until the
        next added task or edge; each call returns a fresh list."""
        if self._order is None:
            in_degree = {name: len(self._in[name]) for name in self.nodes}
            frontier = [n for n, d in in_degree.items() if d == 0]
            heapq.heapify(frontier)
            order: List[str] = []
            while frontier:
                current = heapq.heappop(frontier)
                order.append(current)
                for edge in self._out[current]:
                    in_degree[edge.dst] -= 1
                    if in_degree[edge.dst] == 0:
                        heapq.heappush(frontier, edge.dst)
            if len(order) != len(self.nodes):
                raise ValueError(f"task graph {self.name!r} has a cycle")
            self._order = order
        return list(self._order)

    def total_cost(self) -> float:
        return sum(node.cost for node in self.nodes.values())

    def critical_path_cost(self) -> float:
        """Longest cost path (communication ignored) -- the span."""
        longest: Dict[str, float] = {}
        for name in self.topological_order():
            node_cost = self.nodes[name].cost
            preds = self.predecessors(name)
            longest[name] = node_cost + max(
                (longest[p] for p in preds), default=0.0)
        return max(longest.values(), default=0.0)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (f"TaskGraph({self.name!r}, {len(self.nodes)} tasks, "
                f"{len(self.edges)} edges)")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Cost-model view as plain JSON (inverse of :meth:`from_dict`).

        Carries everything mapping and scheduling consume -- costs,
        kinds, class factors, preferences, edge volumes -- but NOT the
        owned AST statements: a rehydrated graph schedules identically
        yet cannot be code-generated.  That is the right trade for farm
        job configs, where the graph must travel as data.
        """
        return {
            "name": self.name,
            "nodes": [{"name": node.name, "cost": node.cost,
                       "kind": node.kind,
                       "preferred_pe": (node.preferred_pe.value
                                        if node.preferred_pe else None),
                       "class_factor": {
                           pe_class.value: factor for pe_class, factor
                           in sorted(node.class_factor.items(),
                                     key=lambda kv: kv[0].value)}}
                      for node in self.nodes.values()],
            "edges": [{"src": e.src, "dst": e.dst, "words": e.words,
                       "label": e.label} for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TaskGraph":
        graph = cls(name=data.get("name", "taskgraph"))
        for spec in data.get("nodes", ()):
            preferred = spec.get("preferred_pe")
            graph.add_task(
                spec["name"], cost=spec.get("cost", 1.0),
                kind=spec.get("kind", "compute"),
                preferred_pe=PEClass(preferred) if preferred else None,
                class_factor={PEClass(k): v for k, v in
                              spec.get("class_factor", {}).items()})
        for spec in data.get("edges", ()):
            graph.connect(spec["src"], spec["dst"],
                          words=spec.get("words", 1),
                          label=spec.get("label", ""))
        return graph


__all__ = ["TaskEdge", "TaskGraph", "TaskNode"]
