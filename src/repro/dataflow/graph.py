"""SDF and CSDF graph models.

An :class:`SDFGraph` is a multigraph of :class:`Actor` nodes connected by
:class:`Edge` channels with fixed production/consumption rates and initial
tokens.  A :class:`CSDFGraph` generalizes rates and execution times to
cyclically repeating per-phase sequences, which is the model the Hijdra /
CoMPSoC work uses for stream-processing applications (car radio, mobile
phone baseband -- paper section III).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

Rate = Union[int, Sequence[int]]
ExecTime = Union[float, Sequence[float]]


@dataclass
class Actor:
    """A dataflow actor.

    ``exec_time`` is either a scalar (SDF) or a per-phase sequence (CSDF).
    ``exec_time_fn`` optionally overrides it with a per-firing callable
    ``fn(firing_index) -> float`` -- this is how the E4 bench injects
    varying / overrunning execution times.
    """

    name: str
    exec_time: ExecTime = 1.0
    exec_time_fn: Optional[Callable[[int], float]] = None
    phases: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.exec_time, (list, tuple)):
            if not self.exec_time:
                raise ValueError(f"actor {self.name!r}: empty exec_time list")
            self.phases = max(self.phases, len(self.exec_time))
        if self.phases < 1:
            raise ValueError(f"actor {self.name!r}: phases must be >= 1")

    def time_of_firing(self, firing_index: int) -> float:
        """Execution time of the ``firing_index``-th firing (0-based)."""
        if self.exec_time_fn is not None:
            return float(self.exec_time_fn(firing_index))
        if isinstance(self.exec_time, (list, tuple)):
            return float(self.exec_time[firing_index % len(self.exec_time)])
        return float(self.exec_time)

    def __repr__(self) -> str:
        return f"Actor({self.name!r})"


@dataclass
class Edge:
    """A FIFO channel between two actors.

    Rates are scalars (SDF) or per-phase sequences (CSDF).  ``capacity``
    of ``None`` means unbounded (no back-pressure).
    """

    src: str
    dst: str
    prod: Rate = 1
    cons: Rate = 1
    tokens: int = 0
    capacity: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"{self.src}->{self.dst}"
        for label, rate in (("prod", self.prod), ("cons", self.cons)):
            values = rate if isinstance(rate, (list, tuple)) else [rate]
            if any(v < 0 for v in values):
                raise ValueError(f"edge {self.name}: negative {label} rate")
            if not any(values):
                raise ValueError(f"edge {self.name}: all-zero {label} rate")
        if self.tokens < 0:
            raise ValueError(f"edge {self.name}: negative initial tokens")
        if self.capacity is not None and self.capacity < 1:
            raise ValueError(f"edge {self.name}: capacity must be >= 1")

    def prod_at(self, firing_index: int) -> int:
        if isinstance(self.prod, (list, tuple)):
            return int(self.prod[firing_index % len(self.prod)])
        return int(self.prod)

    def cons_at(self, firing_index: int) -> int:
        if isinstance(self.cons, (list, tuple)):
            return int(self.cons[firing_index % len(self.cons)])
        return int(self.cons)

    def prod_per_cycle(self) -> Tuple[int, int]:
        """(total tokens produced per rate-cycle, cycle length)."""
        if isinstance(self.prod, (list, tuple)):
            return sum(self.prod), len(self.prod)
        return int(self.prod), 1

    def cons_per_cycle(self) -> Tuple[int, int]:
        if isinstance(self.cons, (list, tuple)):
            return sum(self.cons), len(self.cons)
        return int(self.cons), 1

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else self.capacity
        return (f"Edge({self.src}->{self.dst}, prod={self.prod}, "
                f"cons={self.cons}, d={self.tokens}, cap={cap})")


class SDFGraph:
    """A synchronous dataflow graph."""

    csdf = False

    def __init__(self, name: str = "sdf") -> None:
        self.name = name
        self.actors: Dict[str, Actor] = {}
        self.edges: List[Edge] = []

    # -- construction -----------------------------------------------------
    def add_actor(self, name: str, exec_time: ExecTime = 1.0,
                  exec_time_fn: Optional[Callable[[int], float]] = None) -> Actor:
        if name in self.actors:
            raise ValueError(f"duplicate actor {name!r}")
        actor = Actor(name, exec_time, exec_time_fn)
        self.actors[name] = actor
        return actor

    def connect(self, src: str, dst: str, prod: Rate = 1, cons: Rate = 1,
                tokens: int = 0, capacity: Optional[int] = None,
                name: str = "") -> Edge:
        for endpoint in (src, dst):
            if endpoint not in self.actors:
                raise KeyError(f"unknown actor {endpoint!r}")
        edge = Edge(src, dst, prod, cons, tokens, capacity, name)
        self.edges.append(edge)
        return edge

    # -- queries ------------------------------------------------------------
    def in_edges(self, actor: str) -> List[Edge]:
        return [e for e in self.edges if e.dst == actor]

    def out_edges(self, actor: str) -> List[Edge]:
        return [e for e in self.edges if e.src == actor]

    def validate(self) -> None:
        """Raise if the graph references unknown actors (defensive check)."""
        for edge in self.edges:
            if edge.src not in self.actors or edge.dst not in self.actors:
                raise ValueError(f"dangling edge {edge!r}")

    def with_capacities(self, capacities: Dict[str, int]) -> "SDFGraph":
        """A copy of this graph with per-edge capacities applied."""
        clone = type(self)(self.name)
        clone.actors = dict(self.actors)
        for edge in self.edges:
            clone.edges.append(Edge(edge.src, edge.dst, edge.prod, edge.cons,
                                    edge.tokens,
                                    capacities.get(edge.name, edge.capacity),
                                    edge.name))
        return clone

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"{len(self.actors)} actors, {len(self.edges)} edges)")


class CSDFGraph(SDFGraph):
    """A cyclo-static dataflow graph.

    Structurally identical to :class:`SDFGraph`; rates and execution times
    may be per-phase sequences.  The distinction is kept as a class so the
    analyses can check which model they were handed.
    """

    csdf = True

    def add_actor(self, name: str, exec_time: ExecTime = 1.0,
                  exec_time_fn: Optional[Callable[[int], float]] = None) -> Actor:
        return super().add_actor(name, exec_time, exec_time_fn)


__all__ = ["Actor", "CSDFGraph", "Edge", "ExecTime", "Rate", "SDFGraph"]
