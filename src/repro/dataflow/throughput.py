"""Throughput analysis: self-timed measurement and max-cycle-ratio bound.

Two complementary analyses:

- :func:`throughput_self_timed` measures the steady-state iteration rate of
  a self-timed execution (works for SDF and CSDF, bounded or unbounded
  buffers).
- :func:`max_cycle_ratio` computes the analytic throughput bound
  ``1 / MCR`` of the homogeneous (HSDF) expansion, where MCR is the maximum
  over all cycles of (total execution time on the cycle / total initial
  tokens on the cycle).  This is the classical design-time guarantee used
  by predictable multiprocessor systems like CoMPSoC (paper ref [4]).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.dataflow.graph import SDFGraph
from repro.dataflow.repetition import firings_per_iteration
from repro.dataflow.simulate import simulate_self_timed


def throughput_self_timed(graph: SDFGraph, iterations: int = 50,
                          warmup: int = 10) -> float:
    """Steady-state iterations/time from a self-timed run.

    Runs ``warmup + iterations`` graph iterations and measures the rate of
    a reference actor over the post-warmup window.  The window spans from
    the first firing of iteration ``warmup`` to the first firing of the
    last iteration, so at least two measured iterations are required --
    with one the window is a single point and no rate exists.

    The window is finite, so the estimate can exceed the analytic bound
    ``1 / max_cycle_ratio`` by O(1/iterations): the excess shrinks about
    tenfold from 50 to 500 iterations.
    """
    if iterations < 2:
        raise ValueError("throughput_self_timed needs iterations >= 2 "
                         "to measure a rate")
    reps = firings_per_iteration(graph)
    total = warmup + iterations
    result = simulate_self_timed(
        graph, stop_after_iterations=total, repetition=reps,
        max_firings=sum(reps.values()) * total + 10_000)
    if result.deadlocked:
        return 0.0
    reference = min(graph.actors)  # deterministic choice
    starts = result.start_times(reference)
    per_iter = reps[reference]
    if len(starts) < per_iter * total:
        return 0.0
    # Time of the first firing of iteration `warmup` and of iteration `total`.
    first = starts[warmup * per_iter]
    last_iteration_first = starts[(total - 1) * per_iter]
    span = last_iteration_first - first
    if span <= 0:
        return float("inf")
    return (total - 1 - warmup) / span


Node = Tuple[str, int]


class HSDFGraph(NamedTuple):
    """A homogeneous SDF graph: ``nodes`` maps each firing ``(actor, k)``
    to its execution time (in insertion order), and ``edges`` lists
    ``(u, v, tokens, name)``; parallel edges are kept."""

    nodes: Dict[Node, float]
    edges: List[Tuple[Node, Node, int, str]]


def hsdf_expansion(graph: SDFGraph) -> HSDFGraph:
    """Expand an SDF graph into its homogeneous (HSDF) equivalent.

    Every actor ``a`` becomes ``reps[a]`` copies ``(a, k)``.  Every edge is
    unrolled token-by-token: the token produced by firing ``i`` of the
    producer is consumed by the firing of the consumer determined by the
    cumulative-rate mapping; initial tokens shift consumption indices and
    become inter-iteration (token-carrying) edges.

    Only scalar-rate (pure SDF) graphs are supported; CSDF callers should
    measure throughput with :func:`throughput_self_timed` instead.
    """
    for edge in graph.edges:
        if isinstance(edge.prod, (list, tuple)) or \
                isinstance(edge.cons, (list, tuple)):
            raise ValueError("hsdf_expansion supports scalar-rate SDF only")
    reps = firings_per_iteration(graph)
    hsdf = HSDFGraph({}, [])
    for name, count in reps.items():
        duration = graph.actors[name].time_of_firing(0)
        for k in range(count):
            hsdf.nodes[(name, k)] = duration
    for edge in graph.edges:
        prod, cons = int(edge.prod), int(edge.cons)
        reps_src = reps[edge.src]
        total_tokens = prod * reps_src
        for produced_index in range(total_tokens):
            src_firing = produced_index // prod
            # Token position in the stream, offset by initial tokens.
            position = produced_index + edge.tokens
            dst_firing_global = position // cons
            delay = dst_firing_global // reps[edge.dst]
            dst_firing = dst_firing_global % reps[edge.dst]
            hsdf.edges.append(((edge.src, src_firing),
                               (edge.dst, dst_firing), delay, edge.name))
    # Sequential-firing constraint of each actor (no auto-concurrency):
    for name, count in reps.items():
        for k in range(count):
            nxt = (k + 1) % count
            hsdf.edges.append(((name, k), (name, nxt),
                               1 if nxt == 0 else 0, f"{name}.seq"))
    return hsdf


def _tokenless_cycle(hsdf: HSDFGraph) -> Optional[List[Node]]:
    """A cycle of zero-token edges as ``[n0, n1, ..., n0]``, or None
    (iterative depth-first search)."""
    successors: Dict[Node, List[Node]] = {node: [] for node in hsdf.nodes}
    for u, v, tokens, _name in hsdf.edges:
        if tokens == 0:
            successors[u].append(v)
    state: Dict[Node, bool] = {}  # True while on the search path
    for root in hsdf.nodes:
        if root in state:
            continue
        path, pending = [root], [iter(successors[root])]
        state[root] = True
        while pending:
            node = next(pending[-1], None)
            if node is None:
                state[path.pop()] = False
                pending.pop()
            elif state.get(node):
                return path[path.index(node):] + [node]
            elif node not in state:
                path.append(node)
                pending.append(iter(successors[node]))
                state[node] = True
    return None


def max_cycle_ratio(graph: SDFGraph,
                    tolerance: float = 1e-9) -> Tuple[float, List]:
    """Maximum cycle ratio of the HSDF expansion.

    Returns ``(mcr, critical_cycle_nodes)``.  The throughput bound of the
    graph is ``1 / mcr`` iterations per time unit.  A cycle of HSDF edges
    that carry no initial tokens can never fire: it is reported first, as
    ``(inf, cycle)`` (throughput bound 0, the rate
    :func:`throughput_self_timed` measures for the deadlocked graph).
    Otherwise the ratio is found by binary search, testing each candidate
    ratio for a cycle with positive ``time - ratio * tokens`` by
    Bellman-Ford (Lawler's method).  A cycle is a node list whose first
    and last entries are equal.
    """
    hsdf = hsdf_expansion(graph)
    cycle = _tokenless_cycle(hsdf)
    if cycle is not None:
        return float("inf"), cycle
    exec_times = hsdf.nodes

    total_time = sum(exec_times.values()) or 1.0
    low, high = 0.0, float(total_time) * 2 + 1.0

    nodes = list(exec_times)
    index = {node: position for position, node in enumerate(nodes)}
    # Parallel edges collapse to the fewest tokens: for a ratio >= 0 that
    # is the heaviest one, so positive cycles are unchanged.
    fewest: Dict[Tuple[int, int], int] = {}
    for u, v, tokens, _name in hsdf.edges:
        key = (index[u], index[v])
        fewest[key] = min(tokens, fewest.get(key, tokens))
    edges = [(u, v, exec_times[nodes[u]], tokens)
             for (u, v), tokens in fewest.items()]

    def has_positive_cycle(ratio: float) -> Optional[List]:
        """A cycle with ``time - ratio * tokens > 0``: Bellman-Ford for
        longest paths, every distance starting at 0 (a virtual
        super-source), so an edge still relaxing in pass ``len(nodes)``
        leads back along the predecessor links into such a cycle."""
        weighted = [(u, v, time - ratio * tokens)
                    for u, v, time, tokens in edges]
        dist = [0.0] * len(nodes)
        pred = [-1] * len(nodes)
        for _pass in range(len(nodes)):
            last = -1
            for u, v, weight in weighted:
                if dist[u] + weight > dist[v]:
                    dist[v] = dist[u] + weight
                    pred[v] = u
                    last = v
            if last < 0:
                return None
        for _step in range(len(nodes)):
            last = pred[last]
        cycle = [last]
        node = pred[last]
        while node != last:
            cycle.append(node)
            node = pred[node]
        cycle.append(last)
        return [nodes[position] for position in reversed(cycle)]

    critical: List = []
    while high - low > tolerance * max(1.0, high):
        mid = (low + high) / 2
        cycle = has_positive_cycle(mid)
        if cycle is not None:
            critical = cycle
            low = mid
        else:
            high = mid
    return high, critical


__all__ = ["HSDFGraph", "hsdf_expansion", "max_cycle_ratio",
           "throughput_self_timed"]
