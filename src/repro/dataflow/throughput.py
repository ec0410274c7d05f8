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

from typing import List, Optional, Tuple

import networkx as nx

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


def hsdf_expansion(graph: SDFGraph) -> nx.MultiDiGraph:
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
    hsdf = nx.MultiDiGraph()
    for name, count in reps.items():
        duration = graph.actors[name].time_of_firing(0)
        for k in range(count):
            hsdf.add_node((name, k), exec_time=duration)
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
            hsdf.add_edge((edge.src, src_firing), (edge.dst, dst_firing),
                          tokens=delay, name=edge.name)
    # Sequential-firing constraint of each actor (no auto-concurrency):
    for name, count in reps.items():
        for k in range(count):
            nxt = (k + 1) % count
            hsdf.add_edge((name, k), (name, nxt),
                          tokens=1 if nxt == 0 else 0, name=f"{name}.seq")
    return hsdf


def max_cycle_ratio(graph: SDFGraph,
                    tolerance: float = 1e-9) -> Tuple[float, List]:
    """Maximum cycle ratio of the HSDF expansion.

    Returns ``(mcr, critical_cycle_nodes)``.  The throughput bound of the
    graph is ``1 / mcr`` iterations per time unit.  A cycle of HSDF edges
    that carry no initial tokens can never fire: it is reported first, as
    ``(inf, cycle)`` (throughput bound 0, the rate
    :func:`throughput_self_timed` measures for the deadlocked graph).
    Otherwise the ratio is found by binary search with Bellman-Ford
    negative-cycle detection (Lawler's method).
    """
    hsdf = hsdf_expansion(graph)
    tokenless = nx.DiGraph([(u, v) for u, v, tokens
                            in hsdf.edges(data="tokens") if tokens == 0])
    try:
        cycle = nx.find_cycle(tokenless)
    except nx.NetworkXNoCycle:
        pass
    else:
        return float("inf"), [u for u, _ in cycle] + [cycle[0][0]]
    exec_times = nx.get_node_attributes(hsdf, "exec_time")

    total_time = sum(exec_times.values()) or 1.0
    low, high = 0.0, float(total_time) * 2 + 1.0

    def has_positive_cycle(ratio: float) -> Optional[List]:
        """Cycle with weight(time) - ratio * tokens > 0, via Bellman-Ford on
        negated weights.  Parallel edges are collapsed to the most negative
        one (equivalent for negative-cycle existence)."""
        weighted = nx.DiGraph()
        weighted.add_nodes_from(hsdf.nodes)
        for u, v, data in hsdf.edges(data=True):
            weight = -(exec_times[u] - ratio * data["tokens"])
            if weighted.has_edge(u, v):
                weight = min(weight, weighted[u][v]["weight"])
            weighted.add_edge(u, v, weight=weight)
        # networkx's find_negative_cycle mishandles self-loops; check them
        # here and strip them from the searched graph.
        for node in list(weighted.nodes):
            if weighted.has_edge(node, node):
                if weighted[node][node]["weight"] < 0:
                    return [node, node]
                weighted.remove_edge(node, node)
        try:
            cycle = nx.find_negative_cycle(weighted, next(iter(weighted.nodes)))
            return cycle
        except nx.NetworkXError:
            pass
        # find_negative_cycle only explores from one source; check all
        # components via a super-source.
        super_source = ("__source__", -1)
        weighted.add_node(super_source)
        for node in hsdf.nodes:
            weighted.add_edge(super_source, node, weight=0.0)
        try:
            return nx.find_negative_cycle(weighted, super_source)
        except nx.NetworkXError:
            return None

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


__all__ = ["hsdf_expansion", "max_cycle_ratio", "throughput_self_timed"]
