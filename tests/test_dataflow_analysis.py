"""Tests for throughput analysis, buffer sizing and schedule existence."""

import math
import random

import pytest

from repro.dataflow import (
    SDFGraph, check_wait_free_schedule, hsdf_expansion, max_cycle_ratio,
    minimal_buffer_sizes, throughput_self_timed,
)


def make_pipeline():
    graph = SDFGraph("pipeline")
    graph.add_actor("src", 1.0)
    graph.add_actor("fir", 2.0)
    graph.add_actor("dec", 1.0)
    graph.add_actor("snk", 0.5)
    graph.connect("src", "fir", 1, 1)
    graph.connect("fir", "dec", 2, 4)
    graph.connect("dec", "snk", 1, 1)
    return graph


class TestThroughput:
    def test_single_actor_selfloop(self):
        graph = SDFGraph()
        graph.add_actor("a", 2.0)
        graph.connect("a", "a", 1, 1, tokens=1)
        assert throughput_self_timed(graph) == pytest.approx(0.5)

    def test_pipeline_bottleneck(self):
        # Bottleneck: fir fires twice per iteration at 2.0 each -> 4.0/iter.
        assert throughput_self_timed(make_pipeline()) == pytest.approx(0.25)

    def test_mcr_matches_self_timed(self):
        graph = make_pipeline()
        mcr, _cycle = max_cycle_ratio(graph)
        measured = throughput_self_timed(graph)
        assert 1.0 / mcr == pytest.approx(measured, rel=1e-3)

    def test_mcr_cycle_graph(self):
        graph = SDFGraph()
        graph.add_actor("a", 3.0)
        graph.add_actor("b", 2.0)
        graph.connect("a", "b", 1, 1)
        graph.connect("b", "a", 1, 1, tokens=2)
        mcr, _ = max_cycle_ratio(graph)
        # The a->b->a cycle gives 5/2 = 2.5, but actor a's sequential-firing
        # self-loop (no auto-concurrency) gives 3/1 = 3.0 and dominates.
        assert mcr == pytest.approx(3.0, rel=1e-3)
        assert throughput_self_timed(graph) == pytest.approx(1 / 3, rel=1e-3)

    def test_mcr_matches_self_timed_on_multirate_graph(self):
        """Verification against the analytic bound on a genuinely
        multirate graph: the measured rate must converge on 1/MCR as the
        window grows (the transient decays as 1/iterations)."""
        graph = SDFGraph("multirate")
        graph.add_actor("a", 1.0)
        graph.add_actor("b", 3.0)
        graph.add_actor("c", 2.0)
        graph.connect("a", "b", 2, 3)       # reps: a 3, b 2, c 6
        graph.connect("b", "c", 3, 1)
        graph.connect("c", "a", 1, 2, tokens=6)
        mcr, _ = max_cycle_ratio(graph)
        coarse = throughput_self_timed(graph, iterations=50)
        fine = throughput_self_timed(graph, iterations=500)
        assert fine == pytest.approx(1.0 / mcr, rel=1e-3)
        # Longer window => closer to the bound, never above it.
        assert abs(fine - 1.0 / mcr) <= abs(coarse - 1.0 / mcr) + 1e-12
        assert fine <= 1.0 / mcr * (1 + 1e-6)

    def test_zero_token_cycle_has_infinite_ratio(self):
        # No initial tokens on a0 <-> a1: neither actor can ever fire.  The
        # binary search used to saturate at its upper bound (15.0 here).
        graph = SDFGraph("dead")
        graph.add_actor("a0", 3.0)
        graph.add_actor("a1", 4.0)
        graph.connect("a0", "a1")
        graph.connect("a1", "a0")
        mcr, cycle = max_cycle_ratio(graph)
        assert mcr == float("inf")
        assert cycle[0] == cycle[-1]
        assert {node for node, _ in cycle} == {"a0", "a1"}
        assert throughput_self_timed(graph) == 0.0

    @pytest.mark.parametrize("seed", range(40))
    def test_mcr_infinite_exactly_when_self_timed_deadlocks(self, seed):
        rng = random.Random(f"{seed}:sdf_ring")
        n = rng.randint(2, 4)
        reps = [rng.randint(1, 3) for _ in range(n)]
        graph = SDFGraph(f"ring{seed}")
        for index in range(n):
            graph.add_actor(f"a{index}", float(rng.randint(1, 5)))
        for index in range(n):
            nxt = (index + 1) % n
            # prod * reps[src] == cons * reps[dst]: a consistent ring.
            scale = rng.randint(1, 2)
            common = math.gcd(reps[index], reps[nxt])
            prod = reps[nxt] // common * scale
            cons = reps[index] // common * scale
            tokens = rng.choice([0, 0, cons, cons * reps[nxt],
                                 rng.randint(0, 2 * cons * reps[nxt])])
            graph.connect(f"a{index}", f"a{nxt}", prod, cons, tokens=tokens)
        mcr, _ = max_cycle_ratio(graph)
        assert (mcr == float("inf")) == (throughput_self_timed(graph) == 0.0)

    def test_self_timed_rejects_degenerate_window(self):
        # With a single measured iteration the window is one point: there
        # is no rate to measure (it used to return inf).
        graph = make_pipeline()
        with pytest.raises(ValueError, match="iterations >= 2"):
            throughput_self_timed(graph, iterations=1)

    def test_hsdf_expansion_counts(self):
        graph = make_pipeline()
        hsdf = hsdf_expansion(graph)
        # reps: src 2, fir 2, dec 1, snk 1 -> 6 HSDF nodes.
        assert hsdf.number_of_nodes() == 6

    def test_hsdf_rejects_csdf_rates(self):
        graph = SDFGraph()
        graph.add_actor("a")
        graph.add_actor("b")
        graph.connect("a", "b", prod=[1, 2], cons=3)
        with pytest.raises(ValueError):
            hsdf_expansion(graph)

    def test_deadlocked_graph_zero_throughput(self):
        graph = SDFGraph()
        graph.add_actor("a", 1.0)
        graph.add_actor("b", 1.0)
        graph.connect("a", "b", 1, 1)
        graph.connect("b", "a", 1, 1)  # no initial tokens
        assert throughput_self_timed(graph) == 0.0


class TestBufferSizing:
    def test_found_capacities_reach_unbounded_throughput(self):
        graph = make_pipeline()
        unbounded = throughput_self_timed(graph)
        result = minimal_buffer_sizes(graph)
        assert result.feasible
        assert result.achieved_throughput == pytest.approx(unbounded,
                                                           rel=1e-6)

    def test_capacities_are_tight(self):
        """Shrinking any found capacity below its value must lose
        throughput or deadlock."""
        graph = make_pipeline()
        result = minimal_buffer_sizes(graph)
        target = result.achieved_throughput
        for name in result.capacities:
            if result.capacities[name] <= 1:
                continue
            smaller = dict(result.capacities)
            smaller[name] -= 1
            reduced = throughput_self_timed(graph.with_capacities(smaller))
            assert reduced < target - 1e-9, \
                f"capacity of {name} not tight"

    def test_relaxed_requirement_needs_fewer_tokens(self):
        graph = make_pipeline()
        full = minimal_buffer_sizes(graph)
        relaxed = minimal_buffer_sizes(graph,
                                       required_throughput=full.
                                       achieved_throughput * 0.5)
        assert relaxed.total_buffer_tokens <= full.total_buffer_tokens

    def test_infeasible_requirement_reported(self):
        graph = make_pipeline()
        result = minimal_buffer_sizes(graph, required_throughput=100.0,
                                      max_rounds=20)
        assert not result.feasible


class TestScheduleExistence:
    def test_boundary_at_mcr_period(self):
        graph = make_pipeline()
        caps = minimal_buffer_sizes(graph).capacities
        bounded = graph.with_capacities(caps)
        ok = check_wait_free_schedule(bounded, "src", "snk", period=4.0)
        assert ok.exists, ok.details
        too_fast = check_wait_free_schedule(bounded, "src", "snk",
                                            period=3.8)
        assert not too_fast.exists

    def test_bigger_buffers_do_not_hurt(self):
        graph = make_pipeline()
        caps = {e.name: 16 for e in graph.edges}
        bounded = graph.with_capacities(caps)
        ok = check_wait_free_schedule(bounded, "src", "snk", period=4.0)
        assert ok.exists

    def test_unknown_actor_rejected(self):
        graph = make_pipeline()
        with pytest.raises(KeyError):
            check_wait_free_schedule(graph, "nope", "snk", period=4.0)

    def test_deadlocking_graph_fails(self):
        graph = SDFGraph()
        graph.add_actor("src", 1.0)
        graph.add_actor("snk", 1.0)
        graph.connect("src", "snk", 1, 1)
        graph.connect("snk", "src", 1, 1)  # tokenless feedback
        result = check_wait_free_schedule(graph, "src", "snk", period=2.0)
        assert not result.exists
