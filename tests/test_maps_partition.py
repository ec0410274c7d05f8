"""Tests for MAPS partitioning, task graphs and data-parallel expansion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cir import parse, run_program
from repro.maps import (
    PartitionResult, TaskGraph, generate_data_parallel_code,
    partition_data_parallel, partition_function, partition_pipeline,
)

SOURCE = """
int A[128];
int B[128];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 128; i++) { A[i] = i % 9; }
  for (i = 0; i < 128; i++) { B[i] = A[i] * A[i]; }
  for (i = 0; i < 128; i++) { s += B[i]; }
  return s;
}
"""


class TestTaskGraph:
    def test_topological_order(self):
        graph = TaskGraph()
        for name in "abc":
            graph.add_task(name)
        graph.connect("a", "b")
        graph.connect("b", "c")
        assert graph.topological_order() == ["a", "b", "c"]

    def test_cycle_detected(self):
        graph = TaskGraph()
        graph.add_task("a")
        graph.add_task("b")
        graph.connect("a", "b")
        graph.connect("b", "a")
        with pytest.raises(ValueError, match="cycle"):
            graph.topological_order()

    def test_sources_sinks(self):
        graph = TaskGraph()
        for name in "abc":
            graph.add_task(name)
        graph.connect("a", "c")
        graph.connect("b", "c")
        assert sorted(graph.sources()) == ["a", "b"]
        assert graph.sinks() == ["c"]

    def test_critical_path(self):
        graph = TaskGraph()
        graph.add_task("a", cost=5)
        graph.add_task("b", cost=3)
        graph.add_task("c", cost=2)
        graph.connect("a", "c")
        graph.connect("b", "c")
        assert graph.critical_path_cost() == 7
        assert graph.total_cost() == 10


def _kahn_by_filters(graph):
    """Kahn's algorithm over edge-list filters, keeping a sorted frontier:
    the oracle for the indexed, memoized order."""
    in_degree = {name: 0 for name in graph.nodes}
    for edge in graph.edges:
        in_degree[edge.dst] += 1
    frontier = sorted(n for n, d in in_degree.items() if d == 0)
    order = []
    while frontier:
        current = frontier.pop(0)
        order.append(current)
        for edge in [e for e in graph.edges if e.src == current]:
            in_degree[edge.dst] -= 1
            if in_degree[edge.dst] == 0:
                frontier.append(edge.dst)
                frontier.sort()
    if len(order) != len(graph.nodes):
        raise ValueError("cycle")
    return order


def _random_dag(seed, n_tasks=24, n_edges=60, n_isolated=3):
    """A seeded DAG with parallel edges, shuffled insertion order and
    tasks that no edge touches."""
    import random
    rng = random.Random(seed)
    names = [f"t{rng.randrange(1000):03d}_{i}" for i in range(n_tasks)]
    graph = TaskGraph(f"dag{seed}")
    for name in rng.sample(names, len(names)):
        graph.add_task(name, cost=rng.randint(1, 9))
    rank = {name: i for i, name in enumerate(names)}
    wired = names[:n_tasks - n_isolated]
    for _ in range(n_edges):
        a, b = rng.sample(wired, 2)
        if rank[a] > rank[b]:
            a, b = b, a
        graph.connect(a, b, words=rng.randint(1, 64))
    return graph


def _assert_index_matches_filters(graph):
    for name in list(graph.nodes) + ["no-such-task"]:
        assert graph.in_edges(name) == [e for e in graph.edges
                                        if e.dst == name]
        assert graph.out_edges(name) == [e for e in graph.edges
                                         if e.src == name]
        assert graph.predecessors(name) == [e.src for e in graph.edges
                                            if e.dst == name]
        assert graph.successors(name) == [e.dst for e in graph.edges
                                          if e.src == name]
    assert graph.sources() == [n for n in graph.nodes
                               if n not in {e.dst for e in graph.edges}]
    assert graph.sinks() == [n for n in graph.nodes
                             if n not in {e.src for e in graph.edges}]
    assert graph.topological_order() == _kahn_by_filters(graph)


class TestTaskGraphIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_index_equals_edge_filters_on_random_dags(self, seed):
        graph = _random_dag(seed)
        _assert_index_matches_filters(graph)
        isolated = [n for n in graph.nodes
                    if not graph.in_edges(n) and not graph.out_edges(n)]
        assert len(isolated) >= 3

    def test_order_is_a_fresh_copy(self):
        graph = _random_dag(1)
        order = graph.topological_order()
        order.reverse()
        assert graph.topological_order() == _kahn_by_filters(graph)
        graph.in_edges(order[0]).clear()
        _assert_index_matches_filters(graph)

    def test_task_and_edge_added_after_memoized_order(self):
        graph = _random_dag(2)
        before = graph.topological_order()
        graph.add_task("a_first")
        assert graph.topological_order() == ["a_first"] + before \
            == _kahn_by_filters(graph)
        graph.connect(before[-1], "a_first", words=3)
        _assert_index_matches_filters(graph)
        assert graph.topological_order()[-1] == "a_first"
        from repro.maps import TaskNode
        graph.add_node(TaskNode("zz_last", 2.0))
        graph.connect("zz_last", before[0])
        _assert_index_matches_filters(graph)

    def test_cycle_added_late_still_raises(self):
        graph = _random_dag(3)
        order = graph.topological_order()
        graph.connect(order[-1], order[0])
        with pytest.raises(ValueError, match="cycle"):
            graph.topological_order()
        with pytest.raises(ValueError, match="cycle"):
            graph.topological_order()

    def test_round_trip_rebuilds_index(self):
        graph = _random_dag(4)
        _assert_index_matches_filters(TaskGraph.from_dict(graph.to_dict()))


class TestPartitionFunction:
    def test_clusters_and_edges(self):
        result = partition_function(parse(SOURCE))
        graph = result.task_graph
        # block(decls) + 3 loops + return block.
        assert len(graph) == 5
        loops = list(result.loop_infos)
        assert len(loops) == 3
        # Producer/consumer chain via A then B.
        labels = {(e.src, e.dst): e.label for e in graph.edges}
        chain_edges = [(s, d) for (s, d) in labels
                       if "loop" in s and "loop" in d]
        assert len(chain_edges) >= 2

    def test_edge_volume_reflects_array_size(self):
        result = partition_function(parse(SOURCE))
        loop_edges = [e for e in result.task_graph.edges
                      if e.label in ("A", "B")]
        assert all(e.words == 128 for e in loop_edges)

    def test_parallelizable_detection(self):
        result = partition_function(parse(SOURCE))
        assert len(result.parallelizable_tasks) == 3  # incl. the reduction

    def test_sequential_loop_not_parallelizable(self):
        source = """
        int A[64];
        int main() { int i;
          for (i = 1; i < 64; i++) { A[i] = A[i-1] + 1; }
          return A[63]; }
        """
        result = partition_function(parse(source))
        assert result.parallelizable_tasks == []

    def test_costs_positive_and_ordered(self):
        result = partition_function(parse(SOURCE))
        costs = {n: t.cost for n, t in result.task_graph.nodes.items()}
        assert all(c > 0 for c in costs.values())
        loop_costs = [costs[n] for n in result.loop_infos]
        block_cost = costs["block0"]
        assert min(loop_costs) > block_cost  # loops dwarf the decls


class TestDataParallelExpansion:
    def _split(self, source, k, entry="main"):
        program = parse(source)
        result = partition_function(program, entry)
        expanded = result.task_graph
        for task in result.parallelizable_tasks:
            staged = PartitionResult(expanded, result.clusters,
                                     result.loop_infos,
                                     result.parallelizable_tasks,
                                     program, entry)
            expanded = partition_data_parallel(staged, task, k)
        generated, gen_entry = generate_data_parallel_code(
            PartitionResult(expanded, result.clusters, result.loop_infos,
                            result.parallelizable_tasks, program, entry),
            expanded)
        return program, generated, gen_entry, expanded

    def test_expansion_preserves_semantics(self):
        program, generated, entry, expanded = self._split(SOURCE, 4)
        sequential = run_program(program)
        parallel = run_program(generated, entry=entry)
        assert parallel.return_value == sequential.return_value

    def test_chunk_count(self):
        _, _, _, expanded = self._split(SOURCE, 4)
        chunks = [n for n in expanded.nodes
                  if n.rsplit(".", 1)[-1].startswith("c")
                  and n.rsplit(".", 1)[-1][1:].isdigit()]
        combines = [n for n in expanded.nodes if n.endswith(".combine")]
        assert len(chunks) == 3 * 4
        assert len(combines) == 1  # only the reduction loop needs one

    def test_uneven_split(self):
        source = """
        int A[10];
        int main() { int i; int s = 0;
          for (i = 0; i < 10; i++) { A[i] = i * 3; }
          for (i = 0; i < 10; i++) { s += A[i]; }
          return s; }
        """
        program, generated, entry, _ = self._split(source, 3)
        assert run_program(generated, entry=entry).return_value == \
            run_program(program).return_value

    def test_split_sequential_loop_rejected(self):
        source = """
        int A[16];
        int main() { int i;
          for (i = 1; i < 16; i++) { A[i] = A[i-1]; }
          return A[15]; }
        """
        program = parse(source)
        result = partition_function(program)
        loop_name = next(iter(result.loop_infos))
        with pytest.raises(ValueError, match="sequential"):
            partition_data_parallel(result, loop_name, 2)

    def test_split_non_loop_rejected(self):
        program = parse(SOURCE)
        result = partition_function(program)
        with pytest.raises(KeyError):
            partition_data_parallel(result, "block0", 2)

    @given(st.integers(min_value=2, max_value=7),
           st.integers(min_value=8, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_reduction_split_property(self, k, n):
        """For any chunk count and loop bound, splitting a sum reduction
        preserves the result."""
        source = f"""
        int main() {{ int i; int s = 0;
          for (i = 0; i < {n}; i++) {{ s += i * i % 13; }}
          return s; }}
        """
        program, generated, entry, _ = self._split(source, k)
        assert run_program(generated, entry=entry).return_value == \
            run_program(program).return_value


class TestPipelinePartition:
    def test_stage_extraction(self):
        source = """
        int raw[16];
        int flt[16];
        int main() {
          int frame;
          for (frame = 0; frame < 8; frame++) {
            int j;
            for (j = 0; j < 16; j++) { raw[j] = frame + j; }
            for (j = 0; j < 16; j++) { flt[j] = raw[j] * 2; }
            print(flt[0]);
          }
          return 0;
        }
        """
        pipeline = partition_pipeline(parse(source))
        assert len(pipeline.stage_names) >= 2
        graph = pipeline.task_graph
        # raw flows between the producing and filtering stages.
        assert any("raw" in e.label.split(",") for e in graph.edges)

    def test_no_outer_loop_rejected(self):
        with pytest.raises(ValueError, match="no outer loop"):
            partition_pipeline(parse("int main() { return 0; }"))
