"""Tests for MAPS mapping, concurrency graph, MVP simulation and OSIP."""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.maps import (
    ApplicationSpec, ConcurrencyGraph, OsipModel, PEClass, PlatformSpec,
    RiscSchedulerModel, RTClass, TaskGraph, map_multi_app, map_task_graph,
    simulate_mapping, task_farm_utilization,
)
from repro.maps.mvp import AppRun
from repro.maps.osip import utilization_curve
from repro.cir.parser import parse


def diamond(costs=(4, 10, 10, 4), words=8):
    graph = TaskGraph("diamond")
    names = ["src", "left", "right", "sink"]
    for name, cost in zip(names, costs):
        graph.add_task(name, cost=cost)
    graph.connect("src", "left", words)
    graph.connect("src", "right", words)
    graph.connect("left", "sink", words)
    graph.connect("right", "sink", words)
    return graph


class TestMapping:
    def test_parallel_branches_spread(self):
        platform = PlatformSpec.symmetric(2, channel_setup_cost=0.1,
                                          channel_word_cost=0.01)
        mapping = map_task_graph(diamond(), platform)
        assert mapping.pe_of("left") != mapping.pe_of("right")
        # Makespan near critical path, not serial sum.
        assert mapping.makespan < 4 + 10 + 10 + 4

    def test_expensive_comm_keeps_tasks_together(self):
        platform = PlatformSpec.symmetric(2, channel_setup_cost=1000.0)
        mapping = map_task_graph(diamond(), platform)
        pes = {mapping.pe_of(t) for t in mapping.graph.nodes}
        assert len(pes) == 1

    def test_preferred_pe_class_respected(self):
        platform = PlatformSpec("het")
        platform.add_pe("cpu", PEClass.RISC)
        platform.add_pe("dsp", PEClass.DSP)
        graph = TaskGraph()
        node = graph.add_task("filter", cost=50)
        node.preferred_pe = PEClass.DSP
        mapping = map_task_graph(graph, platform)
        assert mapping.pe_of("filter") == "dsp"

    def test_allowed_pes_restricts(self):
        platform = PlatformSpec.symmetric(4)
        mapping = map_task_graph(diamond(), platform,
                                 allowed_pes=["pe2", "pe3"])
        assert set(mapping.assignment.values()) <= {"pe2", "pe3"}

    def test_schedule_respects_dependences(self):
        platform = PlatformSpec.symmetric(3)
        mapping = map_task_graph(diamond(), platform)
        by_task = {entry.task: entry for entry in mapping.schedule}
        assert by_task["sink"].start >= by_task["left"].finish - 1e-9
        assert by_task["left"].start >= by_task["src"].finish - 1e-9

    def test_faster_pe_attracts_work(self):
        platform = PlatformSpec("mix")
        platform.add_pe("slow", freq=1.0)
        platform.add_pe("fast", freq=4.0)
        graph = TaskGraph()
        graph.add_task("only", cost=100)
        mapping = map_task_graph(graph, platform)
        assert mapping.pe_of("only") == "fast"


class TestConcurrency:
    def test_scenarios_are_cliques(self):
        cg = ConcurrencyGraph()
        for name in "abc":
            cg.add_app(name)
        cg.set_concurrent("a", "b")
        scenarios = cg.scenarios()
        assert frozenset({"a", "b"}) in scenarios
        assert frozenset({"c"}) in scenarios

    def test_worst_case_load(self):
        cg = ConcurrencyGraph()
        for name in ("radio", "video", "codec"):
            cg.add_app(name)
        cg.set_concurrent("radio", "video")
        # codec never concurrent with the others.
        loads = {
            "radio": {"pe0": 0.4},
            "video": {"pe0": 0.5},
            "codec": {"pe0": 0.8},
        }
        worst = cg.worst_case_load(loads)
        assert worst["pe0"] == pytest.approx(0.9)  # radio+video clique

    def test_worst_case_load_is_independent_of_string_hashing(self):
        # A scenario is a frozenset whose order follows PYTHONHASHSEED;
        # float addition is not associative, so the load must be summed
        # in an order of its own.
        script = """
from repro.maps import ConcurrencyGraph
cg = ConcurrencyGraph()
loads = {"a": {"pe0": 0.1}, "b": {"pe0": 0.2}, "c": {"pe0": 0.3}}
for app in loads:
    cg.add_app(app)
for app_a, app_b in (("a", "b"), ("a", "c"), ("b", "c")):
    cg.set_concurrent(app_a, app_b)
print(repr(cg.worst_case_load(loads)["pe0"]))
"""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        outputs = set()
        for hash_seed in range(10):
            env = dict(os.environ, PYTHONPATH=src,
                       PYTHONHASHSEED=str(hash_seed))
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout.strip())
        assert len(outputs) == 1, outputs

    def test_self_concurrency_rejected(self):
        cg = ConcurrencyGraph()
        cg.add_app("a")
        with pytest.raises(ValueError):
            cg.set_concurrent("a", "a")


class TestMultiApp:
    def _app(self, name, rt_class, period=None, priority=10):
        source = """
        int main() { int i; int s = 0;
          for (i = 0; i < 32; i++) { s += i; } return s; }
        """
        return ApplicationSpec(name, program=parse(source),
                               rt_class=rt_class, period=period,
                               priority=priority)

    def test_hard_apps_admitted_with_capacity(self):
        platform = PlatformSpec.symmetric(2)
        graph = diamond(costs=(1, 2, 2, 1))
        apps = [(self._app("hard1", RTClass.HARD, period=1000.0), graph),
                (self._app("be", RTClass.BEST_EFFORT), diamond())]
        result = map_multi_app(apps, platform)
        assert result.admitted_hard == ["hard1"]
        assert "be" in result.mappings

    def test_overload_rejected(self):
        platform = PlatformSpec.symmetric(1)
        heavy = TaskGraph()
        heavy.add_task("t", cost=100)
        apps = [(self._app("h1", RTClass.HARD, period=150.0), heavy),
                (self._app("h2", RTClass.HARD, period=150.0), heavy)]
        result = map_multi_app(apps, platform)
        assert len(result.admitted_hard) == 1
        assert len(result.rejected_hard) == 1

    def test_non_concurrent_apps_both_admitted(self):
        platform = PlatformSpec.symmetric(1)
        heavy = TaskGraph()
        heavy.add_task("t", cost=100)
        cg = ConcurrencyGraph()
        cg.add_app("h1")
        cg.add_app("h2")  # no edge: never concurrent
        apps = [(self._app("h1", RTClass.HARD, period=150.0), heavy),
                (self._app("h2", RTClass.HARD, period=150.0), heavy)]
        result = map_multi_app(apps, platform, concurrency=cg)
        assert sorted(result.admitted_hard) == ["h1", "h2"]


class TestMvp:
    def test_pipelined_iterations_overlap(self):
        graph = TaskGraph("chain")
        for index in range(3):
            graph.add_task(f"s{index}", cost=10)
        graph.connect("s0", "s1")
        graph.connect("s1", "s2")
        platform = PlatformSpec.symmetric(3, channel_setup_cost=0.0,
                                          channel_word_cost=0.0)
        # Explicit one-stage-per-PE mapping: HEFT would (correctly, for a
        # single iteration) keep a chain on one PE, but MVP's streaming
        # mode is what pays off the spread.
        from repro.maps.mapping import Mapping
        mapping = Mapping(graph, platform,
                          assignment={"s0": "pe0", "s1": "pe1",
                                      "s2": "pe2"})
        report = simulate_mapping(
            [AppRun("app", mapping, iterations=10)], platform)
        # Pipelined: 10 iterations take ~ (10+2)*10, not 10*30.
        assert report.makespan < 10 * 30 * 0.6
        assert report.throughput("app") == pytest.approx(0.1, rel=0.2)

    def test_single_pe_serializes(self):
        graph = TaskGraph()
        graph.add_task("a", cost=10)
        graph.add_task("b", cost=10)
        platform = PlatformSpec.symmetric(1)
        mapping = map_task_graph(graph, platform)
        report = simulate_mapping([AppRun("app", mapping)], platform)
        assert report.makespan >= 20

    def test_multi_app_contention(self):
        graph = TaskGraph()
        graph.add_task("t", cost=50)
        platform = PlatformSpec.symmetric(1)
        mapping = map_task_graph(graph, platform)
        solo = simulate_mapping([AppRun("a", mapping, iterations=4)],
                                platform)
        shared = simulate_mapping(
            [AppRun("a", mapping, iterations=4),
             AppRun("b", mapping, iterations=4)], platform)
        assert shared.makespan > solo.makespan

    def test_periodic_source_and_deadline_misses(self):
        graph = TaskGraph()
        graph.add_task("t", cost=30)
        platform = PlatformSpec.symmetric(1)
        mapping = map_task_graph(graph, platform)
        report = simulate_mapping(
            [AppRun("app", mapping, iterations=5, period=100.0)], platform)
        spans = report.iteration_spans["app"]
        assert spans[1][0] >= 100.0
        assert report.deadline_misses("app", deadline=31.0) == 0
        assert report.deadline_misses("app", deadline=29.0) == 5

    def test_utilization_accounting(self):
        graph = TaskGraph()
        graph.add_task("t", cost=10)
        platform = PlatformSpec.symmetric(2)
        mapping = map_task_graph(graph, platform)
        report = simulate_mapping([AppRun("a", mapping, iterations=10)],
                                  platform)
        busy_pe = mapping.pe_of("t")
        assert report.utilization(busy_pe) == pytest.approx(1.0, rel=0.05)


class TestOsip:
    def test_osip_beats_risc_at_fine_grain(self):
        risc = task_farm_utilization(RiscSchedulerModel(), n_workers=8,
                                     task_cycles=100, n_tasks=400)
        osip = task_farm_utilization(OsipModel(), n_workers=8,
                                     task_cycles=100, n_tasks=400)
        assert osip.utilization > risc.utilization * 2

    def test_coarse_grain_converges(self):
        risc = task_farm_utilization(RiscSchedulerModel(), n_workers=4,
                                     task_cycles=100_000, n_tasks=16)
        osip = task_farm_utilization(OsipModel(), n_workers=4,
                                     task_cycles=100_000, n_tasks=16)
        assert abs(osip.utilization - risc.utilization) < 0.05

    def test_dispatch_serialization_bound(self):
        """With tiny tasks the RISC dispatcher saturates: makespan is at
        least n_tasks * dispatch."""
        scheduler = RiscSchedulerModel()
        result = task_farm_utilization(scheduler, n_workers=16,
                                       task_cycles=10, n_tasks=100)
        assert result.makespan >= 100 * scheduler.dispatch_cycles

    def test_utilization_curve_monotone_in_grain(self):
        curve = utilization_curve(RiscSchedulerModel(), n_workers=8,
                                  grain_sweep=[50, 500, 5000],
                                  total_work=40_000)
        assert curve[50] < curve[500] < curve[5000]

    def test_validation(self):
        with pytest.raises(ValueError):
            task_farm_utilization(OsipModel(), 0, 10, 10)
        with pytest.raises(ValueError):
            OsipModel(dispatch_cycles=0)


# ---------------------------------------------------------------------------
# Annealing trajectory, pinned by digest
# ---------------------------------------------------------------------------

JPEG_SOURCE = """
int pixels[256];
int shifted[256];
int coeff[256];
int quant[256];
int qtable[8];
int main() {
  int i;
  int bits = 0;
  for (i = 0; i < 8; i++) { qtable[i] = 5 + i * 1; }
  for (i = 0; i < 256; i++) { pixels[i] = (i * 83 + 102) % 256; }
  for (i = 0; i < 256; i++) { shifted[i] = pixels[i] - 128; }
  for (i = 0; i < 256; i++) {
    int block = i / 8;
    int k = i % 8;
    coeff[i] = shifted[block * 8 + k] * (8 - k) - shifted[i] / 2;
  }
  for (i = 0; i < 256; i++) { quant[i] = coeff[i] / qtable[i % 8]; }
  for (i = 0; i < 256; i++) { bits += abs(quant[i]) % 16; }
  return bits;
}
"""


def jpeg_expanded_graph(split_k=4):
    """The 27-task graph the MAPS JPEG flow maps and refines."""
    from repro.maps import (
        PartitionResult, partition_data_parallel, partition_function,
    )
    program = parse(JPEG_SOURCE)
    result = partition_function(program)
    expanded = result.task_graph
    for task in result.parallelizable_tasks:
        staged = PartitionResult(expanded, result.clusters,
                                 result.loop_infos,
                                 result.parallelizable_tasks, program,
                                 "main")
        expanded = partition_data_parallel(staged, task, split_k)
    return expanded


def comm_heavy_graph(prefer_dsp=()):
    graph = TaskGraph("commheavy")
    graph.add_task("src", cost=5)
    for index in range(6):
        graph.add_task(f"t{index}", cost=30 + 7 * index,
                       preferred_pe=(PEClass.DSP if index in prefer_dsp
                                     else None))
        graph.connect("src", f"t{index}", words=200)
    graph.add_task("snk", cost=5)
    for index in range(6):
        graph.connect(f"t{index}", "snk", words=200)
    return graph


def terminal_platform():
    platform = PlatformSpec("terminal", channel_setup_cost=5.0,
                            channel_word_cost=0.05)
    platform.add_pe("arm0", PEClass.RISC)
    platform.add_pe("arm1", PEClass.RISC)
    platform.add_pe("dsp0", PEClass.DSP)
    platform.add_pe("dsp1", PEClass.DSP)
    return platform


def _mapping_view(mapping):
    return (list(mapping.assignment.items()), repr(mapping.makespan),
            [(e.task, e.pe, repr(e.start), repr(e.finish))
             for e in mapping.schedule])


def _annealing_trajectories():
    from repro.maps import map_task_graph_annealing, map_task_graph_random
    cases = (
        ("jpeg", jpeg_expanded_graph(), terminal_platform()),
        ("comm-heavy", comm_heavy_graph(),
         PlatformSpec.symmetric(4, channel_setup_cost=5.0,
                                channel_word_cost=0.1)),
        ("comm-heavy/dsp", comm_heavy_graph(prefer_dsp=(0, 2, 3)),
         terminal_platform()),
    )
    out = []
    for label, graph, platform in cases:
        heft = map_task_graph(graph, platform)
        for seed in (1, 97):
            for initial in (dict(heft.assignment), None):
                report = map_task_graph_annealing(
                    graph, platform, iterations=400, seed=seed,
                    initial=initial)
                out.append((label, seed, initial is None,
                            _mapping_view(report.best),
                            repr(report.initial_makespan),
                            report.iterations, report.accepted_moves,
                            report.improved_moves,
                            [repr(cost) for cost in report.history]))
            rand = map_task_graph_random(graph, platform, tries=50,
                                         seed=seed)
            out.append((label, seed, "random", _mapping_view(rand)))
    return out


def test_annealing_trajectory_is_pinned():
    """Best assignment (with its key order), schedule, makespan, history
    and move counts of seeded annealing and random-mapping runs on the
    expanded JPEG graph and the A5 comm-heavy graph are pinned by
    digest: a schedule-model change that alters one addition, one rng
    draw or one acceptance changes it."""
    trajectories = _annealing_trajectories()
    digest = hashlib.sha256(repr(trajectories).encode()).hexdigest()
    assert len(trajectories) == 18
    assert digest == ("ad5c949e07434ada47265688b30b4db3"
                      "cbf79ceb449e0f491fd29be0e01228d9")


class TestAnnealingInputs:
    def test_empty_graph_anneals_to_empty_mapping(self):
        from repro.maps import map_task_graph_annealing
        graph = TaskGraph("empty")
        platform = PlatformSpec.symmetric(2)
        assert map_task_graph(graph, platform).makespan == 0.0
        report = map_task_graph_annealing(graph, platform, iterations=50,
                                          seed=3)
        assert report.best.makespan == 0.0
        assert report.best.assignment == {} and report.best.schedule == []
        assert report.initial_makespan == 0.0
        assert (report.accepted_moves, report.improved_moves) == (0, 0)
        assert report.history == []

    @pytest.mark.parametrize("assignment, task", [
        ({"src": "pe0", "left": "pe1", "right": "pe0"}, "sink"),
        ({"src": "pe0", "left": "pe1", "right": "pe0", "sink": "pe1",
          "ghost": "pe0"}, "ghost"),
    ])
    def test_bad_assignment_names_the_task(self, assignment, task):
        from repro.maps import evaluate_assignment, map_task_graph_annealing
        graph = diamond()
        platform = PlatformSpec.symmetric(2)
        with pytest.raises(KeyError, match=f"task {task!r}"):
            evaluate_assignment(graph, platform, assignment)
        with pytest.raises(KeyError, match=f"task {task!r}"):
            map_task_graph_annealing(graph, platform, iterations=10,
                                     initial=assignment)

    def test_unknown_pe_still_named(self):
        from repro.maps import evaluate_assignment
        with pytest.raises(KeyError, match="unknown PE 'nope'"):
            evaluate_assignment(diamond(), PlatformSpec.symmetric(2),
                                {"src": "nope", "left": "pe0",
                                 "right": "pe0", "sink": "pe0"})

    def test_random_mapper_rejects_zero_tries_and_no_pes(self):
        from repro.maps import map_task_graph_random
        with pytest.raises(ValueError, match="tries must be >= 1"):
            map_task_graph_random(diamond(), PlatformSpec.symmetric(2),
                                  tries=0)
        with pytest.raises(ValueError, match="no PEs"):
            map_task_graph_random(diamond(), PlatformSpec("bare"))
