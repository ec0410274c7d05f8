"""Determinism suite for farm campaigns (ISSUE 5 acceptance tests).

Two real workloads -- an E13-style architecture-exploration sweep and a
seeded SoC fault campaign -- must produce **byte-identical** aggregates
whether they run in-process (``jobs=1``) or sharded over a 4-worker
process pool, and a cache-warm re-run must execute **zero** jobs while
still reproducing the same bytes.
"""

import pytest

from repro.farm import Executor
from repro.faults import FaultPlan, run_fault_campaign
from repro.hopes import (
    CICApplication, CICTask, cell_candidates, explore_architectures,
    smp_candidates,
)
from repro.obs.metrics import MetricsRegistry
from repro.vp.soc import SoC, SoCConfig

WORKERS = 4


# ---------------------------------------------------------------------------
# Workload 1: E13-style architecture exploration
# ---------------------------------------------------------------------------

def exploration_app():
    """A small 3-stage CIC stream app (module-level: farm jobs must be
    able to import the factory by name inside worker processes)."""
    app = CICApplication("det-stream")
    app.add_task(CICTask("gen", """
        int n;
        int task_go() { write_port(0, n % 11); n += 1; return 0; }
        """, out_ports=["o"], data_words=16))
    app.add_task(CICTask("fir", """
        int task_go() {
          int v; int i; int s;
          v = read_port(0);
          s = v;
          for (i = 0; i < 12; i++) { s = (s * 3 + i) % 97; }
          write_port(0, s);
          return 0;
        }
        """, in_ports=["i"], out_ports=["o"], data_words=32))
    app.add_task(CICTask("sink", """
        int task_go() { emit(read_port(0)); return 0; }
        """, in_ports=["i"], data_words=8))
    app.connect("gen", "o", "fir", "i")
    app.connect("fir", "o", "sink", "i")
    return app


def _candidates():
    return smp_candidates(2) + cell_candidates(2)


class TestExplorationDeterminism:
    def test_four_workers_byte_identical_to_serial(self, tmp_path):
        serial = explore_architectures(exploration_app, _candidates(),
                                       iterations=8)
        farmed = explore_architectures(
            exploration_app, _candidates(), iterations=8,
            executor=Executor(jobs=WORKERS, cache=str(tmp_path)))
        assert farmed.to_json() == serial.to_json()
        assert farmed.pareto and farmed.points

    def test_cache_warm_rerun_executes_zero_jobs(self, tmp_path):
        cold_metrics, warm_metrics = MetricsRegistry(), MetricsRegistry()
        cold = explore_architectures(
            exploration_app, _candidates(), iterations=8,
            executor=Executor(jobs=WORKERS, cache=str(tmp_path),
                              metrics=cold_metrics))
        warm = explore_architectures(
            exploration_app, _candidates(), iterations=8,
            executor=Executor(jobs=1, cache=str(tmp_path),
                              metrics=warm_metrics))
        assert cold_metrics.counter("farm.jobs.executed").value \
            == len(_candidates())
        assert warm_metrics.counter("farm.jobs.executed").value == 0
        assert warm_metrics.counter("farm.jobs.cached").value \
            == len(_candidates())
        assert warm.to_json() == cold.to_json()


# ---------------------------------------------------------------------------
# Workload 2: seeded SoC fault campaign
# ---------------------------------------------------------------------------

FIRMWARE = """
    li r1, 16
    li r2, 1
    li r3, 24
loop:
    sw r2, 0(r1)
    addi r2, r2, 3
    addi r1, r1, 1
    blt r1, r3, loop
    halt
"""


def fault_scenario(config, seed):
    """One seeded fault-plan run on a 2-core SoC, summarized as JSON.

    Pure function of (config, seed): the platform is deterministic and
    the fault plan arrives fully serialized in the config.
    """
    soc = SoC(SoCConfig(n_cores=2, ram_words=64),
              {0: FIRMWARE, 1: FIRMWARE})
    handle = soc.instrument(faults=config["plan"])
    soc.run(until=2000.0)
    return {
        "seed": seed,
        "mem": [soc.mem(addr) for addr in range(16, 24)],
        "instrs": [core.instr_count for core in soc.cores],
        "injected": len(handle.injector.injected),
        "halted": soc.all_halted,
    }


def _plans():
    plans = []
    for seed in range(5):
        plan = FaultPlan(seed=seed).flip_ram_bit(addr=16 + seed, bit=seed,
                                                 at=50.0 + seed)
        if seed % 2:
            plan.flip_register(core=seed % 2, reg=2, bit=1, at=10.0)
        plans.append(plan)
    return plans


class TestFaultCampaignDeterminism:
    def test_four_workers_byte_identical_to_serial(self):
        serial = run_fault_campaign(fault_scenario, _plans())
        farmed = run_fault_campaign(fault_scenario, _plans(),
                                    executor=Executor(jobs=WORKERS))
        serial.raise_on_failure()
        assert farmed.aggregate_json() == serial.aggregate_json()
        assert all(row["injected"] >= 1 for row in serial.results)
        assert all(row["halted"] for row in serial.results)

    def test_cache_warm_rerun_executes_zero_jobs(self, tmp_path):
        executor = Executor(jobs=WORKERS, cache=str(tmp_path))
        cold = run_fault_campaign(fault_scenario, _plans(),
                                  executor=executor)
        warm = run_fault_campaign(fault_scenario, _plans(),
                                  executor=executor)
        assert cold.executed == len(_plans()) and cold.cached == 0
        assert warm.executed == 0 and warm.cached == len(_plans())
        assert warm.aggregate_json() == cold.aggregate_json()

    def test_faults_change_the_outcome(self):
        """Sanity: the campaign is actually injecting -- a faultless run
        differs from the faulted ones."""
        clean = fault_scenario({"plan": FaultPlan(seed=0).to_dict()}, 0)
        faulted = run_fault_campaign(fault_scenario, _plans()) \
            .raise_on_failure().results
        assert any(row["mem"] != clean["mem"] for row in faulted)


# ---------------------------------------------------------------------------
# Seeded multi-restart annealing rides the same contract
# ---------------------------------------------------------------------------

def test_annealing_restarts_identical_across_worker_counts(tmp_path):
    from repro.maps.annealing import map_task_graph_annealing_restarts
    from repro.maps.spec import PEClass, PlatformSpec
    from repro.maps.taskgraph import TaskGraph

    graph = TaskGraph("det")
    for name, cost in [("a", 4.0), ("b", 6.0), ("c", 3.0), ("d", 5.0)]:
        graph.add_task(name, cost)
    graph.connect("a", "b", words=8)
    graph.connect("a", "c", words=4)
    graph.connect("b", "d", words=8)
    graph.connect("c", "d", words=4)
    platform = PlatformSpec.symmetric(2, PEClass.RISC)

    serial = map_task_graph_annealing_restarts(graph, platform,
                                               restarts=4, iterations=60)
    farmed = map_task_graph_annealing_restarts(
        graph, platform, restarts=4, iterations=60,
        executor=Executor(jobs=WORKERS, cache=str(tmp_path)))
    assert farmed.runs == serial.runs
    assert farmed.best_seed == serial.best_seed
    assert farmed.best.makespan == serial.best.makespan
    assert farmed.best.assignment == serial.best.assignment
