"""Tests for the executor backends (`repro.farm.backends`) and the
cache coercion (`repro.farm.cache`).

The contract under test: persistent daemons produce an aggregate
byte-identical to the ``jobs=1`` in-process reference -- cold and warm
-- while keeping worker state warm across campaigns, attributing
crashes exactly, and killing timed-out jobs without collateral.
"""

import multiprocessing
import os
import time

import pytest

from repro.farm import (
    FAILURE_CRASH, FAILURE_TIMEOUT, Campaign, Executor, ResultCache,
    as_cache_tier, fork_available, make_backend, require_fork,
    resolve_executor, shutdown_daemons,
)
from repro.farm.backends.daemon import warm_worker_pids
from repro.faults import FaultPlan
from repro.vp.soc import SoC, SoCConfig


@pytest.fixture(scope="module", autouse=True)
def _daemon_cleanup():
    yield
    shutdown_daemons()


# ---------------------------------------------------------------------------
# Module-level job functions (farm jobs must be importable by name).
# ---------------------------------------------------------------------------

def job_cube(config, seed):
    return {"value": config["x"] ** 3 + seed}


def job_die(config, seed):
    os._exit(21)


def job_die_once(config, seed):
    # Crashes the worker on the first attempt only: the flag file
    # records that the crash already happened, so the retry succeeds.
    # Creating it is atomic, so of two jobs racing on two workers only
    # one crashes.
    try:
        os.close(os.open(config["flag"], os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return {"survived": seed}
    os._exit(23)


def job_sleep(config, seed):
    time.sleep(config["seconds"])
    return {"slept": config["seconds"]}


_WARM_MEMO = {}


def job_warm_probe(config, seed):
    # Reports whether this worker process already ran one of these jobs:
    # True only when worker state survived a previous campaign.
    warm = bool(_WARM_MEMO)
    _WARM_MEMO["touched"] = True
    return {"warm": warm}


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


def fault_job(config, seed):
    """One seeded fault-plan run on a 2-core SoC (pure in config/seed)."""
    soc = SoC(SoCConfig(n_cores=2, ram_words=64),
              {0: FIRMWARE, 1: FIRMWARE})
    soc.instrument(faults=config["plan"])
    soc.run(until=2000.0)
    return {"seed": seed,
            "mem": [soc.mem(addr) for addr in range(16, 24)],
            "halted": soc.all_halted}


def _fault_specs(n=6):
    return [({"plan": FaultPlan(seed=seed)
              .flip_ram_bit(addr=16 + seed % 8, bit=seed % 5, at=40.0 + seed)
              .to_dict()}, seed) for seed in range(n)]


def sweep(fn, specs, name="campaign", **policy):
    campaign = Campaign.build(name, **policy)
    campaign.extend(fn, specs)
    return campaign.run()


needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform cannot fork workers")


# ---------------------------------------------------------------------------
# Cache coercion
# ---------------------------------------------------------------------------

class TestCacheCoercion:
    def test_as_cache_tier_coercions(self, tmp_path):
        assert as_cache_tier(None) is None
        local = ResultCache(str(tmp_path / "a"))
        assert as_cache_tier(local) is local
        assert isinstance(as_cache_tier(str(tmp_path / "b")), ResultCache)
        with pytest.raises(TypeError):
            as_cache_tier(42)
        with pytest.raises(TypeError):
            as_cache_tier([str(tmp_path / "c"), str(tmp_path / "d")])


# ---------------------------------------------------------------------------
# Executor policy resolution
# ---------------------------------------------------------------------------

class TestExecutorResolution:
    def test_resolve_executor_returns_none_when_nothing_requested(self):
        assert resolve_executor(None) is None

    def test_keyword_overrides_merge_onto_baseline(self):
        base = Executor(jobs=2, salt="pinned")
        merged = resolve_executor(base, backend="daemon", retries=3)
        assert merged.jobs == 2 and merged.salt == "pinned"
        assert merged.backend == "daemon" and merged.retries == 3
        assert base.backend == "auto"  # baseline untouched

    def test_auto_backend_resolution(self):
        assert Executor(jobs=1).resolved_backend() == "inline"
        assert Executor(jobs=4).resolved_backend() == "daemon"
        assert Executor(jobs=4, backend="daemon").resolved_backend() \
            == "daemon"
        assert Executor(jobs=4).width() == 4
        assert Executor(jobs=4, backend="inline").width() == 1

    def test_executor_validation(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Executor(backend="threads")
        with pytest.raises(ValueError, match="unknown backend"):
            Executor(backend="fork")

    def test_make_backend_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_backend("threads", 2)


# ---------------------------------------------------------------------------
# Spawn-only platforms are rejected up front
# ---------------------------------------------------------------------------

class TestSpawnOnlyRejection:
    def test_require_fork_raises_with_actionable_message(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert not fork_available()
        with pytest.raises(RuntimeError, match="fork"):
            require_fork("the test backend")

    def test_multiprocess_submission_fails_fast(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        campaign = Campaign.build("rejected", jobs=2)
        with pytest.raises(RuntimeError, match="inline"):
            campaign.add(job_cube, config={"x": 1})

    def test_inline_path_still_works_without_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        result = sweep(job_cube, [({"x": 2}, 0)])
        assert result.results == [{"value": 8}]


# ---------------------------------------------------------------------------
# Daemon backend behaviour
# ---------------------------------------------------------------------------

@needs_fork
class TestDaemonBackend:
    def test_workers_stay_warm_across_campaigns(self):
        shutdown_daemons()
        first = warm_worker_pids(2)
        second = warm_worker_pids(2)
        assert len(first) == 2
        assert set(first) == set(second)

    def test_module_state_survives_between_campaigns(self):
        shutdown_daemons()
        cold = sweep(job_warm_probe, [(None, 0)], backend="daemon")
        warm = sweep(job_warm_probe, [(None, 1)], backend="daemon")
        assert cold.results == [{"warm": False}]
        assert warm.results == [{"warm": True}]

    def test_crash_is_attributed_without_suspects(self):
        campaign = Campaign.build("daemon-crash", jobs=2,
                                  backend="daemon", retries=0)
        for x in range(3):
            campaign.add(job_cube, config={"x": x}, seed=0)
        campaign.add(job_die)
        result = campaign.run()
        assert result.results[:3] == [{"value": x ** 3} for x in range(3)]
        [failure] = result.failures
        assert failure.kind == FAILURE_CRASH and failure.attempts == 1
        assert failure.ref.endswith(":job_die")

    def test_worker_death_mid_campaign_restarts_and_completes(
            self, tmp_path):
        # One job kills its daemon worker on the first attempt; the
        # backend restarts the worker, the retry succeeds, and the final
        # aggregate matches the never-crashed inline reference.
        flag = str(tmp_path / "crashed-once")
        specs = [({"flag": flag}, seed) for seed in range(4)]
        crashed = sweep(job_die_once, specs, jobs=2, backend="daemon",
                        retries=1)
        assert crashed.ok
        assert [o.attempts for o in crashed.outcomes].count(2) == 1
        reference = sweep(job_die_once, specs)  # flag exists: no crash
        assert crashed.aggregate_json() == reference.aggregate_json()

    def test_timeout_kills_only_the_offender(self):
        result = sweep(job_sleep,
                       [({"seconds": 30.0}, 0), ({"seconds": 0.0}, 1)],
                       jobs=2, backend="daemon", timeout=1.0, retries=0)
        assert result.results[1] == {"slept": 0.0}
        [failure] = result.failures
        assert failure.kind == FAILURE_TIMEOUT and failure.attempts == 1
        # no collateral: the sibling completed, nothing was requeued
        assert result.outcomes[1].attempts == 1


# ---------------------------------------------------------------------------
# Byte-identity matrix: daemon campaigns must reproduce the inline
# jobs=1 aggregate bit-for-bit, cold and warm.
# ---------------------------------------------------------------------------

MATRIX = [
    {"jobs": 2, "backend": "daemon"},
]


@needs_fork
class TestByteIdentityMatrix:
    @pytest.mark.parametrize("policy", MATRIX,
                             ids=lambda p: "-".join(
                                 f"{k}={v}" for k, v in p.items()))
    def test_fault_campaign_cold_and_warm(self, policy, tmp_path):
        reference = sweep(fault_job, _fault_specs())
        cold = sweep(fault_job, _fault_specs(), cache=str(tmp_path),
                     **policy)
        warm = sweep(fault_job, _fault_specs(), cache=str(tmp_path),
                     **policy)
        assert cold.executed == 6 and cold.ok
        assert warm.executed == 0 and warm.cached == 6
        assert cold.aggregate_json() == reference.aggregate_json()
        assert warm.aggregate_json() == reference.aggregate_json()

    def test_exploration_campaign_across_backends(self, tmp_path):
        from repro.hopes import explore_architectures, smp_candidates

        serial = explore_architectures(_explore_app, smp_candidates(2),
                                       iterations=6)
        cold = explore_architectures(
            _explore_app, smp_candidates(2), iterations=6,
            jobs=2, backend="daemon", cache=str(tmp_path))
        warm = explore_architectures(
            _explore_app, smp_candidates(2), iterations=6,
            jobs=2, backend="daemon", cache=str(tmp_path))
        assert cold.to_json() == serial.to_json()
        assert warm.to_json() == serial.to_json()

    def test_fuzz_campaign_across_backends(self, tmp_path):
        from repro.gen import run_fuzz_campaign
        serial = run_fuzz_campaign(4, kinds=("expr",))
        cold = run_fuzz_campaign(4, kinds=("expr",), jobs=2,
                                 backend="daemon", cache=str(tmp_path))
        warm = run_fuzz_campaign(4, kinds=("expr",), jobs=2,
                                 backend="daemon", cache=str(tmp_path))
        assert serial["divergences"] == 0
        assert cold["aggregate_sha"] == serial["aggregate_sha"]
        assert warm["aggregate_sha"] == serial["aggregate_sha"]

    def test_daemon_resume_after_interruption_is_byte_identical(
            self, tmp_path):
        # Simulate a campaign interrupted mid-sweep: the manifest is
        # persisted, only half the jobs completed.  Resuming on the
        # daemon backend executes exactly the remainder and reproduces
        # the uninterrupted aggregate.
        full = Campaign.build("interrupted", cache=str(tmp_path))
        full.extend(fault_job, _fault_specs(6))
        as_cache_tier(str(tmp_path)).store_manifest("interrupted",
                                                    full.manifest())
        partial = Campaign.build("partial", cache=str(tmp_path))
        partial.extend(fault_job, _fault_specs(3))
        partial.run()

        resumed = Campaign.resume(str(tmp_path), "interrupted",
                                  jobs=2, backend="daemon")
        assert resumed.cached == 3 and resumed.executed == 3
        reference = sweep(fault_job, _fault_specs(6))
        assert resumed.aggregate_json() == reference.aggregate_json()


def _explore_app():
    from repro.hopes import CICApplication, CICTask
    app = CICApplication("backend-stream")
    app.add_task(CICTask("gen", """
        int n;
        int task_go() { write_port(0, n % 7); n += 1; return 0; }
        """, out_ports=["o"], data_words=16))
    app.add_task(CICTask("sink", """
        int task_go() { emit(read_port(0)); return 0; }
        """, in_ports=["i"], data_words=8))
    app.connect("gen", "o", "sink", "i")
    return app
