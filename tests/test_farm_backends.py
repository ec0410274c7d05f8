"""Tests for the pluggable executor backends (`repro.farm.backends`)
and composable cache tiers (`repro.farm.cache`).

The contract under test: any backend (inline oracle, fork pool,
persistent daemons) under any shard schedule and any cache tier stack
produces an aggregate byte-identical to the ``jobs=1`` in-process
reference -- cold and warm -- while daemons additionally keep worker
state warm across campaigns, attribute crashes exactly, and kill
timed-out jobs without collateral.
"""

import multiprocessing
import os
import time

import pytest

from repro.core.serde import ReproDeprecationWarning
from repro.farm import (
    FAILURE_CRASH, FAILURE_TIMEOUT, Campaign, Executor, ForkPoolBackend,
    ResultCache, SharedDirectoryCache, TieredCache, as_cache_tier,
    fork_available, job_key, make_backend, require_fork, resolve_executor,
    run_campaign, shutdown_daemons,
)
from repro.farm.backends.base import STATUS_SUSPECT
from repro.farm.backends.daemon import warm_worker_pids
from repro.farm.backends.shards import (
    JobPlanner, ShardedPlanner, make_planner,
)
from repro.farm.job import Job, JobOutcome
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
    flag = config["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write("crashed")
        os._exit(23)
    return {"survived": seed}


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
              .flip_ram(addr=16 + seed % 8, bit=seed % 5, at=40.0 + seed)
              .to_dict()}, seed) for seed in range(n)]


def _outcomes(n):
    return [JobOutcome(i, Job.build(job_cube, config={"x": i}, seed=i),
                       job_key("m:f", {"x": i}, i)) for i in range(n)]


def sweep(fn, specs, name="campaign", **policy):
    campaign = Campaign.build(name, **policy)
    campaign.extend(fn, specs)
    return campaign.run()


needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform cannot fork workers")


# ---------------------------------------------------------------------------
# Cache tiers
# ---------------------------------------------------------------------------

class TestCacheTiers:
    def test_as_cache_tier_coercions(self, tmp_path):
        assert as_cache_tier(None) is None
        local = ResultCache(str(tmp_path / "a"))
        assert as_cache_tier(local) is local
        assert isinstance(as_cache_tier(str(tmp_path / "b")), ResultCache)
        tiered = as_cache_tier([str(tmp_path / "c"), str(tmp_path / "d")])
        assert isinstance(tiered, TieredCache)
        with pytest.raises(TypeError):
            as_cache_tier(42)

    def test_read_through_promotes_into_earlier_tiers(self, tmp_path):
        local = ResultCache(str(tmp_path / "local"))
        shared = ResultCache(str(tmp_path / "shared"))
        key = job_key("m:f", {"x": 1}, 0)
        shared.store(key, {"value": 7})
        tiered = TieredCache([local, shared])
        assert local.lookup(key) == (False, None)
        assert tiered.lookup(key) == (True, {"value": 7})
        # the shared hit was written back into the local tier
        assert local.lookup(key) == (True, {"value": 7})

    def test_store_writes_through_every_tier(self, tmp_path):
        local = ResultCache(str(tmp_path / "local"))
        shared = ResultCache(str(tmp_path / "shared"))
        key = job_key("m:f", {"x": 2}, 0)
        TieredCache([local, shared]).store(key, {"value": 9})
        assert local.lookup(key) == (True, {"value": 9})
        assert shared.lookup(key) == (True, {"value": 9})

    def test_corrupt_local_entry_falls_through_to_shared(self, tmp_path):
        local = ResultCache(str(tmp_path / "local"))
        shared = ResultCache(str(tmp_path / "shared"))
        key = job_key("m:f", {"x": 3}, 0)
        local.store(key, {"value": 1})
        shared.store(key, {"value": 1})
        [path] = [os.path.join(root, name) for root, _, names
                  in os.walk(tmp_path / "local") for name in names]
        with open(path, "w") as handle:
            handle.write("{not json")
        assert TieredCache([local, shared]).lookup(key) \
            == (True, {"value": 1})

    def test_manifests_store_to_all_and_load_from_first_intact(
            self, tmp_path):
        local = ResultCache(str(tmp_path / "local"))
        shared = ResultCache(str(tmp_path / "shared"))
        tiered = TieredCache([local, shared])
        tiered.store_manifest("sweep", {"salt": "", "jobs": []})
        assert local.load_manifest("sweep")["jobs"] == []
        assert shared.load_manifest("sweep")["jobs"] == []
        assert "sweep" in list(tiered.manifests())
        with pytest.raises(KeyError):
            tiered.load_manifest("nope")

    def test_shared_tier_is_best_effort(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        # the cache root cannot be created: degrade to read-only misses
        # instead of failing the campaign
        cache = SharedDirectoryCache(str(blocker / "cache"))
        assert cache.read_only
        key = job_key("m:f", {"x": 1}, 0)
        assert cache.store(key, {"value": 1}) is None
        assert cache.lookup(key) == (False, None)
        assert cache.store_manifest("sweep", {"salt": "", "jobs": []}) \
            is None

    def test_campaign_runs_through_a_tier_stack(self, tmp_path):
        local, shared = str(tmp_path / "local"), str(tmp_path / "shared")
        cold = sweep(job_cube, [({"x": x}, 0) for x in range(4)],
                     cache=[local, shared])
        # wipe the local tier: the shared tier alone must warm the rerun
        warm = sweep(job_cube, [({"x": x}, 0) for x in range(4)],
                     cache=[str(tmp_path / "fresh-local"), shared])
        assert cold.executed == 4
        assert warm.executed == 0 and warm.cached == 4
        assert warm.aggregate_json() == cold.aggregate_json()


# ---------------------------------------------------------------------------
# Shard planners
# ---------------------------------------------------------------------------

class TestShardPlanner:
    def test_contiguous_chunking(self):
        planner = ShardedPlanner(_outcomes(7), shards=3, width=3)
        sizes = [len(shard) for shard in planner.shards]
        assert sizes == [3, 2, 2]
        assert [o.index for o in planner.shards[0]] == [0, 1, 2]
        assert [o.index for o in planner.shards[2]] == [5, 6]

    def test_home_slot_drains_in_submission_order(self):
        planner = ShardedPlanner(_outcomes(4), shards=2, width=2)
        assert planner.take(0).index == 0
        assert planner.take(1).index == 2
        assert planner.take(0).index == 1
        assert planner.take(1).index == 3
        assert planner.take(0) is None

    def test_dry_home_steals_from_most_loaded_tail(self):
        planner = ShardedPlanner(_outcomes(6), shards=2, width=2)
        # drain shard 1 (indices 3..5) so slot 1 must steal from shard 0
        assert [planner.take(1).index for _ in range(3)] == [3, 4, 5]
        stolen = planner.take(1)
        assert stolen.index == 2  # tail of shard 0, not its head
        assert planner.stats() == {"shards": 2, "steals": 1}
        assert planner.take(0).index == 0  # home order undisturbed

    def test_static_partition_never_steals(self):
        planner = ShardedPlanner(_outcomes(4), shards=2, width=2,
                                 steal=False)
        assert [planner.take(1).index for _ in range(2)] == [2, 3]
        assert planner.take(1) is None
        assert planner.remaining == 2
        assert planner.stats()["steals"] == 0

    def test_requeue_returns_to_home_shard(self):
        planner = ShardedPlanner(_outcomes(4), shards=2, width=2)
        outcome = planner.take(1)
        assert outcome.index == 2
        planner.requeue(outcome)
        assert [o.index for o in planner.shards[1]] == [3, 2]

    def test_shard_bounds_are_validated(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedPlanner(_outcomes(4), shards=0, width=2)
        with pytest.raises(ValueError, match="exceeds worker width"):
            ShardedPlanner(_outcomes(4), shards=3, width=2)

    def test_make_planner_defaults_to_fifo(self):
        assert type(make_planner(_outcomes(3), width=2, shards=None)) \
            is JobPlanner
        assert type(make_planner(_outcomes(3), width=2, shards=1)) \
            is JobPlanner
        assert type(make_planner(_outcomes(3), width=2, shards=2)) \
            is ShardedPlanner


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

    def test_cache_override_clears_legacy_cache_dir(self, tmp_path):
        base = Executor(cache_dir=str(tmp_path / "old"))
        merged = resolve_executor(base, cache=str(tmp_path / "new"))
        assert merged.cache_dir is None
        assert merged.cache == str(tmp_path / "new")

    def test_auto_backend_resolution(self):
        assert Executor(jobs=1).resolved_backend() == "inline"
        assert Executor(jobs=4).resolved_backend() == "fork"
        assert Executor(jobs=4, backend="daemon").resolved_backend() \
            == "daemon"
        assert Executor(jobs=4).width() == 4
        assert Executor(jobs=4, backend="inline").width() == 1

    def test_executor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="unknown backend"):
            Executor(backend="threads")
        with pytest.raises(ValueError, match="shards"):
            Executor(shards=0)
        with pytest.raises(ValueError, match="not both"):
            Executor(cache=str(tmp_path / "a"),
                     cache_dir=str(tmp_path / "b"))

    def test_make_backend_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_backend("threads", 2)

    def test_capability_records(self):
        inline = make_backend("inline", 1)
        assert inline.capabilities.in_process
        assert not inline.capabilities.warm_state
        fork = make_backend("fork", 2)
        try:
            assert fork.capabilities.kind == "fork"
            assert not fork.capabilities.timeout_kill
        finally:
            fork.teardown()


# ---------------------------------------------------------------------------
# Deprecated delegates
# ---------------------------------------------------------------------------

class TestDeprecatedDelegates:
    def test_run_campaign_warns_and_still_works(self):
        with pytest.warns(ReproDeprecationWarning, match="run_campaign"):
            result = run_campaign(job_cube, [({"x": 2}, 1)])
        assert result.results == [{"value": 9}]

    def test_from_manifest_warns_and_still_works(self, tmp_path):
        sweep(job_cube, [({"x": 2}, 0)], name="sweep",
              cache=str(tmp_path))
        with pytest.warns(ReproDeprecationWarning, match="from_manifest"):
            rebuilt = Campaign.from_manifest(str(tmp_path), "sweep")
        assert rebuilt.run().cached == 1


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
        # a fresh fork pool re-forks from the (untouched) parent, so its
        # first-executed job is always cold, even after daemon campaigns
        forked = sweep(job_warm_probe, [(None, 2)], jobs=2)
        assert forked.results == [{"warm": False}]

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
# Fork backend: a pool that broke between drains
# ---------------------------------------------------------------------------

def _fork_pool_refusing_submit():
    """A width-2 fork pool whose worker died (``job_die``, tag 0) before
    the engine's next drain, then asked to start ``job_cube`` (tag 1):
    the pool refuses that submission with ``BrokenProcessPool``."""
    backend = ForkPoolBackend(2)
    backend.submit(0, Job.build(job_die))
    deadline = time.monotonic() + 30.0
    while not backend._pool._broken:
        assert time.monotonic() < deadline, "worker never died"
        time.sleep(0.01)
    backend.submit(1, Job.build(job_cube, config={"x": 3}))
    return backend


@needs_fork
class TestForkPoolBreakBetweenDrains:
    def test_refused_submit_is_blamed_at_next_drain(self):
        backend = _fork_pool_refusing_submit()
        try:
            completions = []
            deadline = time.monotonic() + 30.0
            while len(completions) < 2:
                assert time.monotonic() < deadline, completions
                completions += backend.drain(1.0)
            # Both tags take the pool-break blame path: the engine
            # refunds them and re-runs each alone, where the crash is
            # attributable.
            assert sorted((c.tag, c.status) for c in completions) == \
                [(0, STATUS_SUSPECT), (1, STATUS_SUSPECT)]
            assert backend.drain(0.1) == []
        finally:
            backend.teardown()

    def test_refused_submit_is_collateral_of_a_cancel(self):
        backend = _fork_pool_refusing_submit()
        try:
            assert backend.cancel([0]) == [1]
            assert backend.drain(0.1) == []
        finally:
            backend.teardown()


# ---------------------------------------------------------------------------
# Byte-identity matrix: every backend/shard/cache combination must
# reproduce the inline jobs=1 aggregate bit-for-bit, cold and warm.
# ---------------------------------------------------------------------------

MATRIX = [
    {"jobs": 2, "backend": "fork"},
    {"jobs": 2, "backend": "daemon"},
    {"jobs": 2, "backend": "daemon", "shards": 2},
    {"jobs": 2, "backend": "fork", "shards": 2, "steal": False},
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
        daemon = explore_architectures(
            _explore_app, smp_candidates(2), iterations=6,
            jobs=2, backend="daemon", cache=str(tmp_path))
        sharded = explore_architectures(
            _explore_app, smp_candidates(2), iterations=6,
            jobs=2, shards=2)
        assert daemon.to_json() == serial.to_json()
        assert sharded.to_json() == serial.to_json()

    def test_fuzz_campaign_across_backends(self):
        from repro.gen import run_fuzz_campaign
        serial = run_fuzz_campaign(4, kinds=("expr",))
        daemon = run_fuzz_campaign(4, kinds=("expr",), jobs=2,
                                   backend="daemon")
        sharded = run_fuzz_campaign(4, kinds=("expr",), jobs=2, shards=2)
        assert serial["divergences"] == 0
        assert daemon["aggregate_sha"] == serial["aggregate_sha"]
        assert sharded["aggregate_sha"] == serial["aggregate_sha"]

    def test_daemon_resume_after_interruption_is_byte_identical(
            self, tmp_path):
        # Simulate a campaign interrupted mid-sweep: the manifest is
        # persisted, only half the shards completed.  Resuming on the
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
