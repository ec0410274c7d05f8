"""Tests for the deterministic parallel campaign engine (`repro.farm`).

Covers the job model (durable function references, canonical JSON, cache
keys), the content-addressed result cache, and the campaign engine's
guarantees: ordered byte-identical aggregation across worker counts,
structured failure records for errors/timeouts/crashes, retry
accounting, crash blame isolation, and the farm.* telemetry streams.
"""

import json
import os
import time

import pytest

from repro.core.serde import canonical_json, json_roundtrip
from repro.farm import (
    FAILURE_CRASH, FAILURE_ERROR, FAILURE_TIMEOUT, Campaign, Executor,
    Job, ResultCache, func_ref, job_key, resolve_ref, source_salt,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceSink


def sweep(fn, specs, executor=None, name="campaign"):
    """Run one campaign over ``(config, seed)`` specs via the build API."""
    campaign = Campaign.build(name, executor=executor)
    campaign.extend(fn, specs)
    return campaign.run()


# ---------------------------------------------------------------------------
# Module-level job functions (farm jobs must be importable by name).
# ---------------------------------------------------------------------------

def job_square(config, seed):
    return {"value": config["x"] * config["x"] + seed}


def job_tuple(config, seed):
    return {"pair": (config["x"], seed), "keys": {1: "one"}}


def job_fail_odd(config, seed):
    if seed % 2 == 1:
        raise ValueError(f"odd seed {seed}")
    return {"seed": seed}


def job_die(config, seed):
    os._exit(13)


def job_sleep(config, seed):
    time.sleep(config["seconds"])
    return {"slept": config["seconds"]}


def job_unserializable(config, seed):
    return {"oops": object()}


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------

class TestJobModel:
    def test_canonical_json_is_byte_stable(self):
        a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 2, "x": 1}})
        b = canonical_json({"c": {"x": 1, "y": 2}, "a": [1, 2], "b": 1})
        assert a == b
        assert " " not in a

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_json_roundtrip_normalizes_tuples_and_keys(self):
        value = json_roundtrip({"pair": (1, 2), "keys": {1: "one"}})
        assert value == {"pair": [1, 2], "keys": {"1": "one"}}

    def test_func_ref_and_resolve_roundtrip(self):
        ref = func_ref(job_square)
        assert ref.endswith(":job_square")
        assert resolve_ref(ref) is job_square

    def test_resolve_ref_rejects_closures_and_lambdas(self):
        def local(config, seed):
            return None
        with pytest.raises(ValueError, match="closure or lambda"):
            resolve_ref(func_ref(local))
        with pytest.raises(ValueError, match="closure or lambda"):
            resolve_ref(func_ref(lambda c, s: None))
        with pytest.raises(ValueError, match="malformed"):
            resolve_ref("no_colon_here")

    def test_job_key_sensitive_to_every_component(self):
        base = job_key("m:f", {"x": 1}, 0, "s")
        assert job_key("m:f", {"x": 1}, 0, "s") == base
        assert job_key("m:g", {"x": 1}, 0, "s") != base
        assert job_key("m:f", {"x": 2}, 0, "s") != base
        assert job_key("m:f", {"x": 1}, 1, "s") != base
        assert job_key("m:f", {"x": 1}, 0, "t") != base

    def test_source_salt_tracks_the_function_body(self):
        assert source_salt(job_square) == source_salt(job_square)
        assert source_salt(job_square) != source_salt(job_fail_odd)
        assert len(source_salt(job_square)) == 16

    def test_build_validates_config_and_defaults_name(self):
        job = Job.build(job_square, config={"x": 3}, seed=7)
        assert job.name == "job_square[7]"
        assert job.ref.endswith(":job_square")
        with pytest.raises(TypeError):
            Job.build(job_square, config={"x": object()})


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_store_lookup_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = job_key("m:f", {"x": 1}, 0)
        assert cache.lookup(key) == (False, None)
        cache.store(key, {"value": 9}, meta={"fn": "m:f"})
        hit, result = cache.lookup(key)
        assert hit and result == {"value": 9}
        assert key in cache and len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = job_key("m:f", {"x": 1}, 0)
        cache.store(key, {"value": 9})
        [path] = [os.path.join(root, name)
                  for root, _, names in os.walk(tmp_path) for name in names]
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.lookup(key) == (False, None)

    def test_rejects_malformed_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(ValueError):
            cache.store("../escape", {})
        with pytest.raises(ValueError):
            cache.lookup("zz")

    def test_entries_are_canonical_json_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = job_key("m:f", {"x": 1}, 5)
        cache.store(key, {"b": 1, "a": 2}, meta={"seed": 5})
        [path] = [os.path.join(root, name)
                  for root, _, names in os.walk(tmp_path) for name in names]
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["key"] == key
        assert payload["result"] == {"a": 2, "b": 1}
        assert payload["job"]["seed"] == 5


# ---------------------------------------------------------------------------
# Campaign: in-process reference path
# ---------------------------------------------------------------------------

class TestCampaignInline:
    def test_ordered_results(self):
        result = sweep(job_square, [({"x": x}, 0) for x in range(5)])
        assert result.ok
        assert result.results == [{"value": x * x} for x in range(5)]
        assert result.executed == 5 and result.cached == 0

    def test_results_are_json_normalized(self):
        result = sweep(job_tuple, [({"x": 1}, 0)])
        assert result.results == [{"pair": [1, 0], "keys": {"1": "one"}}]

    def test_failure_occupies_its_slot(self):
        result = sweep(job_fail_odd, [(None, seed) for seed in range(4)])
        assert not result.ok
        assert result.results == [{"seed": 0}, None, {"seed": 2}, None]
        kinds = {f.seed: f.kind for f in result.failures}
        assert kinds == {1: FAILURE_ERROR, 3: FAILURE_ERROR}
        assert all("odd seed" in f.message for f in result.failures)
        with pytest.raises(RuntimeError, match="2 job"):
            result.raise_on_failure()

    def test_unserializable_result_fails_loudly(self):
        result = sweep(job_unserializable, [(None, 0)])
        [failure] = result.failures
        assert failure.kind == FAILURE_ERROR
        assert "TypeError" in failure.message

    def test_inline_accepts_closures(self):
        def local(config, seed):
            return {"v": seed}
        result = sweep(local, [(None, 3)])
        assert result.results == [{"v": 3}]

    def test_cache_warm_rerun_executes_zero_jobs(self, tmp_path):
        executor = Executor(jobs=1, cache=str(tmp_path))
        specs = [({"x": x}, 0) for x in range(4)]
        cold = sweep(job_square, specs, executor=executor)
        warm = sweep(job_square, specs, executor=executor)
        assert cold.executed == 4 and cold.cached == 0
        assert warm.executed == 0 and warm.cached == 4
        assert warm.aggregate_json() == cold.aggregate_json()

    def test_executor_salt_invalidates_cache(self, tmp_path):
        specs = [({"x": 2}, 0)]
        sweep(job_square, specs,
              executor=Executor(cache=str(tmp_path)))
        salted = sweep(
            job_square, specs,
            executor=Executor(cache=str(tmp_path), salt="v2"))
        assert salted.executed == 1  # different salt, no hit

    def test_metrics_and_sink_telemetry(self):
        metrics = MetricsRegistry()
        sink = TraceSink()
        executor = Executor(metrics=metrics, sink=sink)
        sweep(job_fail_odd, [(None, 0), (None, 1)],
              executor=executor, name="telemetry")
        assert metrics.counter("farm.jobs.submitted").value == 2
        assert metrics.counter("farm.jobs.executed").value == 1
        assert metrics.counter("farm.jobs.failed").value == 1
        assert metrics.counter("farm.failures.error").value == 1
        names = [record.name for record in sink.records]
        assert "farm.job" in names
        assert "farm.progress" in names
        assert "farm.campaign" in names

    def test_executor_validation(self):
        with pytest.raises(ValueError):
            Executor(jobs=0)
        with pytest.raises(ValueError):
            Executor(retries=-1)
        with pytest.raises(ValueError):
            Executor(timeout=0)

    def test_stats_shape(self):
        stats = sweep(job_square, [({"x": 1}, 0)]).stats()
        assert stats["jobs"] == 1 and stats["executed"] == 1
        assert stats["failed"] == 0 and stats["workers"] == 1
        assert stats["wall_seconds"] >= 0


# ---------------------------------------------------------------------------
# Campaign: multi-process path
# ---------------------------------------------------------------------------

class TestCampaignPool:
    def test_parallel_aggregate_is_byte_identical_to_serial(self):
        specs = [({"x": x}, x) for x in range(8)]
        serial = sweep(job_square, specs)
        parallel = sweep(job_square, specs, executor=Executor(jobs=3))
        assert parallel.aggregate_json() == serial.aggregate_json()
        assert parallel.workers == 3

    def test_pool_shares_the_cache(self, tmp_path):
        specs = [({"x": x}, 0) for x in range(4)]
        cold = sweep(job_square, specs,
                     executor=Executor(jobs=2, cache=str(tmp_path)))
        warm = sweep(job_square, specs,
                     executor=Executor(jobs=2, cache=str(tmp_path)))
        assert cold.executed == 4
        assert warm.executed == 0 and warm.cached == 4
        assert warm.aggregate_json() == cold.aggregate_json()

    def test_closures_rejected_at_submission(self):
        def local(config, seed):
            return None
        campaign = Campaign("x", executor=Executor(jobs=2))
        with pytest.raises(ValueError, match="closure or lambda"):
            campaign.add(local)

    def test_worker_error_retries_then_records_failure(self):
        metrics = MetricsRegistry()
        result = sweep(
            job_fail_odd, [(None, 0), (None, 1)],
            executor=Executor(jobs=2, retries=1, metrics=metrics))
        assert result.results[0] == {"seed": 0}
        [failure] = result.failures
        assert failure.kind == FAILURE_ERROR and failure.attempts == 2
        assert "ValueError" in failure.message
        assert metrics.counter("farm.jobs.retried").value == 1

    def test_crash_is_contained_and_attributed(self):
        campaign = Campaign("crashy", executor=Executor(jobs=2, retries=1))
        for x in range(3):
            campaign.add(job_square, config={"x": x}, seed=0)
        campaign.add(job_die, config=None, seed=0)
        result = campaign.run()
        assert result.results[:3] == [{"value": x * x} for x in range(3)]
        [failure] = result.failures
        assert failure.kind == FAILURE_CRASH and failure.attempts == 2
        assert failure.ref.endswith(":job_die")

    def test_crash_blame_never_starves_innocent_siblings(self):
        # With retries=0 a single misattributed crash would fail an
        # innocent job; the isolation re-run must protect them all.
        campaign = Campaign("blame", executor=Executor(jobs=3, retries=0))
        campaign.add(job_die, config=None, seed=0)
        for x in range(4):
            campaign.add(job_square, config={"x": x}, seed=0)
        result = campaign.run()
        assert [f.ref.rsplit(":", 1)[1] for f in result.failures] \
            == ["job_die"]
        assert result.results[1:] == [{"value": x * x} for x in range(4)]

    def test_timeout_records_structured_failure(self):
        metrics = MetricsRegistry()
        result = sweep(
            job_sleep, [({"seconds": 30.0}, 0), ({"seconds": 0.0}, 1)],
            executor=Executor(jobs=2, timeout=1.0, retries=0,
                              metrics=metrics))
        assert result.results[1] == {"slept": 0.0}
        [failure] = result.failures
        assert failure.kind == FAILURE_TIMEOUT and failure.attempts == 1
        assert "1s timeout" in failure.message
        assert metrics.counter("farm.timeouts").value >= 1

    def test_extend_and_campaign_factory(self):
        campaign = Executor(jobs=1).campaign("named")
        jobs = campaign.extend(job_square, [({"x": 1}, 0), ({"x": 2}, 1)])
        assert [job.seed for job in jobs] == [0, 1]
        result = campaign.run()
        assert result.name == "named"
        assert result.results == [{"value": 1}, {"value": 5}]
