"""Tests for the executor backends (`repro.farm.backends`) and the
cache coercion (`repro.farm.cache`).

The contract under test: persistent daemons produce an aggregate
byte-identical to the ``jobs=1`` in-process reference -- cold and warm
-- while keeping worker state warm across campaigns, attributing
crashes exactly, and killing timed-out jobs without collateral.  A
worker runs one job and holds one more queued behind it; the queued
job is never blamed, never charged its predecessor's time and never
blocks the parent.  Every config is encoded once, and the texts built
from it are byte-identical to encoding the dict forms afresh.
"""

import hashlib
import json
import multiprocessing
import os
import random
import time

import pytest

from repro.core.serde import canonical_json
from repro.farm import (
    FAILURE_CRASH, FAILURE_ERROR, FAILURE_TIMEOUT, Campaign, DaemonBackend, Executor, Job,
    ResultCache, as_cache_tier, fork_available, job_key, make_backend,
    require_fork, resolve_executor, shutdown_daemons,
)
from repro.farm.backends import STATUS_OK
from repro.farm.backends.daemon import job_frame, warm_worker_pids
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


def job_blob(config, seed):
    blob = config["blob"].encode("utf-8")
    return {"size": len(blob), "x": config["x"],
            "sha": hashlib.sha256(blob).hexdigest()[:16]}


def job_echo(config, seed):
    return {"config": config, "seed": seed}


def job_set(config, seed):
    return {"not json": {seed}}


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

    def test_unencodable_result_is_an_error_not_a_crash(self):
        # The worker's reply encode is the result's JSON check: a result
        # it cannot encode comes back as an error from a live worker.
        result = sweep(job_set, [(None, 0), (None, 1)], jobs=1,
                       backend="daemon", retries=0)
        assert [f.kind for f in result.failures] == [FAILURE_ERROR] * 2
        assert all("TypeError" in f.message for f in result.failures)

    def test_crash_behind_a_prefetched_job_blames_only_the_crasher(self):
        # One worker, so the first cube job is queued in the crasher's
        # socket when it dies: it comes back unspent and runs once.
        campaign = Campaign.build("prefetch-crash", jobs=1,
                                  backend="daemon", retries=0)
        campaign.add(job_die)
        for x in range(3):
            campaign.add(job_cube, config={"x": x}, seed=0)
        result = campaign.run()
        [failure] = result.failures
        assert failure.kind == FAILURE_CRASH and failure.attempts == 1
        assert failure.ref.endswith(":job_die")
        assert result.results[1:] == [{"value": x ** 3} for x in range(3)]
        assert [o.attempts for o in result.outcomes[1:]] == [1, 1, 1]

    def test_timeout_is_charged_from_the_start_of_the_job(self):
        # Three jobs on one worker: the second is prefetched behind the
        # first (more jobs wait than there are workers), so it would
        # time out at 1.2 s if its clock started at submission.
        result = sweep(job_sleep, [({"seconds": 0.6}, s) for s in range(3)],
                       jobs=1, backend="daemon", timeout=1.0, retries=0)
        assert result.ok
        assert [o.attempts for o in result.outcomes] == [1, 1, 1]

    def test_cancelled_head_returns_its_queued_job_unspent(self):
        result = sweep(job_sleep,
                       [({"seconds": 30.0}, 0), ({"seconds": 0.0}, 1),
                        ({"seconds": 0.0}, 2)],
                       jobs=1, backend="daemon", timeout=1.0, retries=0)
        [failure] = result.failures
        assert failure.kind == FAILURE_TIMEOUT and failure.attempts == 1
        assert result.results[1:] == [{"slept": 0.0}] * 2
        assert [o.attempts for o in result.outcomes[1:]] == [1, 1]

    def test_prefetch_never_blocks_the_parent(self):
        # A 2 MB frame does not fit the socket buffer of a worker busy
        # for a second: submit must return at once and send the rest
        # when the worker is idle.
        backend = DaemonBackend(1)
        try:
            backend.submit(0, Job.build(job_sleep, {"seconds": 1.0}))
            assert backend.accepting(2)
            start = time.monotonic()
            backend.submit(1, Job.build(
                job_blob, {"blob": "y" * 2_000_000, "x": 1}))
            assert time.monotonic() - start < 0.5
            assert list(backend.running()) == [0]
            done = {}
            while len(done) < 2:
                done.update((c.tag, c) for c in backend.drain(10.0))
        finally:
            backend.teardown()
        assert done[0].status == done[1].status == STATUS_OK
        assert done[1].value["size"] == 2_000_000

    def test_second_slot_only_while_more_jobs_wait_than_workers(self):
        backend = DaemonBackend(2)
        try:
            for tag in range(2):
                assert backend.accepting(1)   # an idle worker is left
                backend.submit(tag, Job.build(job_sleep, {"seconds": 0.2}))
            assert not backend.accepting(2)   # the tail: wait for one
            assert backend.accepting(3)
            backend.submit(2, Job.build(job_sleep, {"seconds": 0.0}))
            assert sorted(backend.running()) == [0, 1]
            done = {}
            while len(done) < 3:
                done.update((c.tag, c) for c in backend.drain(10.0))
        finally:
            backend.teardown()
        assert all(c.status == STATUS_OK for c in done.values())

    def test_large_configs_match_inline(self):
        specs = [({"blob": chr(0x41 + x) * 1_000_000, "x": x}, x)
                 for x in range(5)]
        daemon = sweep(job_blob, specs, jobs=2, backend="daemon")
        assert daemon.ok
        assert daemon.aggregate_json() == sweep(job_blob,
                                                specs).aggregate_json()

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


# ---------------------------------------------------------------------------
# One encode per config: every text built from Job.config_json equals
# canonical_json of the dict form the code wrote before it was embedded.
# ---------------------------------------------------------------------------

def _random_value(rng, depth):
    kind = rng.randrange(9 if depth < 3 else 6)
    if kind == 0:
        return rng.randrange(-10 ** 12, 10 ** 12)
    if kind == 1:
        return rng.choice([0.1, -2.5e-7, 1e300, -0.0, 3.0,
                           rng.uniform(-1e6, 1e6)])
    if kind == 2:
        return rng.choice(["", "plain", "Zürich ☃", "quote\"back\\slash",
                           "tab\tnew\nline", "\U0001f600"])
    if kind in (3, 4, 5):
        return rng.choice([None, True, False, -1])
    if kind in (6, 7):
        return {rng.choice(["a", "B", "é", "z9", "", "ключ", "10", "2"]):
                _random_value(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]


def _identity_jobs():
    rng = random.Random("farm:byte-identity")
    configs = [None, {}, [], 0, -3, 1.5, "", {"nested": {"deep": [[], {}]}}]
    configs += [_random_value(rng, 0) for _ in range(40)]
    return [Job.build(job_echo, config, seed=index - 10,
                      name=f"echo ☃ {index}")
            for index, config in enumerate(configs)]


class TestSerializeOnce:
    def test_texts_equal_the_dict_form_encodings(self, tmp_path):
        jobs = _identity_jobs()
        cache = ResultCache(str(tmp_path))
        for tag, job in enumerate(jobs):
            assert job.config_json == canonical_json(job.config)
            assert job.key("salt ☃") == job_key(job.ref, job.config,
                                                 job.seed, "salt ☃")
            assert job_frame(tag, job) == canonical_json(
                {"op": "job", "tag": tag, "ref": job.ref,
                 "config": job.config, "seed": job.seed})
            meta = {"fn": job.ref, "name": job.name, "seed": job.seed,
                    "config": job.config}
            key = job.key()
            path = cache.store(key, {"r": job.config},
                               meta=job.spec_json(ref_name="fn"))
            with open(path, encoding="utf-8") as handle:
                assert handle.read() == canonical_json(
                    {"key": key, "result": {"r": job.config}, "job": meta})

    def test_manifest_and_entries_written_by_a_run(self, tmp_path):
        jobs = _identity_jobs()
        campaign = Campaign.build("identity ☃", cache=str(tmp_path),
                                  salt="s")
        for job in jobs:
            campaign.add(job_echo, config=job.config, seed=job.seed,
                         name=job.name)
        result = campaign.run()
        assert result.ok
        cache = ResultCache(str(tmp_path))
        with open(cache._manifest_path("identity ☃"),
                  encoding="utf-8") as handle:
            assert handle.read() == canonical_json(
                {"name": "identity ☃", **campaign.manifest()})
        for outcome in result.outcomes:
            job = outcome.job
            with open(cache._path(outcome.key), encoding="utf-8") as handle:
                assert handle.read() == canonical_json(
                    {"key": outcome.key,
                     "result": {"config": job.config, "seed": job.seed},
                     "job": {"fn": job.ref, "name": job.name,
                             "seed": job.seed, "config": job.config}})

    def test_cache_written_through_the_dict_forms_is_fully_hit(
            self, tmp_path):
        # Write the cache the way the dict-form code did: keys from
        # job_key, entries and manifest from plain dicts.
        jobs = _identity_jobs()
        cache = ResultCache(str(tmp_path))
        campaign = Campaign.build("dict-forms", cache=cache, salt="s")
        for job in jobs:
            campaign.add(job_echo, config=job.config, seed=job.seed,
                         name=job.name)
        salt = campaign._salt_for(campaign.jobs[0])
        for job in campaign.jobs:
            cache.store(job_key(job.ref, job.config, job.seed, salt),
                        {"config": job.config, "seed": job.seed},
                        meta={"fn": job.ref, "name": job.name,
                              "seed": job.seed, "config": job.config})
        cache.store_manifest("dict-forms", campaign.manifest())
        for jobs_n, backend in ((1, "inline"), (2, "daemon")):
            warm = Campaign.resume(cache, "dict-forms", jobs=jobs_n,
                                   backend=backend)
            assert warm.executed == 0 and warm.cached == len(jobs)
            assert warm.aggregate_json() \
                == sweep(job_echo, [(j.config, j.seed) for j in jobs],
                         ).aggregate_json()

    def test_dict_form_encodings_are_pinned(self):
        # sha256 over the dict-form texts of a fixed ref, recorded
        # before config texts were embedded: the canonical form itself
        # has not moved.
        texts = []
        for tag, job in enumerate(_identity_jobs()):
            texts.append(job_key("m:f", job.config, job.seed, "s"))
            texts.append(canonical_json(
                {"op": "job", "tag": tag, "ref": "m:f",
                 "config": job.config, "seed": job.seed}))
            texts.append(canonical_json(
                {"fn": "m:f", "name": job.name, "seed": job.seed,
                 "config": job.config}))
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == PINNED_DICT_FORMS


PINNED_DICT_FORMS = (
    "e34d4b962be420193863b9a1600f0daca6b10668f15bc1c8898f62eedce5ed26")


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
