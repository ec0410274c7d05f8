#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end metrics, per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload vp_lockstep --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one process: each pass starts after the previous
one ends): ``vp_lockstep``, ``vp_contended``, ``maps_jpeg``,
``fault_farm`` -- see ``perfbench/README.md`` for why each exists.

``--trace 0`` measures with nothing attached and prints the end-to-end
metrics; ``--trace 1`` is the separate traced run that prints the
per-layer metrics (public counters, wall-clock shims around layer entry
points, and one cProfile pass bucketed by package).  Every pass's output
is checked: against the values recorded in ``expected.json`` for the
recorded seeds, against the reference backend at ``quantum=1`` (VP), the
Python encoder model (MAPS) or the inline farm oracle for any other
seed.  Every count must repeat exactly across passes and runs of one
seed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "perfbench", "expected.json")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 1
HELD_OUT_SEED = 97
SETUP_REPEATS = 5
MIN_PASSES = 3
INLINE_SUBSET = 8      # fault_farm jobs profiled in-process
MIN_COVERAGE = 0.90
IMPORT_PROBE = ("import sys; sys.path[:0] = sys.argv[1:]; "
                "import perfbench.workloads")
CAL_LOOPS = 40_000
CAL_NOMINAL_S = 0.013  # the calibration loop's time at nominal host speed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["vp_lockstep", "vp_contended", "maps_jpeg",
                                 "fault_farm"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; the "
                             f"held-out seed is {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="check against the oracle and print this "
                             "seed's digest and counts as an expected.json "
                             "entry")
    return parser.parse_args(argv)


def host_notes():
    """Machine context printed with every run (not a metric)."""
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()),
            "python": sys.version.split()[0]}


def peak_rss_mb(child_pids=()):
    """Peak resident set of this process plus the given live children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


_CAL_TABLE = list(range(1 << 16))


def calibration_loop():
    """Time a fixed slice of pure-Python work: arithmetic plus random
    reads over a 64k-entry table.  On shared hosts one CPU can flip
    between speeds 1.4x apart every few seconds while its neighbour
    stays steady (CPU time drifts with wall time, so it is not steal);
    this loop, run on the same CPU next to every timed region, tracks
    that drift.  It runs no repo code, so a faster repo never moves it."""
    start = time.perf_counter()
    table = _CAL_TABLE
    total = 0
    x = 12345
    for i in range(CAL_LOOPS):
        total += i * i % 7
        x = (x * 1103515245 + 12345) & 0xFFFF
        total += table[x]
    return time.perf_counter() - start


class SpeedClock:
    """Times regions in host seconds and in *normalized* host seconds:
    raw seconds x CAL_NOMINAL_S x the mean calibration speed (1 / loop
    seconds, averaged over the loops run just before and just after the
    region) of the CPUs the timed work runs on.  The end-to-end time
    metrics are normalized; the raw medians are printed beside them."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.last = self.calibrate()

    def calibrate(self):
        allowed = os.sched_getaffinity(0)
        seconds = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            seconds.append(calibration_loop())
        os.sched_setaffinity(0, allowed)
        return seconds

    def time(self, fn):
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = self.calibrate()
        speed = statistics.mean(2.0 / (before + late) for before, late
                                in zip(self.last, after))
        norm = raw * CAL_NOMINAL_S * speed
        self.last = after
        return result, raw, norm


def percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Bench:
    """One benchmark run: set-up, checked passes, metrics."""

    def __init__(self, args, workloads, layers):
        self.args = args
        self.layers = layers
        self.problems = []
        self.attempted = 0
        self.failed = 0
        if args.workload == "fault_farm":
            self.workload = workloads.FaultFarm(WORKDIR)
        else:
            self.workload = {"vp_lockstep": workloads.VpLockstep,
                             "vp_contended": workloads.VpContended,
                             "maps_jpeg": workloads.MapsJpeg,
                             }[args.workload]()
        recorded = {}
        if os.path.exists(EXPECTED):
            with open(EXPECTED, encoding="utf-8") as handle:
                recorded = json.load(handle)
        self.recorded = recorded.get(args.workload, {}).get(str(args.seed))
        self.counts = None
        # One process runs pinned to one CPU, so its calibration sees
        # the speed the passes see: the highest-numbered one, because
        # CPU 0 takes most interrupts and housekeeping.  The farm pins
        # one worker per CPU and its clock calibrates on each of them.
        cpus = os.sched_getaffinity(0)
        if args.workload != "fault_farm":
            cpus = {max(cpus)}
            os.sched_setaffinity(0, cpus)
        self.clock = SpeedClock(cpus)

    # -- set-up -----------------------------------------------------------
    def setup(self):
        """Set up several times and keep the medians (raw, normalized).
        One set-up is the imports, timed in a fresh interpreter, plus
        input generation and construction."""
        src = os.path.join(ROOT, "src")

        def once():
            subprocess.run([sys.executable, "-c", IMPORT_PROBE, ROOT, src],
                           check=True)
            self.workload.generate(self.args.seed)
            return self.workload.setup()

        raws, norms, extras = [], [], []
        for _ in range(SETUP_REPEATS):
            extra, raw, norm = self.clock.time(once)
            raws.append(raw)
            norms.append(norm)
            extras.append(extra)
            if self.args.workload != "fault_farm":
                self.workload.release(extra)
        self.setup_extras = extras
        return statistics.median(raws), statistics.median(norms)

    def expected_digest(self):
        """The recorded digest for a recorded seed; otherwise (and when
        recording) the oracle's, computed outside every timed region."""
        if self.recorded is not None and not self.args.record:
            return self.recorded["digest"]
        return self.workload.oracle()

    # -- passes -----------------------------------------------------------
    def one_pass(self, expected):
        """Prepare (untimed), execute (timed), observe and check.
        Returns the raw and normalized pass seconds and the record."""
        gc.collect()
        built = self.workload.prepare()
        try:
            result, raw, norm = self.clock.time(
                lambda: self.workload.execute(built))
            record = self.workload.observe(built, result)
        finally:
            self.workload.release(built)
        self.check(record, expected)
        return raw, norm, record

    def check(self, record, expected):
        failed = record.failed
        if expected is not None and record.digest != expected:
            failed = record.ops
            self.problems.append(f"output digest {record.digest[:12]} != "
                                 f"expected {expected[:12]}")
        self.attempted += record.ops
        self.failed += failed
        if self.counts is None:
            self.counts = dict(record.counts)
            if self.recorded is not None and not self.args.record \
                    and self.recorded["counts"] != self.counts:
                self.problems.append("counts differ from the recorded "
                                     "run of this seed")
        elif record.counts != self.counts:
            self.problems.append("counts differ between passes")
        if self.args.workload == "vp_lockstep" \
                and record.counts["vp.lanes.windows"] <= 0:
            self.problems.append("no lane windows: lockstep is off")

    def passes(self, expected, seconds):
        """Closed loop: passes back to back for ``seconds``."""
        raws, norms, records = [], [], []
        deadline = time.perf_counter() + seconds
        while len(raws) < MIN_PASSES or time.perf_counter() < deadline:
            raw, norm, record = self.one_pass(expected)
            raws.append(raw)
            norms.append(norm)
            records.append(record)
        return raws, norms, records

    # -- end-to-end -------------------------------------------------------
    @staticmethod
    def end_to_end(setup_s, times, records, rss_mb):
        return {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(times), "s"),
            "sim_instr_per_s": (statistics.median(
                r.instructions / t for t, r in zip(times, records)), "1/s"),
            "jobs_per_s": (statistics.median(
                r.ops / t for t, r in zip(times, records)), "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def child_pids(self):
        if self.args.workload != "fault_farm":
            return []
        from repro.farm.backends import warm_worker_pids
        return warm_worker_pids(self.workload.workers)

    # -- traced run -------------------------------------------------------
    def install_shims(self, shims):
        import repro.farm.cache as farm_cache
        import repro.maps.annealing as annealing
        import repro.maps.flow as flow
        import repro.vp.soc as soc_module
        from repro.desim import Simulator

        shims.time(soc_module, "assemble", "vp.isa.assemble_s")
        if self.args.workload == "maps_jpeg":
            def fresh_sim(_args, kwargs):
                if kwargs.get("sim") is None:
                    kwargs["sim"] = Simulator()

            def count_events(_args, kwargs, _result):
                shims.counts["desim.events"] = (
                    shims.counts.get("desim.events", 0)
                    + kwargs["sim"].event_count)

            shims.time(flow, "parse", "cir.parse_s")
            shims.time(flow, "run_program", "cir.interp_s")
            shims.time(flow, "partition_function", "maps.partition_s")
            shims.time(flow, "partition_data_parallel", "maps.expand_s")
            shims.time(flow, "map_task_graph", "maps.map_s")
            shims.time(flow, "simulate_mapping", "maps.mvp_s",
                       before=fresh_sim, after=count_events)
            shims.time(annealing, "map_task_graph_annealing",
                       "maps.refine_s")
            shims.time(flow, "generate_data_parallel_code",
                       "maps.codegen_s")
            shims.time(flow, "render_pe_sources", "maps.codegen_s")
        if self.args.workload == "fault_farm":
            shims.time(farm_cache.ResultCache, "lookup", "farm.cache_get_s")
            shims.time(farm_cache.ResultCache, "store", "farm.cache_put_s")

    def traced(self, expected, half):
        """Untraced passes, then shimmed passes, then profiled passes."""
        layers = self.layers
        out = {}
        _raws, base_times, base_records = self.passes(expected, half)
        shim_totals, shim_times, shim_counts = [], [], None
        with layers.Shims() as shims:
            self.install_shims(shims)
            deadline = time.perf_counter() + half
            while len(shim_times) < MIN_PASSES \
                    or time.perf_counter() < deadline:
                shims.reset()
                _raw, norm, _record = self.one_pass(expected)
                shim_times.append(norm)
                shim_totals.append(dict(shims.totals))
                if shim_counts is None:
                    shim_counts = dict(shims.counts)
                elif shims.counts != shim_counts:
                    self.problems.append("shim counts differ between passes")
            for metric in shim_totals[0]:
                out[metric] = statistics.median(t[metric]
                                                for t in shim_totals)
            if self.args.workload == "fault_farm":
                # Jobs assemble inside the workers; time it on an inline
                # subset of the same plans, scaled to the whole batch.
                shims.reset()
                result = self.workload.inline(INLINE_SUBSET)
                self.attempted += len(result.outcomes)
                self.failed += len(result.failures)
                out["vp.isa.assemble_s"] = (
                    shims.totals["vp.isa.assemble_s"]
                    * self.workload.JOBS / INLINE_SUBSET)
        out["trace.overhead_frac"] = (statistics.median(shim_times)
                                      / statistics.median(base_times) - 1.0)
        out.update(shim_counts)

        regions = [self.profile_pass(expected, 1.0)]
        if self.args.workload == "fault_farm":
            out.update(self.farm_layers(base_records, expected))
            regions.append(self.profile_inline())
        buckets = {}
        coverage = []
        for scale, wall, stats in regions:
            region = layers.bucket_stats(stats)
            named = sum(region[layer] for layer in layers.LAYERS)
            coverage.append(named / wall)
            for name, seconds in region.items():
                buckets[name] = buckets.get(name, 0.0) + seconds * scale
            self.profile_extras(out, stats, scale)
        for name, seconds in buckets.items():
            out[f"{name}.self_s"] = seconds
        out["trace.coverage_frac"] = min(coverage)
        if min(coverage) < MIN_COVERAGE:
            self.problems.append(f"layer buckets cover only "
                                 f"{min(coverage):.1%} of traced wall time")
        return out, base_records

    def profile_pass(self, expected, scale):
        built = self.workload.prepare()
        try:
            result, wall, stats = self.layers.profile_buckets(
                lambda: self.workload.execute(built))
            record = self.workload.observe(built, result)
        finally:
            self.workload.release(built)
        self.check(record, expected)
        return scale, wall, stats

    def profile_inline(self):
        """fault_farm job internals: an inline pass over a fixed subset
        of the plans, scaled to the full batch."""
        workload = self.workload
        result, wall, stats = self.layers.profile_buckets(
            lambda: workload.inline(INLINE_SUBSET))
        self.attempted += len(result.outcomes)
        self.failed += len(result.failures)
        return workload.JOBS / INLINE_SUBSET, wall, stats

    def profile_extras(self, out, stats, scale):
        layers = self.layers
        compile_s = layers.cumulative(
            stats, "repro/vp/jit.py",
            ("compile_superblock", "compile_lane_superblock"),
            caller_names=("get",))
        generated = sum(entry[2] for func, entry in stats.items()
                        if layers.owner(func) == "vp.jit"
                        and func[0].startswith("<"))
        encode = layers.cumulative(stats, "repro/core/serde.py",
                                   ("canonical_json",))
        decode = layers.cumulative(
            stats, "json/__init__.py", ("loads", "load"),
            caller_paths=("repro/farm/", "repro/core/serde.py"))
        for name, value in (("vp.jit.compile_s", compile_s),
                            ("vp.jit.generated_self_s", generated),
                            ("serde.encode_s", encode),
                            ("serde.decode_s", decode)):
            out[name] = out.get(name, 0.0) + value * scale

    def farm_layers(self, records, expected):
        """Farm dispatch numbers from the untraced passes, plus the spawn
        time from set-up and one warm-cache re-run."""
        workload = self.workload
        job_s = [s for r in records for s in r.samples["job_s"]]
        cache = workload.prepare()
        try:
            cold = workload.execute(cache)
            self.check(workload.observe(cache, cold), expected)
            start = time.perf_counter()
            warm = workload.execute(cache)
            warm_s = time.perf_counter() - start
            record = workload.observe(cache, warm)
        finally:
            workload.release(cache)
        self.check_warm(record, expected)
        return {
            "farm.job_p50_ms": 1000.0 * percentile(job_s, 0.50),
            "farm.job_p95_ms": 1000.0 * percentile(job_s, 0.95),
            "farm.worker_busy_frac": statistics.median(
                r.samples["busy_frac"][0] for r in records),
            "farm.daemon_spawn_s": statistics.median(self.setup_extras),
            "farm.warm_rerun_s": warm_s,
            "farm.jobs_cached": warm.cached,
        }

    def check_warm(self, record, expected):
        """A warm re-run must reproduce the aggregate from cache alone."""
        self.attempted += record.ops
        if expected is not None and record.digest != expected:
            self.failed += record.ops
            self.problems.append("warm-cache aggregate differs")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import layers, workloads

    print("host: " + json.dumps(host_notes(), sort_keys=True), flush=True)
    os.makedirs(WORKDIR, exist_ok=True)
    bench = Bench(args, workloads, layers)
    try:
        setup_raw, setup_s = bench.setup()
        expected = bench.expected_digest()
        bench.one_pass(expected)   # warm pass: checked, not timed
        if args.trace:
            values, records = bench.traced(expected, args.seconds / 2)
            values.update(records[0].counts)
            if "desim.events_per_kinstr" not in values:
                values["desim.events_per_kinstr"] = (
                    1000.0 * values.get("desim.events", 0)
                    / max(records[0].instructions, 1))
            metrics = {name: (float(values.get(name, 0.0)), unit)
                       for name, unit in layers.PER_LAYER}
        else:
            raws, times, records = bench.passes(expected, args.seconds)
            rss = peak_rss_mb(bench.child_pids())
            metrics = bench.end_to_end(setup_s, times, records, rss)
            raw = bench.end_to_end(setup_raw, raws, records, rss)
            print("raw: " + json.dumps({name: value for name, (value, _u)
                                        in raw.items()}), flush=True)
        if args.record:
            print("record: " + json.dumps(
                {"digest": records[0].digest, "counts": records[0].counts},
                sort_keys=True))
    finally:
        if args.workload == "fault_farm":
            from repro.farm import shutdown_daemons
            shutdown_daemons()
        shutil.rmtree(WORKDIR, ignore_errors=True)

    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
