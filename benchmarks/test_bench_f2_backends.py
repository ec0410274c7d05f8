"""F2 (farm backends): warm daemon workers amortize per-campaign setup.

A cold worker pays its dispatch tax on the first campaign: fresh worker
processes, cold module memos, cold decode caches.  The persistent
daemon backend keeps the same worker processes alive across campaigns,
so anything a job memoizes at module level (here: assembled programs
and their ISS decode caches) is already hot when the next sweep lands.

This bench runs a 50-job decode-heavy sweep (each job assembles and
executes its own 400-instruction program, memoized per worker process)
three ways -- daemon cold start, warm daemon pass, serial inline
reference.  Asserted shapes:

- cold and warm daemon sweeps reproduce the inline aggregate
  byte-for-byte (the portable claim, asserted unconditionally);
- with >= 2 usable CPUs the warm daemon sweep is >= 2x faster than the
  cold-start daemon sweep, in the median of three interleaved cold/warm
  pairs; on 1-CPU containers (CI) the ratio is recorded and only
  parity-bounded, per the F1 precedent.
"""

from __future__ import annotations

import os
import time

from repro.farm import Campaign, shutdown_daemons
from repro.vp import SoC, SoCConfig, assemble

JOBS = 50
WORKERS = 2
LINES = 400
PAIRS = 3  # odd: the gate reads the median cold/warm pair


def build_source(seed: int) -> str:
    """A straight-line, decode-heavy program unique to ``seed``."""
    lines = ["    li r1, 0"]
    for index in range(LINES):
        lines.append(f"    addi r1, r1, {(seed + index) % 97}")
    lines.append("    sw r1, 8(r0)")
    lines.append("    halt")
    return "\n".join(lines)


# Module-level memo: persists inside daemon workers across campaigns,
# is empty in every freshly spawned worker.  The assembled program
# object also carries the ISS decode cache, so a warm worker skips both
# the parse and the per-instruction decode.
_PROGRAMS = {}


def decode_job(config, seed):
    program = _PROGRAMS.get(seed)
    if program is None:
        program = assemble(build_source(seed))
        _PROGRAMS[seed] = program
    soc = SoC(SoCConfig(n_cores=1, ram_words=64), {0: program})
    soc.run()
    return {"seed": seed, "sum": soc.mem(8)}


def run_decode_sweep(name: str, **policy):
    campaign = Campaign.build(name, **policy)
    for seed in range(JOBS):
        campaign.add(decode_job, seed=seed, name=f"decode[{seed}]")
    started = time.perf_counter()
    result = campaign.run().raise_on_failure()
    return result, time.perf_counter() - started


def run_experiment():
    """``PAIRS`` cold/warm daemon sweep pairs back to back, then the
    serial reference once."""
    pairs = []
    for _ in range(PAIRS):
        shutdown_daemons()  # measure a true daemon cold start
        _PROGRAMS.clear()   # the parent memo must not leak into new workers
        pairs.append((
            run_decode_sweep("f2-daemon-cold", jobs=WORKERS,
                             backend="daemon"),
            run_decode_sweep("f2-daemon-warm", jobs=WORKERS,
                             backend="daemon")))
    return {"pairs": pairs, "serial": run_decode_sweep("f2-serial")}


def test_bench_f2_backend_dispatch(benchmark, show, record_bench):
    runs = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    cpus = len(os.sched_getaffinity(0))

    pairs = runs["pairs"]
    serial, serial_seconds = runs["serial"]
    # The gate reads the pair with the median cold/warm ratio.
    (_cold, daemon_cold_seconds), (_warm, daemon_warm_seconds) = sorted(
        pairs, key=lambda pair: pair[0][1] / max(pair[1][1], 1e-9))[
        PAIRS // 2]
    warm_ratio = daemon_cold_seconds / max(daemon_warm_seconds, 1e-9)

    show(f"F2: {JOBS}-job decode-heavy sweep, cold vs warm daemons",
         [["daemon (cold start)", f"{daemon_cold_seconds:.2f}s", "1.00x"],
          ["daemon (warm)", f"{daemon_warm_seconds:.2f}s",
           f"{warm_ratio:.2f}x"],
          ["serial inline", f"{serial_seconds:.2f}s",
           f"{daemon_cold_seconds / max(serial_seconds, 1e-9):.2f}x"]],
         ["backend", "wall", "vs cold daemon"])

    record_bench(warm_ratio=warm_ratio, cpus=cpus,
                 daemon_cold_seconds=daemon_cold_seconds,
                 daemon_warm_seconds=daemon_warm_seconds,
                 serial_seconds=serial_seconds)

    # Claim shape 1: the backend never changes the answer.  Cold and
    # warm daemon sweeps are byte-identical to the inline reference.
    reference = serial.aggregate_json()
    for cold, warm in pairs:
        assert cold[0].aggregate_json() == reference
        assert warm[0].aggregate_json() == reference

    # Claim shape 2: warm daemons amortize dispatch + decode.  With real
    # parallelism available the warm pass must be >= 2x faster than the
    # cold start; on 1-CPU containers the ratio is recorded but only
    # parity-bounded (F1 precedent: byte-identity is the portable claim).
    if cpus >= WORKERS:
        assert warm_ratio >= 2.0
    else:
        assert warm_ratio > 0.5
