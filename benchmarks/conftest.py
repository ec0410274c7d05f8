"""Shared helpers for the experiment benches.

Every bench regenerates one of the paper's measurement-shaped claims
(DESIGN.md experiment index) and prints the table/series the paper would
have reported.  Absolute numbers come from our simulated substrate; the
asserted properties are the *shapes*: who wins, by roughly what factor,
where crossovers fall.
"""

from __future__ import annotations

import json
import os
import time

import pytest

_DEFAULT_RESULTS_FILE = os.path.join(os.path.dirname(__file__), "..",
                                     "BENCH_RESULTS.json")


def _results_file() -> str:
    """Where this session's bench records land.  ``REPRO_BENCH_RESULTS``
    redirects to a private file so parallel bench shards (reproduce_all
    --jobs N) don't race read-modify-write on the shared history; the
    parent merges the shard files afterwards."""
    return os.environ.get("REPRO_BENCH_RESULTS") or _DEFAULT_RESULTS_FILE


# Rotation cap applied per bench, so one frequently-run bench can never
# evict the history of the others.
_MAX_RUNS_PER_BENCH = 50

# nodeid -> (call-phase duration, passed) / headline numbers, gathered
# per session.
_DURATIONS = {}
_HEADLINES = {}


def print_table(title: str, rows, headers) -> None:
    from repro.core.metrics import table
    print()
    print(f"== {title} ==")
    print(table(rows, headers))


@pytest.fixture
def show():
    return print_table


@pytest.fixture
def record_bench(request):
    """Record headline numbers for the perf trajectory.

    A bench calls ``record_bench(speedup=4.2, instr_per_sec=2.1e6)``;
    the values land next to the bench's wall-clock duration in
    ``BENCH_RESULTS.json`` at session end.
    """
    nodeid = request.node.nodeid

    def record(**numbers):
        _HEADLINES.setdefault(nodeid, {}).update(
            {key: float(value) for key, value in numbers.items()})

    return record


def pytest_runtest_logreport(report):
    # A failing call is recorded too, so a noisy gate's series keeps the
    # samples that missed it.
    if report.when == "call" and not report.skipped:
        _DURATIONS[report.nodeid] = (report.duration, report.passed)


def _load_series() -> dict:
    """Load the per-bench history, converting the legacy whole-session
    ``{"runs": [...]}`` layout into per-bench series on the way in."""
    try:
        with open(_results_file()) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict):
        return {}
    series = data.get("benches")
    if isinstance(series, dict):
        return {nodeid: list(history)
                for nodeid, history in series.items()
                if isinstance(history, list)}
    converted: dict = {}
    runs = data.get("runs")
    for run in runs if isinstance(runs, list) else []:
        if not isinstance(run, dict):
            continue
        stamp = run.get("timestamp")
        benches = run.get("benches")
        for nodeid, entry in (benches or {}).items():
            record = dict(entry) if isinstance(entry, dict) else {}
            record["timestamp"] = stamp
            converted.setdefault(nodeid, []).append(record)
    return converted


def pytest_sessionfinish(session, exitstatus):
    """Append this run's bench timings + headlines to BENCH_RESULTS.json.

    The file holds the perf *trajectory*: one record per bench per run,
    passing or failing (``"passed"``), so a regression shows up as a
    kink in that bench's series.  Each bench keeps its last
    ``_MAX_RUNS_PER_BENCH`` records.
    """
    if not _DURATIONS:
        return
    series = _load_series()
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    for nodeid, (seconds, passed) in sorted(_DURATIONS.items()):
        record = {"timestamp": stamp, "seconds": round(seconds, 4),
                  "passed": passed}
        record.update(_HEADLINES.get(nodeid, {}))
        history = series.setdefault(nodeid, [])
        history.append(record)
        del history[:-_MAX_RUNS_PER_BENCH]
    with open(_results_file(), "w") as handle:
        json.dump({"benches": series}, handle, indent=2)
        handle.write("\n")


@pytest.fixture
def trace_sink(request):
    """An observability sink a bench can pass into instrumented runs.

    Set ``REPRO_TRACE_DIR=<dir>`` to dump every bench's records as a
    Chrome trace-event JSON (``<dir>/<test-name>.trace.json``) for
    inspection in Perfetto; without it the sink stays in-memory only.
    """
    from repro.obs import TraceSink
    sink = TraceSink()
    yield sink
    out_dir = os.environ.get("REPRO_TRACE_DIR")
    if out_dir and sink.records:
        os.makedirs(out_dir, exist_ok=True)
        safe = request.node.name.replace("/", "_")
        sink.write(os.path.join(out_dir, f"{safe}.trace.json"))
