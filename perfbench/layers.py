"""Per-layer accounting for the traced run.

Two instruments, both living in the benchmark's own files:

- :class:`Shims` wraps public entry points of a layer (module functions
  the caller looks up at call time, or public methods) with wall-clock
  timers, for phase times such as ``maps.refine_s``;
- :func:`profile_buckets` runs one pass under ``cProfile`` and buckets
  self time by the package that owns each frame.  Frames the repo does
  not own (builtins, the standard library, dataclass-generated
  ``<string>`` methods, third-party code) are charged to the layer that
  called them, split by the calls' cumulative time.  Generated
  superblocks (``<superblock ...>``, ``<lane superblock ...>``) are
  ``vp.jit``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# The layers this benchmark reports, keyed by the source path fragment
# that owns them (first match wins).
LAYER_PATHS: List[Tuple[str, str]] = [
    ("repro/desim/", "desim"),
    ("repro/vp/isa.py", "vp.isa"),
    ("repro/vp/iss.py", "vp.iss"),
    ("repro/vp/jit.py", "vp.jit"),
    ("repro/vp/lanes.py", "vp.lanes"),
    ("repro/vp/bus.py", "vp.bus"),
    ("repro/vp/peripherals/", "vp.peripherals"),
    ("repro/cir/", "cir"),
    ("repro/maps/", "maps"),
    ("repro/farm/", "farm"),
    ("repro/core/serde.py", "serde"),
    ("repro/faults/", "faults"),
]
LAYERS = [layer for _, layer in LAYER_PATHS]
OTHER = "other"   # unnamed repo modules, the harness, unattributable time

Func = Tuple[str, int, str]


def owner(func: Func) -> Optional[str]:
    """The bucket that owns a profiled frame, or ``None`` when the frame
    belongs to nobody here and is charged to its callers."""
    filename = func[0].replace(os.sep, "/")
    if filename.startswith("<superblock") \
            or filename.startswith("<lane superblock"):
        return "vp.jit"
    for fragment, layer in LAYER_PATHS:
        if fragment in filename:
            return layer
    if "/repro/" in filename or "/perfbench/" in filename:
        return OTHER
    return None


def bucket_stats(stats: Dict[Func, Any]) -> Dict[str, float]:
    """Self seconds per bucket from a ``pstats`` table."""
    shares: Dict[Func, Dict[str, float]] = {}

    def share(func: Func, depth: int) -> Dict[str, float]:
        known = shares.get(func)
        if known is not None:
            return known
        layer = owner(func)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            weights = {caller: entry[3] for caller, entry in callers.items()}
            total = sum(weights.values())
            if depth > 40 or total <= 0:
                result = {OTHER: 1.0}
            else:
                result = {}
                for caller, weight in weights.items():
                    for name, part in share(caller, depth + 1).items():
                        result[name] = (result.get(name, 0.0)
                                        + part * weight / total)
        shares[func] = result
        return result

    buckets = {layer: 0.0 for layer in LAYERS + [OTHER]}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for name, part in share(func, 0).items():
            buckets[name] += tt * part
    return buckets


def cumulative(stats: Dict[Func, Any], path: str, names: Tuple[str, ...],
               caller_names: Tuple[str, ...] = (),
               caller_paths: Tuple[str, ...] = ()) -> float:
    """Cumulative seconds of the functions ``names`` defined in ``path``,
    optionally only for calls made from functions named ``caller_names``
    or defined in files matching ``caller_paths``."""
    total = 0.0
    for func, entry in stats.items():
        if func[2] not in names or path not in func[0].replace(os.sep, "/"):
            continue
        if not caller_names and not caller_paths:
            total += entry[3]
            continue
        for caller, call in entry[4].items():
            caller_path = caller[0].replace(os.sep, "/")
            if caller[2] in caller_names or any(
                    fragment in caller_path for fragment in caller_paths):
                total += call[3]
    return total


def profile_buckets(fn: Callable[[], Any]) -> Tuple[Any, float, Dict]:
    """Run ``fn`` once under cProfile; returns its result, the profiled
    wall time and the raw ``pstats`` table."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    return result, wall, pstats.Stats(profiler).stats


class Shims:
    """Wall-clock timers around public entry points, installed only for
    the traced passes and always restored."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        self._depth: Dict[str, int] = {}

    def time(self, owner_obj: Any, attr: str, metric: str,
             after: Optional[Callable[..., None]] = None,
             before: Optional[Callable[[tuple, dict], None]] = None) -> None:
        """Charge every outermost call of ``owner_obj.attr`` to
        ``metric``.  ``before``/``after`` see the call's arguments (and
        result) to read public counters."""
        original = getattr(owner_obj, attr)
        totals, depth = self.totals, self._depth
        totals.setdefault(metric, 0.0)
        depth.setdefault(metric, 0)

        def shim(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            depth[metric] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                depth[metric] -= 1
                if depth[metric] == 0:
                    totals[metric] += time.perf_counter() - start
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patched.append((owner_obj, attr, original))
        setattr(owner_obj, attr, shim)

    def reset(self) -> None:
        for metric in self.totals:
            self.totals[metric] = 0.0
        self.counts.clear()

    def restore(self) -> None:
        while self._patched:
            owner_obj, attr, original = self._patched.pop()
            setattr(owner_obj, attr, original)

    def __enter__(self) -> "Shims":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


# Every per-layer metric the traced run prints, with its unit.  A
# workload that has no such layer reports 0 (e.g. ``maps.*`` on the VP
# workloads).  ``*.self_s`` and the profile-derived times are profiled
# seconds; the shimmed phase times are wall seconds.
PER_LAYER: List[Tuple[str, str]] = [
    ("desim.events", "count"),
    ("desim.events_per_kinstr", "count"),
    ("desim.self_s", "s"),
    ("vp.iss.instructions", "count"),
    ("vp.iss.cycles", "count"),
    ("vp.iss.self_s", "s"),
    ("vp.isa.assemble_s", "s"),
    ("vp.isa.self_s", "s"),
    ("vp.jit.superblocks", "count"),
    ("vp.jit.compile_s", "s"),
    ("vp.jit.generated_self_s", "s"),
    ("vp.jit.self_s", "s"),
    ("vp.lanes.windows", "count"),
    ("vp.lanes.vector_calls", "count"),
    ("vp.lanes.shared", "count"),
    ("vp.lanes.solo_steps", "count"),
    ("vp.lanes.fallbacks", "count"),
    ("vp.lanes.lockstep_frac", "frac"),
    ("vp.lanes.self_s", "s"),
    ("vp.bus.reads", "count"),
    ("vp.bus.writes", "count"),
    ("vp.bus.self_s", "s"),
    ("vp.peripherals.sem_acquire_ratio", "frac"),
    ("vp.peripherals.self_s", "s"),
    ("cir.parse_s", "s"),
    ("cir.interp_s", "s"),
    ("cir.self_s", "s"),
    ("maps.partition_s", "s"),
    ("maps.expand_s", "s"),
    ("maps.map_s", "s"),
    ("maps.mvp_s", "s"),
    ("maps.refine_s", "s"),
    ("maps.codegen_s", "s"),
    ("maps.self_s", "s"),
    ("farm.jobs_executed", "count"),
    ("farm.jobs_cached", "count"),
    ("farm.jobs_failed", "count"),
    ("farm.job_p50_ms", "ms"),
    ("farm.job_p95_ms", "ms"),
    ("farm.worker_busy_frac", "frac"),
    ("farm.daemon_spawn_s", "s"),
    ("farm.cache_put_s", "s"),
    ("farm.cache_get_s", "s"),
    ("farm.warm_rerun_s", "s"),
    ("farm.self_s", "s"),
    ("serde.encode_s", "s"),
    ("serde.decode_s", "s"),
    ("serde.self_s", "s"),
    ("faults.injected", "count"),
    ("faults.outcome.masked", "count"),
    ("faults.outcome.sdc", "count"),
    ("faults.outcome.hang", "count"),
    ("faults.outcome.trap", "count"),
    ("faults.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]
