"""Unified design-flow API over every subsystem of the reproduction.

The paper surveys several tool flows; :mod:`repro.core` offers a single
entry point a downstream user would actually adopt:

- :class:`~repro.core.platform.PlatformDescription` -- one platform
  description, projectable to the MAPS platform model, the many-core OS
  machine model, and the HOPES architecture file;
- :class:`~repro.core.application.Application` -- one application wrapper
  over sequential C, CIC task graphs, or stream pipelines;
- :class:`~repro.core.flow.DesignFlow` -- routes an application through
  the right tool flow and returns a unified report;
- :mod:`repro.core.metrics` -- common measurement helpers;
- :mod:`repro.core.serde` -- canonical JSON, the one serialization
  protocol shared by cache entries, campaign manifests and backend wire
  frames.
"""

# serde is dependency-free and imported eagerly; the design-flow facade
# is resolved lazily (PEP 562) so low-level modules (farm, snap, ...) can
# `from repro.core.serde import canonical_json` without dragging in -- or
# cycling through -- the whole tool-flow stack.
from repro.core.serde import canonical_json, json_roundtrip

_LAZY = {
    "Application": ("repro.core.application", "Application"),
    "ApplicationKind": ("repro.core.application", "ApplicationKind"),
    "PlatformDescription": ("repro.core.platform", "PlatformDescription"),
    "DesignFlow": ("repro.core.flow", "DesignFlow"),
    "UnifiedReport": ("repro.core.flow", "UnifiedReport"),
    "geometric_mean": ("repro.core.metrics", "geometric_mean"),
    "speedup_curve": ("repro.core.metrics", "speedup_curve"),
    "summarize_speedups": ("repro.core.metrics", "summarize_speedups"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "Application", "ApplicationKind", "DesignFlow", "PlatformDescription",
    "UnifiedReport", "canonical_json", "geometric_mean", "json_roundtrip",
    "speedup_curve", "summarize_speedups",
]
