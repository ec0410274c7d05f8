"""Helpers shared across the tool flows.

- :mod:`repro.core.serde` -- canonical JSON, the one serialization
  protocol shared by cache entries, campaign manifests and backend wire
  frames;
- :mod:`repro.core.metrics` -- speedup curves, crossover points and the
  text tables the benches print.
"""
