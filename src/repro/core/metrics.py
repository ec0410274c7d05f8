"""Common measurement helpers used by benches and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Dict, Sequence


def speedup_curve(baseline: float,
                  measurements: Dict[int, float]) -> Dict[int, float]:
    """Turn {n_cores: time} into {n_cores: speedup-vs-baseline}."""
    if baseline <= 0:
        raise ValueError("baseline time must be positive")
    return {n: baseline / t if t > 0 else float("inf")
            for n, t in sorted(measurements.items())}


def summarize_speedups(curve: Dict[int, float]) -> Dict[str, float]:
    """Headline numbers for a scaling curve."""
    if not curve:
        raise ValueError("empty curve")
    ns = sorted(curve)
    peak_n = max(curve, key=lambda n: curve[n])
    return {
        "max_cores": float(ns[-1]),
        "speedup_at_max": curve[ns[-1]],
        "peak_speedup": curve[peak_n],
        "parallel_efficiency_at_max": curve[ns[-1]] / ns[-1],
    }


def crossover_point(curve_a: Dict[float, float],
                    curve_b: Dict[float, float]) -> float:
    """First x where curve_a stops beating curve_b (inf if it never
    stops), i.e. the first shared x with ``curve_a[x] <= curve_b[x]``.
    Both curves must share their x keys."""
    shared = sorted(set(curve_a) & set(curve_b))
    if not shared:
        raise ValueError("curves share no x values")
    for x in shared:
        if curve_a[x] <= curve_b[x]:
            return x
    return float("inf")


def table(rows: Sequence[Sequence], headers: Sequence[str]) -> str:
    """Render an aligned text table (what the bench harness prints)."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(headers[i]),
                  max((len(r[i]) for r in rendered), default=0))
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


__all__ = ["crossover_point", "speedup_curve", "summarize_speedups",
           "table"]
