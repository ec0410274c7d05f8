"""Seeded random SDF graphs: the inputs of the dataflow analysis oracles.

:func:`generate_sdf` builds a small rate-consistent SDF graph of 2--4
actors: a ring, up to two chords, and self-loops.  Rates come from a
random repetition vector, so most edges are multirate, and the initial
tokens are drawn so that some graphs carry a cycle the self-timed
execution can never fire (a zero-token HSDF cycle) while most are live.
Execution times are small integers, so ratios of cycle times to cycle
tokens are exact in binary floating point.

Like every generator in :mod:`repro.gen`, the graph is a pure function of
``random.Random(f"{seed}:sdf")``.
"""

from __future__ import annotations

import random
from math import gcd

from repro.dataflow.graph import SDFGraph


def generate_sdf(seed: int) -> SDFGraph:
    """A random consistent SDF graph (ring, chords, self-loops)."""
    rng = random.Random(f"{seed}:sdf")
    count = rng.randint(2, 4)
    reps = [rng.randint(1, 3) for _ in range(count)]
    graph = SDFGraph(f"sdf{seed}")
    for index in range(count):
        graph.add_actor(f"a{index}", float(rng.randint(1, 5)))
    pairs = [(index, (index + 1) % count) for index in range(count)]
    pairs += [tuple(rng.sample(range(count), 2))
              for _ in range(rng.randint(0, 2))]
    pairs += [(index, index) for index in range(count) if rng.random() < 0.2]
    for number, (src, dst) in enumerate(pairs):
        # prod * reps[src] == cons * reps[dst]: the balance equation.
        scale = rng.randint(1, 2)
        common = gcd(reps[src], reps[dst])
        prod = reps[dst] // common * scale
        cons = reps[src] // common * scale
        per_iteration = prod * reps[src]
        tokens = rng.choice([0, cons, per_iteration, per_iteration,
                             rng.randint(0, 2 * per_iteration)])
        graph.connect(f"a{src}", f"a{dst}", prod, cons, tokens=tokens,
                      name=f"e{number}")
    return graph


__all__ = ["generate_sdf"]
