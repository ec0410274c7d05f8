"""repro.gen -- differential fuzzer + parametric scenario generator.

Industrializes the repo's bug-finding (ROADMAP item 4): the repo has
four execution paths that must agree bit-for-bit -- the mini-C
interpreter plus the reference/compiled/vector ISS backends -- and
every past differential campaign found real bugs.  This package
generates the campaigns instead of hand-writing them:

- :mod:`repro.gen.firmware` -- seeded random firmware from a grammar
  biased toward historically buggy classes;
- :mod:`repro.gen.expr` -- paired C/assembly renderings of one random
  expression tree (the interp-vs-ISS differential);
- :mod:`repro.gen.arch` -- parametric platforms: NoC topologies,
  heterogeneous core speeds, memory shapes, plus the *invalid* corners
  the config validators must reject;
- :mod:`repro.gen.diff` -- the differential harness, runnable as a
  :mod:`repro.farm` campaign (cached, parallel, byte-identical);
- :mod:`repro.gen.shrink` -- divergence minimization and pinned
  regression emission;
- :mod:`repro.gen.sdf` -- seeded consistent SDF graphs for the
  dataflow analysis oracles.

Determinism contract: every artifact is a pure function of
``random.Random(f"{seed}:{stream}")`` -- same seed, same program, same
platform, same campaign bytes, on every machine and worker count.

Quickstart::

    from repro.gen import run_fuzz_campaign
    report = run_fuzz_campaign(200, base_seed=0)
    assert report["divergences"] == 0, report["divergent_seeds"]
"""

from repro.gen.arch import (
    build_adversarial,
    generate_adversarial_dicts,
    generate_arch_candidates,
    generate_manycore_config,
    generate_platform_spec,
    generate_soc_config,
)
from repro.gen.diff import (
    BATCHING_BACKENDS,
    COMPARED_FIELDS,
    compare_expr,
    compare_firmware,
    compare_scenario,
    differential_job,
    run_firmware_leg,
    run_fuzz_campaign,
    snapshot_digest,
)
from repro.gen.expr import generate_expr_scenario
from repro.gen.firmware import (
    BiasKnobs,
    SUPERBLOCK_CAP,
    generate_firmware,
    generate_irq_firmware,
    generate_scenario,
)
from repro.gen.sdf import generate_sdf
from repro.gen.shrink import (
    emit_regression_test,
    shrink_program,
    shrink_scenario,
)

__all__ = [
    "BATCHING_BACKENDS", "BiasKnobs", "COMPARED_FIELDS", "SUPERBLOCK_CAP",
    "build_adversarial", "compare_expr", "compare_firmware",
    "compare_scenario", "differential_job", "emit_regression_test",
    "generate_adversarial_dicts", "generate_arch_candidates",
    "generate_expr_scenario", "generate_firmware", "generate_irq_firmware",
    "generate_manycore_config", "generate_platform_spec",
    "generate_scenario", "generate_sdf", "generate_soc_config",
    "run_firmware_leg", "run_fuzz_campaign", "shrink_program",
    "shrink_scenario", "snapshot_digest",
]
