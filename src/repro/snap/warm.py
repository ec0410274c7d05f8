"""Checkpoint-seeded farm jobs: skip a shared warmup prefix.

Long campaigns often run many variations of one workload whose first N
cycles are identical (boot, table setup, cache priming).  Capture that
prefix **once** with :func:`repro.snap.checkpoint`, embed the snapshot
dict in each job's config, and every shard resumes from the warm state
instead of re-executing the prefix -- deterministically, because a
restored run is bit-identical to the uninterrupted one.

Both jobs below are module-level (farm requirement: importable refs)
and return the same JSON summary shape, so a warm campaign can be
validated shard-by-shard against a cold reference campaign.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from repro.core.serde import canonical_json
from repro.snap.core import Snapshot


def _summary(soc: Any) -> Dict[str, Any]:
    ram_sha = hashlib.sha256(
        canonical_json(list(soc.ram.words)).encode("utf-8")).hexdigest()
    return {
        "time": soc.sim.now,
        "halted": soc.all_halted,
        "uart": list(soc.uart.words),
        "ram_sha": ram_sha,
        "regs": [list(core.regs) for core in soc.cores],
        "pcs": [core.pc for core in soc.cores],
    }


def _poke(soc: Any, config: Dict[str, Any], seed: int) -> None:
    # Per-shard variation: write the seed into a RAM word the workload
    # reads only *after* the shared warmup prefix.
    addr = config.get("poke")
    if addr is not None:
        soc.bus.poke(int(addr), int(seed))


def warm_run_job(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Resume from the embedded snapshot, apply the shard seed, run."""
    snap = Snapshot.from_dict(config["snapshot"])
    soc = snap.rebuild(wiring=config.get("wiring"))
    _poke(soc, config, seed)
    soc.run(until=config.get("until"))
    return _summary(soc)


def cold_run_job(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Reference twin: the same workload executed from cycle 0."""
    from repro.vp.soc import SoC, SoCConfig
    soc = SoC(SoCConfig(**config["config"]),
              {int(core): source
               for core, source in config["programs"].items()})
    for core, line, signal_name in (config.get("wiring") or []):
        soc.intcs[core].add_source(line, soc.signal(signal_name))
    _poke(soc, config, seed)
    soc.run(until=config.get("until"))
    return _summary(soc)


def run_warm_campaign(snapshot: Any, seeds: Any, *,
                      poke: Any = None, until: Any = None,
                      wiring: Any = None, executor: Any = None,
                      name: str = "warm-sweep", **farm: Any) -> Any:
    """Sweep ``seeds`` through :func:`warm_run_job` from one snapshot.

    The snapshot (object or dict) is embedded in every job config;
    execution policy comes from ``executor=`` and/or the uniform farm
    keywords (``jobs=``, ``backend=``, ``cache=``, ``timeout=``, ...).
    Returns the :class:`repro.farm.CampaignResult` (failures raised).
    """
    from repro.farm.engine import Campaign, resolve_executor
    if isinstance(snapshot, Snapshot):
        snapshot = snapshot.to_dict()
    config: Dict[str, Any] = {"snapshot": snapshot}
    if poke is not None:
        config["poke"] = poke
    if until is not None:
        config["until"] = until
    if wiring is not None:
        config["wiring"] = wiring
    campaign = Campaign.build(name,
                              executor=resolve_executor(executor, **farm))
    for seed in seeds:
        campaign.add(warm_run_job, config=config, seed=seed,
                     name=f"{name}[seed={seed}]")
    return campaign.run().raise_on_failure()


__all__ = ["cold_run_job", "run_warm_campaign", "warm_run_job"]
