"""Fault campaigns on the farm: one scenario, many seeded plans.

A chaos campaign is a batch of independent evaluations -- the same
scenario executed under different :class:`~repro.faults.FaultPlan`\\ s
(different seeds, different fault mixes).  That is exactly the shape
:mod:`repro.farm` schedules, so this module is just the glue: plans
serialize into job configs via :meth:`FaultPlan.to_dict`, workers
rebuild them with :meth:`FaultPlan.from_dict` (typically via
``SoC.instrument(faults=config["plan"])``), and the campaign aggregate
is byte-identical across worker counts because each run is a pure
function of (config, seed).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Union

from repro.farm.engine import Campaign, CampaignResult, Executor, \
    resolve_executor
from repro.faults.plan import FaultPlan

PlanLike = Union[FaultPlan, Dict[str, Any]]


def plan_config(plan: PlanLike,
                base_config: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The job config for one plan: ``{**base_config, "plan": <dict>}``."""
    if isinstance(plan, FaultPlan):
        plan = plan.to_dict()
    config = dict(base_config or {})
    config["plan"] = plan
    return config


def run_fault_campaign(scenario: Callable[[Dict[str, Any], int], Any],
                       plans: Iterable[PlanLike],
                       base_config: Optional[Dict[str, Any]] = None,
                       executor: Optional[Executor] = None,
                       name: str = "fault-campaign",
                       **farm: Any) -> CampaignResult:
    """Run ``scenario(config, seed)`` once per fault plan, on the farm.

    ``scenario`` must be a module-level pure function (farm job
    contract); each job's config is ``{**base_config, "plan":
    plan.to_dict()}`` and its seed is the plan seed, so the worker side
    reduces to::

        def scenario(config, seed):
            soc = build_system(config)
            soc.instrument(faults=config["plan"])
            ...run and summarize...

    Execution policy comes from ``executor=`` and/or the uniform farm
    keywords (``jobs=``, ``backend=``, ``cache=``, ``timeout=``, ...).
    Results aggregate in plan order, bit-for-bit identical between
    ``jobs=1`` and any backend/worker-count combination.
    """
    campaign = Campaign.build(name,
                              executor=resolve_executor(executor, **farm))
    for plan in plans:
        if isinstance(plan, dict):
            plan = FaultPlan.from_dict(plan)
        campaign.add(scenario, config=plan_config(plan, base_config),
                     seed=plan.seed,
                     name=f"{name}[seed={plan.seed}]")
    return campaign.run()


__all__ = ["plan_config", "run_fault_campaign"]
