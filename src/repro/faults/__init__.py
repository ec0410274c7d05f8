"""Deterministic fault injection and resilience (`repro.faults`).

Section II of the paper argues the many-core OS must be *reactive* --
allocating and re-allocating resources as conditions change -- and
section V stresses that lock-based MPSoC software fails in ways that are
nearly impossible to reproduce.  This package turns both claims into
experiments: a :class:`FaultPlan` describes *what goes wrong and when*
(seeded, so every campaign replays bit-identically), and a
:class:`FaultInjector` applies it to a running simulation through the
desim :class:`~repro.desim.SimObserver` hook and per-subsystem
attachment points:

- **NoC** (``injector.attach_noc``): per-transmission message drop,
  duplicate, delay and corruption -- countered by the NoC's
  reliable-delivery mode (sequence numbers, ack + timeout + exponential
  backoff retry, duplicate suppression);
- **SoC** (``injector.attach_soc``): transient RAM / register bit
  flips and stuck peripheral interrupt lines at exact sim times;
- **OS** (``run_resilient`` in :mod:`repro.manycore.os_scheduler`):
  core crash/hang, countered by heartbeat watchdogs, task restart and
  migration off the dead core;
- **RT executives**: deadline misses handled by configurable
  skip/degrade policies.

Determinism contract (what a seed pins down): with the same
``FaultPlan`` seed, the same workload and the same attachment order,
every fault fires at the same sim time against the same target, every
recovery takes the same path, and the resulting obs traces are
byte-identical.  Attaching an injector installs a kernel observer,
which also forces virtual-platform cores onto the event-exact
per-instruction path -- bit flips land between the same two
instructions on every run.
"""

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.injector import FaultInjector
from repro.faults.campaign import plan_config, run_fault_campaign

__all__ = ["FaultInjector", "FaultPlan", "FaultSpec", "plan_config",
           "run_fault_campaign"]
