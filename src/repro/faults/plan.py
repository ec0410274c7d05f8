"""Fault plans: seeded, declarative descriptions of a fault campaign.

A :class:`FaultPlan` is data, not behaviour: it lists *scheduled* faults
(exact sim times, built either explicitly or drawn from the plan's
seeded RNG streams) and *message rules* (per-transmission probabilities
the injector evaluates against its own derived RNG stream).  Everything
random derives from the single plan seed via named streams, so two plans
built with the same seed and the same builder calls are identical -- the
foundation of the byte-identical-replay guarantee.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``kind`` at ``time`` against ``target``.

    ``target`` identifies the victim within the kind's namespace (a core
    id, a process name, ``None`` for global targets like RAM); ``params``
    carries kind-specific arguments (address, bit, duration, ...).
    """

    time: float
    kind: str
    target: Any = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)


# Message-rule kinds understood by the injector's per-transmission hook.
MESSAGE_RULES = ("drop", "duplicate", "delay", "corrupt")


@dataclass
class MessageRule:
    """Probabilistic per-transmission fault rule."""

    probability: float
    max_extra: float = 0.0  # only meaningful for "delay"


class FaultPlan:
    """Builder for a deterministic fault campaign.

    Example::

        plan = FaultPlan(seed=7)
        plan.drop_messages(p=0.2)
        plan.crash_core(2, at=150.0)
        plan.flip_ram_bit(addr=100, bit=3, at=40.0)

    All helpers return ``self`` for chaining.  Randomized campaign
    helpers (``random_ram_flips``, ...) draw from a named stream of the
    plan seed *at build time*, so the resulting schedule is plain data.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.scheduled: List[FaultSpec] = []
        self.message_rules: Dict[str, MessageRule] = {}

    # ------------------------------------------------------------------
    # seeded streams
    # ------------------------------------------------------------------
    def rng(self, stream: str) -> random.Random:
        """A fresh RNG for a named stream of this plan's seed.

        Distinct streams are independent; the same (seed, stream) pair
        always yields the same sequence.
        """
        return random.Random(f"{self.seed}:{stream}")

    # ------------------------------------------------------------------
    # scheduled (timed) faults
    # ------------------------------------------------------------------
    def at(self, time: float, kind: str, target: Any = None,
           **params: Any) -> "FaultPlan":
        """Schedule a ``kind`` fault at an exact sim time."""
        if time < 0:
            raise ValueError(f"fault time must be >= 0, got {time}")
        self.scheduled.append(
            FaultSpec(time, kind, target, tuple(sorted(params.items()))))
        return self

    def crash_core(self, core: int, at: float) -> "FaultPlan":
        """Fail-stop a core: it dies instantly and silently."""
        return self.at(at, "core_crash", core)

    def hang_core(self, core: int, at: float) -> "FaultPlan":
        """Hang a core: it stops making progress but does not die."""
        return self.at(at, "core_hang", core)

    def kill_process(self, name: str, at: float) -> "FaultPlan":
        """Kill a named kernel process (generic crash primitive)."""
        return self.at(at, "kill_process", name)

    def flip_ram_bit(self, addr: int, bit: int, at: float) -> "FaultPlan":
        """Transient single-event upset in shared RAM."""
        return self.at(at, "ram_flip", None, addr=addr, bit=bit)

    def flip_register(self, core: int, reg: int, bit: int,
                      at: float) -> "FaultPlan":
        """Transient bit flip in a core's register file."""
        return self.at(at, "reg_flip", core, reg=reg, bit=bit)

    def stick_interrupt(self, core: int, at: float,
                        duration: Optional[float] = None) -> "FaultPlan":
        """Hold a core's interrupt line asserted (stuck-at-1) for
        ``duration`` sim time units (forever when ``None``)."""
        return self.at(at, "irq_stuck", core, duration=duration)

    # ------------------------------------------------------------------
    # randomized campaigns (drawn at build time; still deterministic)
    # ------------------------------------------------------------------
    def random_ram_flips(self, n: int, window: Tuple[float, float],
                         addr_range: Tuple[int, int], word_bits: int = 32,
                         stream: str = "ram_flips") -> "FaultPlan":
        rng = self.rng(stream)
        for _ in range(n):
            self.flip_ram_bit(rng.randrange(*addr_range),
                              rng.randrange(word_bits),
                              at=rng.uniform(*window))
        return self

    def random_core_crashes(self, cores: List[int],
                            window: Tuple[float, float],
                            stream: str = "crashes") -> "FaultPlan":
        rng = self.rng(stream)
        for core in cores:
            self.crash_core(core, at=rng.uniform(*window))
        return self

    # ------------------------------------------------------------------
    # probabilistic message rules (evaluated per transmission)
    # ------------------------------------------------------------------
    def _rule(self, kind: str, p: float, max_extra: float = 0.0) -> "FaultPlan":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{kind} probability must be in [0, 1], got {p}")
        self.message_rules[kind] = MessageRule(p, max_extra)
        return self

    def drop_messages(self, p: float) -> "FaultPlan":
        """Silently drop each NoC transmission with probability ``p``."""
        return self._rule("drop", p)

    def duplicate_messages(self, p: float) -> "FaultPlan":
        """Deliver each transmission twice with probability ``p``."""
        return self._rule("duplicate", p)

    def delay_messages(self, p: float, max_extra: float) -> "FaultPlan":
        """Add uniform extra latency in ``(0, max_extra]`` with
        probability ``p``."""
        if max_extra < 0:
            raise ValueError(f"max_extra must be >= 0, got {max_extra}")
        return self._rule("delay", p, max_extra)

    def corrupt_messages(self, p: float) -> "FaultPlan":
        """Corrupt each transmission in flight with probability ``p``.

        The fault hook flags the transmission; the payload is left as
        is.  The reliable layer's receiver sees the flag and discards
        the copy unacked, so the sender retransmits it on timeout; best
        effort delivers it with ``Message.corrupted`` set."""
        return self._rule("corrupt", p)

    # ------------------------------------------------------------------
    # serialization: plans travel as plain JSON through farm job specs
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form of this plan (inverse of :meth:`from_dict`).

        The schedule is emitted as already-drawn data, so a plan built
        with randomized helpers round-trips exactly."""
        return {
            "seed": self.seed,
            "scheduled": [
                {"time": spec.time, "kind": spec.kind,
                 "target": spec.target, "params": dict(spec.params)}
                for spec in self.scheduled],
            "message_rules": {
                kind: {"p": rule.probability,
                       "max_extra": rule.max_extra}
                for kind, rule in sorted(self.message_rules.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (JSON round-trip
        safe, so farm workers can reconstruct campaign plans from job
        configs)."""
        plan = cls(seed=data.get("seed", 0))
        for spec in data.get("scheduled", ()):
            plan.at(spec["time"], spec["kind"], spec.get("target"),
                    **spec.get("params", {}))
        for kind, rule in data.get("message_rules", {}).items():
            if kind not in MESSAGE_RULES:
                raise ValueError(f"unknown message rule kind {kind!r}")
            plan._rule(kind, rule["p"], rule.get("max_extra", 0.0))
        return plan

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not self.scheduled and not self.message_rules

    def __repr__(self) -> str:
        rules = {k: r.probability for k, r in self.message_rules.items()}
        return (f"FaultPlan(seed={self.seed}, scheduled="
                f"{len(self.scheduled)}, rules={rules})")


__all__ = ["FaultPlan", "FaultSpec", "MessageRule", "MESSAGE_RULES"]
