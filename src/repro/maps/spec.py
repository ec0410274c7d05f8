"""Application and platform specifications for MAPS.

Applications are "specified either as sequential C code or in the form of
pre-parallelized processes.  In addition, using some lightweight C
extensions, real-time properties such as latency and period as well as
preferred PE types can be optionally annotated."  The annotations live in
:class:`ApplicationSpec` rather than pragmas -- same information, honest
Python API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from repro.cir.nodes import Program
from repro.cir.analysis.cost import CostWeights


class PEClass(Enum):
    """Processing-element classes of the coarse architecture model."""

    RISC = "risc"
    DSP = "dsp"
    VLIW = "vliw"
    ACCELERATOR = "accelerator"

    @property
    def weights(self) -> CostWeights:
        return CostWeights.for_pe_class(self.value)


class RTClass(Enum):
    """Real-time class of an application.

    "Hard real-time applications are scheduled statically, while soft and
    non-real-time applications are scheduled dynamically according to
    their priority in best effort manner."
    """

    HARD = "hard"
    SOFT = "soft"
    BEST_EFFORT = "best_effort"


@dataclass
class PESpec:
    """One processing element of the target platform."""

    name: str
    pe_class: PEClass = PEClass.RISC
    freq: float = 1.0  # speed multiplier

    def __post_init__(self) -> None:
        # Adversarial-config guard: a zero/negative/non-finite frequency
        # mis-simulates (division by freq everywhere) instead of failing;
        # the architecture generator will produce such corners, so they
        # must be rejected loudly at construction.
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"PE name must be a non-empty string, "
                             f"got {self.name!r}")
        if not (isinstance(self.freq, (int, float))
                and math.isfinite(self.freq) and self.freq > 0):
            raise ValueError(f"PE {self.name!r}: freq must be a positive "
                             f"finite number, got {self.freq!r}")

    def cycles_for(self, abstract_cost: float) -> float:
        return abstract_cost / self.freq


@dataclass
class PlatformSpec:
    """The predefined heterogeneous MPSoC platform MAPS targets."""

    name: str = "platform"
    pes: List[PESpec] = field(default_factory=list)
    channel_setup_cost: float = 10.0     # cycles per message
    channel_word_cost: float = 0.5       # cycles per word transferred
    scheduler_dispatch_cost: float = 50.0  # SW-OS task dispatch cycles

    def __post_init__(self) -> None:
        for label in ("channel_setup_cost", "channel_word_cost",
                      "scheduler_dispatch_cost"):
            value = getattr(self, label)
            if not (isinstance(value, (int, float))
                    and math.isfinite(value) and value >= 0):
                raise ValueError(f"{label} must be a non-negative finite "
                                 f"number, got {value!r}")
        # PEs handed in directly (bypassing add_pe) get the same
        # duplicate-name check the builder path enforces.
        names = [pe.name for pe in self.pes]
        if len(set(names)) != len(names):
            duplicate = next(n for n in names if names.count(n) > 1)
            raise ValueError(f"duplicate PE {duplicate!r}")

    def add_pe(self, name: str, pe_class: PEClass = PEClass.RISC,
               freq: float = 1.0) -> PESpec:
        if any(pe.name == name for pe in self.pes):
            raise ValueError(f"duplicate PE {name!r}")
        pe = PESpec(name, pe_class, freq)
        self.pes.append(pe)
        return pe

    def pe(self, name: str) -> PESpec:
        for pe in self.pes:
            if pe.name == name:
                return pe
        raise KeyError(f"no PE named {name!r}")

    def comm_cost(self, words: int) -> float:
        return self.channel_setup_cost + self.channel_word_cost * words

    @classmethod
    def symmetric(cls, n_pes: int, pe_class: PEClass = PEClass.RISC,
                  **kwargs) -> "PlatformSpec":
        platform = cls(name=f"smp{n_pes}", **kwargs)
        for index in range(n_pes):
            platform.add_pe(f"pe{index}", pe_class)
        return platform

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_dict`), used by farm
        job configs to ship a platform to worker processes."""
        return {
            "name": self.name,
            "pes": [{"name": pe.name, "pe_class": pe.pe_class.value,
                     "freq": pe.freq} for pe in self.pes],
            "channel_setup_cost": self.channel_setup_cost,
            "channel_word_cost": self.channel_word_cost,
            "scheduler_dispatch_cost": self.scheduler_dispatch_cost,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlatformSpec":
        platform = cls(
            name=data.get("name", "platform"),
            channel_setup_cost=data.get("channel_setup_cost", 10.0),
            channel_word_cost=data.get("channel_word_cost", 0.5),
            scheduler_dispatch_cost=data.get("scheduler_dispatch_cost",
                                             50.0))
        for pe in data.get("pes", ()):
            platform.add_pe(pe["name"],
                            PEClass(pe.get("pe_class", "risc")),
                            pe.get("freq", 1.0))
        return platform


@dataclass
class ApplicationSpec:
    """One application entering the MAPS flow.

    Exactly one of ``program`` (sequential mini-C, to be partitioned from
    ``entry``) or ``task_graph`` (pre-parallelized processes) is given.
    """

    name: str
    program: Optional[Program] = None
    entry: str = "main"
    task_graph: Optional["TaskGraph"] = None  # noqa: F821 (late import)
    rt_class: RTClass = RTClass.BEST_EFFORT
    period: Optional[float] = None      # annotation: activation period
    latency: Optional[float] = None     # annotation: max end-to-end latency
    priority: int = 10                  # for dynamic best-effort scheduling
    preferred_pe: Optional[PEClass] = None

    def __post_init__(self) -> None:
        if (self.program is None) == (self.task_graph is None):
            raise ValueError(
                f"app {self.name!r}: give exactly one of program/task_graph")
        if self.rt_class == RTClass.HARD and self.period is None:
            raise ValueError(
                f"app {self.name!r}: hard real-time needs a period annotation")


__all__ = ["ApplicationSpec", "PEClass", "PESpec", "PlatformSpec", "RTClass"]
