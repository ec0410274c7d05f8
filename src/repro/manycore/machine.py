"""Chip-level machine model: cores, ISAs, frequency, mesh geometry.

Section II: "the design shall avoid any centralized constructs and rely
instead on a fully distributed, homogeneous approach, including L1 and L2
cache / local memory -- i.e., L2 cache / local memory shall be bound to
cores."  A :class:`Machine` is a grid of :class:`Core` objects, each with
its own local store; inter-core distance follows the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Core:
    """One processing core.

    ``freq`` is a speed multiplier relative to the base core (1.0).  The
    frequency governor may change it at runtime within the machine's power
    budget -- section II's "frequency variability per core".
    """

    core_id: int
    isa: str = "isa0"
    freq: float = 1.0
    max_freq: float = 4.0
    local_memory_words: int = 1 << 16

    def __post_init__(self) -> None:
        if self.freq <= 0:
            raise ValueError("freq must be positive")

    def cycles_for(self, work: float) -> float:
        """Wall time to execute ``work`` base-core units at current freq."""
        return work / self.freq

    def __repr__(self) -> str:
        return f"Core({self.core_id}, isa={self.isa}, f={self.freq:g})"


def mesh_distance(core_a: int, core_b: int, width: int) -> int:
    """Manhattan hop distance between two cores on a ``width``-wide mesh."""
    ax, ay = core_a % width, core_a // width
    bx, by = core_b % width, core_b // width
    return abs(ax - bx) + abs(ay - by)


def torus_distance(core_a: int, core_b: int, width: int,
                   n_cores: int) -> int:
    """Manhattan hop distance on a ``width``-wide 2D torus: both axes
    wrap, so the hop count per axis is the shorter way around."""
    height = n_cores // width
    ax, ay = core_a % width, core_a // width
    bx, by = core_b % width, core_b // width
    dx = abs(ax - bx)
    dy = abs(ay - by)
    return min(dx, width - dx) + min(dy, height - dy)


def ring_distance(core_a: int, core_b: int, n_cores: int) -> int:
    """Hop distance on a unidirectional-geometry ring (shorter arc)."""
    delta = abs(core_a - core_b) % n_cores
    return min(delta, n_cores - delta)


TOPOLOGIES = ("mesh", "torus", "ring")


@dataclass
class Machine:
    """A many-core chip.

    ``isa_map`` assigns ISAs to cores; the default is fully homogeneous.
    A heterogeneous machine (for the E1 comparison) is built with
    :meth:`heterogeneous`.
    """

    n_cores: int
    mesh_width: Optional[int] = None
    power_budget: Optional[float] = None  # sum of freq allowed, None = inf
    cores: List[Core] = field(default_factory=list)
    topology: str = "mesh"  # "mesh" | "torus" | "ring" (hop geometry)

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("need at least one core")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, "
                             f"got {self.topology!r}")
        if self.mesh_width is None:
            # Default grid: the widest divisor of n_cores not exceeding
            # the square root, so the grid is always rectangular (the
            # perfect-square default is unchanged).
            root = max(1, int(math.isqrt(self.n_cores)))
            width = next(w for w in range(root, 0, -1)
                         if self.n_cores % w == 0)
            self.mesh_width = width
        else:
            # An explicit width must tile the cores into full rows: a
            # ragged last row silently mis-models every hop distance, so
            # reject it at construction (the architecture generator
            # produces such corners on purpose).
            if self.mesh_width < 1:
                raise ValueError(f"mesh_width must be >= 1, "
                                 f"got {self.mesh_width}")
            if self.n_cores % self.mesh_width != 0:
                raise ValueError(
                    f"non-rectangular mesh: {self.n_cores} cores do not "
                    f"fill rows of width {self.mesh_width}")
        if self.power_budget is not None and not (
                isinstance(self.power_budget, (int, float))
                and math.isfinite(self.power_budget)
                and self.power_budget > 0):
            raise ValueError(f"power_budget must be positive and finite, "
                             f"got {self.power_budget!r}")
        if not self.cores:
            self.cores = [Core(i) for i in range(self.n_cores)]

    @classmethod
    def homogeneous(cls, n_cores: int, freq: float = 1.0,
                    power_budget: Optional[float] = None) -> "Machine":
        if freq <= 0:
            raise ValueError("freq must be positive")
        machine = cls(n_cores, power_budget=power_budget)
        for core in machine.cores:
            core.freq = freq
        return machine

    @classmethod
    def heterogeneous(cls, n_cores: int, isa_split: Dict[str, float],
                      freqs: Optional[Dict[str, float]] = None) -> "Machine":
        """A machine whose cores are statically partitioned between ISAs.

        ``isa_split`` maps ISA name to the fraction of cores it receives;
        fractions must sum to 1.  This is the "a priori partitioning of the
        functionality to different types of HW" that section II argues
        inhibits scalability.
        """
        total = sum(isa_split.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"isa fractions must sum to 1, got {total}")
        machine = cls(n_cores)
        freqs = freqs or {}
        for isa, freq in freqs.items():
            if freq <= 0:
                raise ValueError(f"isa {isa!r}: freq must be positive, "
                                 f"got {freq!r}")
        assigned = 0
        items = sorted(isa_split.items())
        for index, (isa, fraction) in enumerate(items):
            count = (n_cores - assigned if index == len(items) - 1
                     else int(round(fraction * n_cores)))
            for core in machine.cores[assigned:assigned + count]:
                core.isa = isa
                core.freq = freqs.get(isa, 1.0)
            assigned += count
        return machine

    @property
    def total_frequency(self) -> float:
        return sum(core.freq for core in self.cores)

    def distance(self, core_a: int, core_b: int) -> int:
        if self.topology == "torus":
            return torus_distance(core_a, core_b, self.mesh_width or 1,
                                  self.n_cores)
        if self.topology == "ring":
            return ring_distance(core_a, core_b, self.n_cores)
        return mesh_distance(core_a, core_b, self.mesh_width or 1)

    def check_power(self) -> None:
        """Raise if current per-core frequencies exceed the power budget."""
        if self.power_budget is not None and \
                self.total_frequency > self.power_budget + 1e-9:
            raise ValueError(
                f"power budget exceeded: {self.total_frequency:g} > "
                f"{self.power_budget:g}")

    def __repr__(self) -> str:
        isas = sorted({core.isa for core in self.cores})
        return f"Machine({self.n_cores} cores, isas={isas})"


@dataclass
class ManyCoreConfig:
    """A validated, JSON-pure description of a many-core chip.

    This is the form the architecture generator (:mod:`repro.gen.arch`)
    emits and farm jobs ship between processes: everything a
    :class:`Machine` needs, checked *loudly* at construction.  A config
    that would mis-simulate -- zero/negative/non-finite frequencies, a
    mesh width that leaves a ragged last row, an unknown topology --
    raises :class:`ValueError` here instead of producing silently wrong
    hop distances or cycle counts downstream.
    """

    n_cores: int
    mesh_width: Optional[int] = None
    topology: str = "mesh"
    freqs: Optional[List[float]] = None  # per-core; None = all 1.0
    power_budget: Optional[float] = None
    local_memory_words: int = 1 << 16

    def __post_init__(self) -> None:
        if not isinstance(self.n_cores, int) or self.n_cores < 1:
            raise ValueError(f"n_cores must be a positive int, "
                             f"got {self.n_cores!r}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, "
                             f"got {self.topology!r}")
        if self.mesh_width is not None:
            if not isinstance(self.mesh_width, int) or self.mesh_width < 1:
                raise ValueError(f"mesh_width must be a positive int, "
                                 f"got {self.mesh_width!r}")
            if self.n_cores % self.mesh_width != 0:
                raise ValueError(
                    f"non-rectangular mesh: {self.n_cores} cores do not "
                    f"fill rows of width {self.mesh_width}")
        if self.freqs is not None:
            if len(self.freqs) != self.n_cores:
                raise ValueError(
                    f"freqs has {len(self.freqs)} entries for "
                    f"{self.n_cores} cores")
            for index, freq in enumerate(self.freqs):
                if not (isinstance(freq, (int, float))
                        and math.isfinite(freq) and freq > 0):
                    raise ValueError(
                        f"core {index}: freq must be positive and "
                        f"finite, got {freq!r}")
        if self.power_budget is not None and not (
                isinstance(self.power_budget, (int, float))
                and math.isfinite(self.power_budget)
                and self.power_budget > 0):
            raise ValueError(f"power_budget must be positive and finite, "
                             f"got {self.power_budget!r}")
        if not isinstance(self.local_memory_words, int) \
                or self.local_memory_words < 1:
            raise ValueError(f"local_memory_words must be a positive int, "
                             f"got {self.local_memory_words!r}")
        if self.power_budget is not None and self.freqs is not None \
                and sum(self.freqs) > self.power_budget + 1e-9:
            raise ValueError(
                f"power budget exceeded at construction: "
                f"{sum(self.freqs):g} > {self.power_budget:g}")

    # ------------------------------------------------------------------
    def build(self) -> Machine:
        """Materialize the validated config into a :class:`Machine`."""
        machine = Machine(self.n_cores, mesh_width=self.mesh_width,
                          power_budget=self.power_budget,
                          topology=self.topology)
        for core in machine.cores:
            core.local_memory_words = self.local_memory_words
            if self.freqs is not None:
                core.freq = self.freqs[core.core_id]
        return machine

    def to_dict(self) -> dict:
        return {"n_cores": self.n_cores, "mesh_width": self.mesh_width,
                "topology": self.topology,
                "freqs": list(self.freqs) if self.freqs is not None
                else None,
                "power_budget": self.power_budget,
                "local_memory_words": self.local_memory_words}

    @classmethod
    def from_dict(cls, data: dict) -> "ManyCoreConfig":
        unknown = set(data) - {"n_cores", "mesh_width", "topology",
                               "freqs", "power_budget",
                               "local_memory_words"}
        if unknown:
            raise ValueError(f"unknown ManyCoreConfig key(s): "
                             f"{sorted(unknown)}")
        if "n_cores" not in data:
            raise ValueError("ManyCoreConfig needs n_cores")
        return cls(n_cores=data["n_cores"],
                   mesh_width=data.get("mesh_width"),
                   topology=data.get("topology", "mesh"),
                   freqs=data.get("freqs"),
                   power_budget=data.get("power_budget"),
                   local_memory_words=data.get("local_memory_words",
                                               1 << 16))


__all__ = ["Core", "Machine", "ManyCoreConfig", "TOPOLOGIES",
           "mesh_distance", "ring_distance", "torus_distance"]
