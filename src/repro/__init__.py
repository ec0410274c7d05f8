"""Reproduction of *Programming MPSoC Platforms: Road Works Ahead!* (DATE 2009).

The paper is a special-session survey of MPSoC programming challenges.  This
package implements every system it describes, on a pure-Python simulated
substrate:

- :mod:`repro.desim` -- discrete-event simulation kernel (SystemC stand-in).
- :mod:`repro.cir` -- a mini-C language with analyses (C stand-in).
- :mod:`repro.dataflow` -- SDF/CSDF graphs, throughput and buffer sizing.
- :mod:`repro.rt` -- time-triggered and data-driven real-time executives.
- :mod:`repro.manycore` -- homogeneous many-core HW/OS model (section II).
- :mod:`repro.vp` -- virtual platform with a tiny ISA and a non-intrusive
  debugger (section VII).
- :mod:`repro.maps` -- the MAPS parallelization and mapping flow (section IV).
- :mod:`repro.hopes` -- the HOPES/CIC retargetable programming flow (section V).
- :mod:`repro.recoder` -- the designer-controlled Source Recoder (section VI).
- :mod:`repro.snap` -- exact whole-SoC checkpoint/restore: time-travel
  debugging and runs resumed from a snapshot.
"""

__version__ = "1.0.0"

__all__ = [
    "desim",
    "cir",
    "dataflow",
    "rt",
    "manycore",
    "vp",
    "maps",
    "hopes",
    "recoder",
    "snap",
    "core",
]
