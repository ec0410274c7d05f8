"""repro.snap -- exact whole-SoC checkpoint/restore.

The restorable counterpart to ``Debugger.system_snapshot()``'s
read-only inspection view: :func:`checkpoint` parks every core at a
reference-path boundary and captures kernel queue + architectural state
into a versioned, digest-sealed :class:`Snapshot`; :func:`restore`
rebuilds the exact run -- bit-identical final RAM, registers, end time
and bus-access order on all three ISS backends.  Powers time travel in
:mod:`repro.vp.debugger` and warm-started campaigns in
:mod:`repro.snap.warm`.
"""

from repro.snap.core import (SNAP_VERSION, Snapshot, SnapshotError,
                             checkpoint, restore)
from repro.snap.warm import cold_run_job, warm_run_job

__all__ = [
    "SNAP_VERSION",
    "Snapshot",
    "SnapshotError",
    "checkpoint",
    "restore",
    "cold_run_job",
    "warm_run_job",
]
