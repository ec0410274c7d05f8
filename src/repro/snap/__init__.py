"""repro.snap -- exact whole-SoC checkpoint/restore.

The restorable counterpart to ``Debugger.system_snapshot()``'s
read-only inspection view: :func:`checkpoint` parks every core at a
reference-path boundary and captures kernel queue + architectural state
into a versioned, digest-sealed :class:`Snapshot`; :func:`restore`
rebuilds the exact run -- bit-identical final RAM, registers, end time
and bus-access order on all three ISS backends.  Powers time travel in
:mod:`repro.vp.debugger`; :meth:`Snapshot.rebuild` resumes a run from a
snapshot alone (the warm leg of bench C1).
"""

from repro.snap.core import (SNAP_VERSION, Snapshot, SnapshotError,
                             checkpoint, restore)

__all__ = [
    "SNAP_VERSION",
    "Snapshot",
    "SnapshotError",
    "checkpoint",
    "restore",
]
