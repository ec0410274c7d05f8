"""Execution backends for the campaign engine.

Public surface:

- :class:`~repro.farm.backends.base.ExecutorBackend` -- the protocol
  (``submit`` / ``drain`` / ``cancel`` / ``teardown`` + ``in_process``);
- :func:`make_backend` -- name -> backend factory used by
  :class:`repro.farm.Executor` (``"inline"``, ``"daemon"``).
"""

from __future__ import annotations

from repro.farm.backends.base import (
    Completion, ExecutorBackend, InlineBackend, STATUS_CRASH, STATUS_ERROR,
    STATUS_OK, STATUS_RETURNED, execute_payload, fork_available,
    require_fork,
)
from repro.farm.backends.daemon import DaemonBackend, shutdown_daemons, \
    warm_worker_pids

BACKENDS = {
    "inline": InlineBackend,
    "daemon": DaemonBackend,
}


def make_backend(kind: str, width: int) -> ExecutorBackend:
    """Build a backend by name; the daemon backend rejects spawn-only
    platforms here, before any job is dispatched."""
    try:
        factory = BACKENDS[kind]
    except KeyError:
        raise ValueError(f"unknown executor backend {kind!r} "
                         f"(expected one of {sorted(BACKENDS)})") from None
    return factory(width)


__all__ = [
    "BACKENDS", "Completion", "DaemonBackend", "ExecutorBackend",
    "InlineBackend", "STATUS_CRASH", "STATUS_ERROR", "STATUS_OK",
    "STATUS_RETURNED", "execute_payload", "fork_available", "make_backend",
    "require_fork", "shutdown_daemons", "warm_worker_pids",
]
