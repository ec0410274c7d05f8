"""Concurrency graph: which applications can be active simultaneously.

"a concurrency graph is used to capture potential parallelism between
applications, in order to derive the worst case computational loads."

Nodes are application names; an edge means the two applications may run at
the same time.  The worst-case load of a mapping is the maximum, over all
cliques of concurrently-runnable applications, of the summed utilization
each clique places on every PE.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set


class ConcurrencyGraph:
    """Undirected may-run-concurrently graph over application names."""

    def __init__(self) -> None:
        self._adjacent: Dict[str, Set[str]] = {}

    def add_app(self, name: str) -> None:
        self._adjacent.setdefault(name, set())

    def set_concurrent(self, app_a: str, app_b: str) -> None:
        if app_a == app_b:
            raise ValueError("an app is trivially concurrent with itself")
        self._adjacent.setdefault(app_a, set()).add(app_b)
        self._adjacent.setdefault(app_b, set()).add(app_a)

    def apps(self) -> List[str]:
        return sorted(self._adjacent)

    def concurrent(self, app_a: str, app_b: str) -> bool:
        return app_b in self._adjacent.get(app_a, ())

    def scenarios(self) -> List[FrozenSet[str]]:
        """Maximal sets of applications that can all be active at once
        (maximal cliques, by Bron-Kerbosch with pivoting)."""
        adjacent = self._adjacent
        cliques: List[FrozenSet[str]] = []

        def expand(clique: FrozenSet[str], candidates: Set[str],
                   excluded: Set[str]) -> None:
            if not candidates and not excluded:
                cliques.append(clique)
                return
            pivot = max(sorted(candidates | excluded),
                        key=lambda app: len(candidates & adjacent[app]))
            for app in sorted(candidates - adjacent[pivot]):
                expand(clique | {app}, candidates & adjacent[app],
                       excluded & adjacent[app])
                candidates = candidates - {app}
                excluded = excluded | {app}

        if adjacent:
            expand(frozenset(), set(adjacent), set())
        return cliques

    def worst_case_load(self, app_pe_load: Dict[str, Dict[str, float]]) \
            -> Dict[str, float]:
        """Per-PE worst-case utilization over all concurrency scenarios.

        ``app_pe_load[app][pe]`` is the utilization app places on pe under
        the candidate mapping.  Returns ``pe -> max scenario load``.
        """
        worst: Dict[str, float] = {}
        for scenario in self.scenarios():
            load: Dict[str, float] = {}
            # Sum in name order: a frozenset's order follows string
            # hashing, and float addition is not associative.
            for app in sorted(scenario):
                for pe, value in app_pe_load.get(app, {}).items():
                    load[pe] = load.get(pe, 0.0) + value
            for pe, value in load.items():
                worst[pe] = max(worst.get(pe, 0.0), value)
        return worst

    def __len__(self) -> int:
        return len(self._adjacent)


__all__ = ["ConcurrencyGraph"]
