"""Simulated-annealing task mapping: MAPS's second optimization algorithm.

Section IV says task graphs are mapped "using optimization algorithms"
(plural).  HEFT list scheduling (:func:`repro.maps.mapping.map_task_graph`)
is the fast constructive one; this module adds an iterative improver that
explores the assignment space with simulated annealing.  Its cost function
is the *exact* static schedule length of an assignment (list scheduling
with fixed placement), so the two mappers are directly comparable; the A5
ablation bench races them against random mapping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.maps.mapping import Mapping, ScheduledTask
from repro.maps.spec import PlatformSpec
from repro.maps.taskgraph import TaskGraph


class _Schedule(NamedTuple):
    """A scanned assignment: makespan and per-task start and finish."""

    makespan: float
    start: List[float]
    finish: List[float]


class _ScheduleModel:
    """One graph and platform compiled for repeated scheduling.

    Tasks are numbered in ``graph.nodes`` order and PEs in platform
    order; an assignment is a list holding each task's PE number.  The
    model keeps the topological order (and each task's position in
    it), every task's duration on every PE and every task's
    predecessors with the edge's communication cost, so scoring an
    assignment rescans nothing.
    """

    def __init__(self, graph: TaskGraph, platform: PlatformSpec) -> None:
        self.graph = graph
        self.platform = platform
        self.tasks = list(graph.nodes)
        self.task_index = {name: i for i, name in enumerate(self.tasks)}
        self.pe_names = [pe.name for pe in platform.pes]
        self.pe_index = {name: i for i, name in enumerate(self.pe_names)}
        self.order = [self.task_index[name]
                      for name in graph.topological_order()]
        self.position = [0] * len(self.tasks)
        for position, task in enumerate(self.order):
            self.position[task] = position
        self.durations = [[node.cost_on(pe.pe_class, pe.freq)
                           for pe in platform.pes]
                          for node in graph.nodes.values()]
        self.preds = [[(self.task_index[edge.src],
                        platform.comm_cost(edge.words))
                       for edge in graph.in_edges(name)]
                      for name in self.tasks]

    def indices(self, assignment: Dict[str, str]) -> List[int]:
        """Validate a task->PE dict and number it."""
        out = [-1] * len(self.tasks)
        for task, pe_name in assignment.items():
            if task not in self.task_index:
                raise KeyError(f"unknown task {task!r} in assignment")
            if pe_name not in self.pe_index:
                raise KeyError(f"unknown PE {pe_name!r} for task {task!r}")
            out[self.task_index[task]] = self.pe_index[pe_name]
        for task, pe in zip(self.tasks, out):
            if pe < 0:
                raise KeyError(f"task {task!r} has no PE in the assignment")
        return out

    def schedule(self, assign: List[int], first: int = 0,
                 base: Optional[_Schedule] = None) -> _Schedule:
        """Schedule ``assign`` from topological position ``first`` on.

        Tasks run in topological order; on each PE they serialize in
        that order; cross-PE edges pay the platform communication cost.
        A scan from ``first > 0`` resumes ``base``, the schedule of an
        assignment that agrees with ``assign`` on every task before
        ``first``: those tasks and their predecessors are unchanged, so
        their times are ``base``'s.  Each PE's free time before
        ``first`` is then the finish of its last task there (a PE
        serializes in topological order) and the makespan is the largest
        finish there (durations are non-negative), so every later task
        makes the same additions and comparisons as in a scan from 0.
        """
        pe_free = [0.0] * len(self.pe_names)
        makespan = 0.0
        if first:
            start, finish = base.start[:], base.finish[:]
            for task in self.order[:first]:
                end = finish[task]
                pe_free[assign[task]] = end
                if end > makespan:
                    makespan = end
        else:
            start = [0.0] * len(self.tasks)
            finish = [0.0] * len(self.tasks)
        preds, durations = self.preds, self.durations
        for task in self.order[first:]:
            pe = assign[task]
            ready = pe_free[pe]
            for src, comm in preds[task]:
                pred_finish = finish[src]
                if assign[src] != pe:
                    pred_finish += comm
                if pred_finish > ready:
                    ready = pred_finish
            end = ready + durations[task][pe]
            start[task] = ready
            finish[task] = end
            pe_free[pe] = end
            if end > makespan:
                makespan = end
        return _Schedule(makespan, start, finish)

    def mapping(self, assign: List[int],
                key_order: Optional[List[str]] = None) -> Mapping:
        """The full :class:`Mapping` of an assignment; its dict keeps
        ``key_order`` (default: task order)."""
        makespan, start, finish = self.schedule(assign)
        tasks, pe_names, index = self.tasks, self.pe_names, self.task_index
        mapping = Mapping(self.graph, self.platform, assignment={
            task: pe_names[assign[index[task]]]
            for task in (key_order if key_order is not None else tasks)})
        mapping.schedule = [ScheduledTask(tasks[t], pe_names[assign[t]],
                                          start[t], finish[t])
                            for t in self.order]
        mapping.makespan = makespan
        return mapping


def evaluate_assignment(graph: TaskGraph, platform: PlatformSpec,
                        assignment: Dict[str, str]) -> Mapping:
    """Build the static schedule implied by a fixed task->PE assignment.

    Tasks run in topological order; on each PE they serialize in that
    order; cross-PE edges pay the platform communication cost.  Returns a
    full :class:`Mapping` with schedule and makespan.  Raises
    :class:`KeyError` naming the task when the assignment misses a
    task, names an unknown one or uses an unknown PE.
    """
    model = _ScheduleModel(graph, platform)
    return model.mapping(model.indices(assignment), list(assignment))


@dataclass
class AnnealingReport:
    """Search trajectory of one annealing run."""

    best: Mapping
    initial_makespan: float
    iterations: int
    accepted_moves: int
    improved_moves: int
    history: List[float] = field(default_factory=list)


def map_task_graph_annealing(graph: TaskGraph, platform: PlatformSpec,
                             iterations: int = 2000,
                             start_temperature: Optional[float] = None,
                             cooling: float = 0.995,
                             seed: int = 0,
                             initial: Optional[Dict[str, str]] = None) -> AnnealingReport:
    """Simulated-annealing mapping.

    Moves: reassign one random task to a random PE (respecting
    ``preferred_pe`` when the platform has a PE of that class).  Standard
    Metropolis acceptance with geometric cooling.  Deterministic for a
    given seed.  Each trial is scored on a compiled schedule model; only
    the winning assignment becomes a :class:`Mapping`.
    """
    if not platform.pes:
        raise ValueError("platform has no PEs")
    model = _ScheduleModel(graph, platform)
    rng = random.Random(seed)
    task_ids = list(range(len(model.tasks)))
    all_pes = list(range(len(model.pe_names)))
    candidates = [[i for i, pe in enumerate(platform.pes)
                   if pe.pe_class == node.preferred_pe] or all_pes
                  for node in graph.nodes.values()]

    if initial is None:
        current = [rng.choice(options) for options in candidates]
        key_order = None
    else:
        current = model.indices(initial)
        key_order = list(initial)
    state = model.schedule(current)
    current_cost = initial_makespan = state.makespan
    best, best_cost = list(current), current_cost

    temperature = start_temperature
    if temperature is None:
        temperature = max(current_cost * 0.1, 1.0)

    accepted = improved = 0
    history: List[float] = []
    for _step in range(iterations if task_ids else 0):  # empty: no moves
        task = rng.choice(task_ids)
        old_pe = current[task]
        options = [pe for pe in candidates[task] if pe != old_pe]
        if not options:
            continue
        current[task] = rng.choice(options)
        # Tasks before the moved one read nothing the move changed.
        trial = model.schedule(current, model.position[task], state)
        trial_cost = trial.makespan
        delta = trial_cost - current_cost
        accept = delta <= 0 or \
            rng.random() < pow(2.718281828, -delta / max(temperature, 1e-9))
        if accept:
            state, current_cost = trial, trial_cost
            accepted += 1
            if trial_cost < best_cost:
                best, best_cost = list(current), trial_cost
                improved += 1
        else:
            current[task] = old_pe
        temperature *= cooling
        history.append(current_cost)
    return AnnealingReport(model.mapping(best, key_order), initial_makespan,
                           iterations, accepted, improved, history)


def annealing_restart_job(config: Dict[str, object], seed: int) -> Dict[str, object]:
    """Farm job: one annealing restart (pure function of config + seed).

    ``config`` carries the graph and platform as plain dicts
    (:meth:`TaskGraph.to_dict` / :meth:`PlatformSpec.to_dict`) plus the
    annealing knobs; the result is the restart's best assignment and
    trajectory summary as plain JSON.
    """
    graph = TaskGraph.from_dict(config["graph"])
    platform = PlatformSpec.from_dict(config["platform"])
    report = map_task_graph_annealing(
        graph, platform,
        iterations=config.get("iterations", 2000),
        start_temperature=config.get("start_temperature"),
        cooling=config.get("cooling", 0.995),
        seed=seed)
    return {
        "seed": seed,
        "makespan": report.best.makespan,
        "assignment": dict(sorted(report.best.assignment.items())),
        "initial_makespan": report.initial_makespan,
        "accepted_moves": report.accepted_moves,
        "improved_moves": report.improved_moves,
    }


@dataclass
class RestartReport:
    """Outcome of a multi-restart annealing campaign."""

    best: Mapping
    best_seed: int
    runs: List[Dict[str, object]] = field(default_factory=list)

    @property
    def makespans(self) -> List[float]:
        return [run["makespan"] for run in self.runs]


def map_task_graph_annealing_restarts(
        graph: TaskGraph, platform: PlatformSpec, restarts: int = 4,
        iterations: int = 2000, start_temperature: Optional[float] = None,
        cooling: float = 0.995, base_seed: int = 0,
        executor: Optional[object] = None, **farm: object) -> RestartReport:
    """Best-of-N annealing: independent restarts from seeds
    ``base_seed .. base_seed+restarts-1``.

    Restarts are independent pure functions of (config, seed), so they
    run as a farm campaign; with an :class:`repro.farm.Executor` -- or
    the uniform farm keywords (``jobs=``, ``backend=``, ``cache=``,
    ...) -- they shard across workers (and hit the result cache), with
    neither they run in-process; all paths produce the identical
    report.  The winner is the lowest makespan, ties broken by lowest
    seed.
    """
    from repro.farm.engine import Campaign, resolve_executor

    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    config = {"graph": graph.to_dict(), "platform": platform.to_dict(),
              "iterations": iterations,
              "start_temperature": start_temperature, "cooling": cooling}
    campaign = Campaign.build("annealing-restarts",
                              executor=resolve_executor(executor, **farm))
    for seed in range(base_seed, base_seed + restarts):
        campaign.add(annealing_restart_job, config=config, seed=seed,
                     name=f"anneal[seed={seed}]")
    runs = campaign.run().raise_on_failure().results
    winner = min(runs, key=lambda run: (run["makespan"], run["seed"]))
    best = evaluate_assignment(graph, platform,
                               dict(winner["assignment"]))
    return RestartReport(best=best, best_seed=winner["seed"], runs=runs)


def map_task_graph_random(graph: TaskGraph, platform: PlatformSpec,
                          tries: int = 50, seed: int = 0) -> Mapping:
    """Random-restart baseline: best of ``tries`` random assignments."""
    if tries < 1:
        raise ValueError(f"tries must be >= 1, got {tries}")
    if not platform.pes:
        raise ValueError("platform has no PEs")
    model = _ScheduleModel(graph, platform)
    rng = random.Random(seed)
    all_pes = list(range(len(model.pe_names)))
    best: List[int] = []
    best_cost = 0.0
    for attempt in range(tries):
        assign = [rng.choice(all_pes) for _task in model.tasks]
        cost = model.schedule(assign).makespan
        if attempt == 0 or cost < best_cost:
            best, best_cost = assign, cost
    return model.mapping(best)


__all__ = ["AnnealingReport", "RestartReport", "annealing_restart_job",
           "evaluate_assignment", "map_task_graph_annealing",
           "map_task_graph_annealing_restarts", "map_task_graph_random"]
