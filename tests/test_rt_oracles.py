"""An execution oracle for :func:`~repro.rt.response_time_analysis`.

By the critical-instant theorem, a task's worst-case response time under
preemptive fixed priorities on one processor is the response time of its
first job when every task is released at time 0.  With integer periods,
execution times and deadlines, a unit-step simulation of that schedule
is exact, so over seeded task sets (1-5 tasks, periods 2-40, constrained
deadlines, rate-monotonic and explicit priorities with ties) the
analysis must return each first job's completion time, and ``None``
exactly for the jobs that miss their deadline.
"""

from __future__ import annotations

import random

from repro.rt import PeriodicTask, TaskSet, response_time_analysis

SETS = 3000


def _task_set(seed: int) -> TaskSet:
    rng = random.Random(f"{seed}:rta")
    explicit = rng.random() < 0.5
    # A per-set cap on each task's share of its period, so both
    # schedulable and overloaded sets are common.
    share = rng.choice((1, 2, 3, 5, 8))
    task_set = TaskSet()
    for index in range(rng.randint(1, 5)):
        period = rng.randint(2, 40)
        task_set.add(PeriodicTask(
            f"t{index}", period, rng.randint(1, max(1, period // share)),
            deadline=rng.randint(1, period),
            priority=rng.randint(0, 3) if explicit else None))
    return task_set


def first_job_completions(task_set: TaskSet) -> dict:
    """Completion time of each task's first job, simulated one time unit
    at a time from the synchronous release in ``by_priority()`` order,
    up to the latest deadline (later completions are misses anyway)."""
    order = task_set.by_priority()
    pending = [[] for _ in order]  # remaining work of each released job
    done = {}
    for now in range(int(max(task.deadline for task in order))):
        for queue, task in zip(pending, order):
            if now % task.period == 0:
                queue.append(task.wcet)
        for queue, task in zip(pending, order):
            if queue:
                queue[0] -= 1
                if queue[0] == 0:
                    queue.pop(0)
                    done.setdefault(task.name, now + 1)
                break
    return done


def _mismatches(task_set: TaskSet) -> list:
    analysed = response_time_analysis(task_set)
    simulated = first_job_completions(task_set)
    out = []
    for task in task_set:
        finish = simulated.get(task.name)
        meets = finish is not None and finish <= task.deadline
        expected = finish if meets else None
        if analysed[task.name] != expected:
            out.append((task, analysed[task.name], finish))
    return out


def test_response_times_match_the_simulated_critical_instant():
    mismatches, verdicts, explicit = [], [], 0
    for seed in range(SETS):
        task_set = _task_set(seed)
        found = _mismatches(task_set)
        if found:
            mismatches.append((seed, found))
        verdicts += [response is None for response
                     in response_time_analysis(task_set).values()]
        explicit += task_set.tasks[0].priority is not None
    assert mismatches == []
    # The grid reaches both verdicts and both priority rules.
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8
    assert 0.4 * SETS < explicit < 0.6 * SETS


def test_simulation_reproduces_the_textbook_example():
    task_set = TaskSet()
    task_set.add(PeriodicTask("t1", 4, 1))
    task_set.add(PeriodicTask("t2", 6, 2))
    task_set.add(PeriodicTask("t3", 10, 3))
    assert first_job_completions(task_set) == {"t1": 1, "t2": 3, "t3": 10}
    assert _mismatches(task_set) == []
