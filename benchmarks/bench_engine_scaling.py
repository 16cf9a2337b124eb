"""Benchmark: scaling of the one-port simulation engine.

Not a paper figure — a substrate sanity benchmark that tracks how the
event-driven engine scales with the number of tasks and of workers, so that
campaign-level regressions can be traced back to the engine.

Run with:  pytest benchmarks/bench_engine_scaling.py --benchmark-only

Run as a script, it is the linearity gate: it times LS on all-at-zero bags
of 1k, 10k and 100k tasks, prints the cost per task and exits non-zero when
the 100k cost per task exceeds ``MAX_GROWTH`` times the 1k one::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Dict, Tuple

import pytest

from repro.core.engine import simulate
from repro.core.platform import Platform
from repro.schedulers import ListScheduler
from repro.workloads.release import all_at_zero

#: Bag sizes of the linearity gate; the gate compares the last to the first.
GROWTH_SIZES = (1_000, 10_000, 100_000)
#: Largest allowed ratio of the 100k to the 1k cost per task.
MAX_GROWTH = 2.0
#: Interleaved repeats; the gate takes the median of their ratios.
REPEATS = 5
#: Back-to-back runs of the 1k bag per timing (best taken), so its short
#: timing is not left to a single scheduler tick.
SMALL_RUNS = 5


def _platform(n_workers: int) -> Platform:
    comm = [0.05 + 0.01 * (j % 7) for j in range(n_workers)]
    comp = [0.5 + 0.25 * (j % 5) for j in range(n_workers)]
    return Platform.from_times(comm, comp)


def us_per_task(platform: Platform, tasks, runs: int = 1) -> float:
    """Best-of-``runs`` LS simulation time per task, in microseconds."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        simulate(ListScheduler(), platform, tasks)
        best = min(best, time.perf_counter() - start)
    return best / len(tasks) * 1e6


def growth_table() -> Tuple[Dict[int, float], float]:
    """Median cost per task of each bag size and the median growth ratio.

    The sizes are interleaved inside each repeat: the 1k bag, the larger
    bags, then the 1k bag again.  A repeat's ratio divides the 100k cost per
    task by the mean of the two 1k costs around it, so a slow phase of the
    machine that spans the repeat cancels out, and the median over repeats
    drops a phase that hits one timing only.
    """
    platform = _platform(5)
    small, *larger = GROWTH_SIZES
    bags = {n: all_at_zero(n) for n in GROWTH_SIZES}
    us_per_task(platform, bags[small])  # warm-up
    costs: Dict[int, list] = {n: [] for n in GROWTH_SIZES}
    ratios = []
    for _ in range(REPEATS):
        before = us_per_task(platform, bags[small], SMALL_RUNS)
        for n in larger:
            costs[n].append(us_per_task(platform, bags[n]))
        after = us_per_task(platform, bags[small], SMALL_RUNS)
        costs[small] += [before, after]
        ratios.append(costs[larger[-1]][-1] / ((before + after) / 2))
    table = {n: statistics.median(c) for n, c in costs.items()}
    return table, statistics.median(ratios)


@pytest.mark.parametrize("n_tasks", GROWTH_SIZES)
def test_engine_scaling_tasks(benchmark, n_tasks):
    """Simulation cost as the task count grows (5 workers)."""
    platform = _platform(5)
    tasks = all_at_zero(n_tasks)
    schedule = benchmark(simulate, ListScheduler(), platform, tasks)
    assert len(schedule) == n_tasks
    assert schedule.is_feasible()


@pytest.mark.parametrize("n_workers", [2, 8, 32])
def test_engine_scaling_workers(benchmark, n_workers):
    """Simulation cost as the worker count grows (1000 tasks)."""
    platform = _platform(n_workers)
    tasks = all_at_zero(1000)
    schedule = benchmark(simulate, ListScheduler(), platform, tasks)
    assert len(schedule) == 1000


def main() -> int:
    """Print the per-task cost table; fail when growth exceeds the bound."""
    table, growth = growth_table()
    for n_tasks, cost in table.items():
        print(f"LS, all at zero, {n_tasks:>7} tasks: {cost:7.1f} us/task")
    verdict = "ok" if growth <= MAX_GROWTH else "FAIL"
    print(f"growth {GROWTH_SIZES[-1]}/{GROWTH_SIZES[0]} (median of {REPEATS} "
          f"interleaved ratios): {growth:.2f}x (bound {MAX_GROWTH:.2f}x) {verdict}")
    return 0 if growth <= MAX_GROWTH else 1


if __name__ == "__main__":
    sys.exit(main())
