"""Child process of the paper-figure1 workload.

Runs ``repro campaign figure1`` through the CLI entry point
(:func:`repro.cli.main`) with benchmark-side timers wrapped around the
public functions the campaign calls, and writes what it saw as JSON::

    python perfbench/campaign_child.py OUT.json TRACED CAMPAIGN-ARGS...

Untraced (``TRACED`` = 0), only the cell runner is wrapped: one speed
probe before each cell (outside its timed interval), one pair of clock
reads per cell, and a check that every task bag is released at t = 0.
Traced (``TRACED`` = 1), the platform draw, the bag, the engine, each
scheduler's ``decide``, metric evaluation and the campaign runner are
timed too, and a growth probe times LS on all-at-zero bags of 1k and 10k
tasks.  Nothing inside the program is changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List

from common import probe_ms, vm_hwm_mb


def main(argv: List[str]) -> int:
    out_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]

    from repro import cli
    from repro.campaigns import runner
    from repro.experiments import figure1

    cells: List[list] = []
    bags = {"total": 0, "at_zero": 0}
    acc: Dict[str, float] = defaultdict(float)

    run_cell = runner.run_cell

    def timed_run_cell(cell):
        probe = probe_ms()
        start = time.monotonic()
        metrics = run_cell(cell)
        end = time.monotonic()
        cells.append(
            [cell.param("kind"), cell.index, cell.param("scheduler"), start, end, metrics, probe]
        )
        return metrics

    runner.run_cell = timed_run_cell

    all_at_zero = figure1.all_at_zero

    def checked_all_at_zero(n):
        start = time.perf_counter()
        tasks = all_at_zero(n)
        acc["build_s"] += time.perf_counter() - start
        # The check runs outside the timed call (it still counts in the cell).
        bags["total"] += 1
        bags["at_zero"] += all(task.release == 0.0 for task in tasks)
        return tasks

    figure1.all_at_zero = checked_all_at_zero

    if traced:
        _wrap_layers(figure1, acc)

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        status = cli.main(["campaign", "figure1"] + cli_args)
    end = time.monotonic()

    record: Dict[str, Any] = {
        "status": status,
        "first_cell": min(c[3] for c in cells) if cells else None,
        "end": end,
        "cells": cells,
        "bags": bags,
        "report": report.getvalue(),
        "peak_rss_mb": vm_hwm_mb(os.getpid()),
    }
    if traced:
        record["layers"] = dict(acc)
        record["growth"] = _growth_probe()
    with open(out_path, "w") as out:
        json.dump(record, out)
    return status


def _wrap_layers(figure1, acc: Dict[str, float]) -> None:
    """Time platform draws, engine runs, decide calls, evaluation, campaigns."""
    from repro.core.engine import Decision

    def timed(name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[name] += time.perf_counter() - start

        return wrapper

    figure1.random_platform = timed("build_s", figure1.random_platform)
    figure1.simulate = timed("simulate_s", figure1.simulate)
    figure1.evaluate = timed("evaluate_s", figure1.evaluate)
    figure1.run_campaign = timed("run_campaign_s", figure1.run_campaign)

    create_scheduler = figure1.create_scheduler

    def counted_scheduler(name):
        scheduler = create_scheduler(name)
        decide = scheduler.decide

        def timed_decide(view):
            acc["consults"] += 1
            acc["pending"] += len(view.pending)
            start = time.perf_counter()
            decision = decide(view)
            acc["decide_s"] += time.perf_counter() - start
            if decision is not None and decision.kind == Decision.WAIT_UNTIL:
                acc["wakeups"] += 1
            return decision

        scheduler.decide = timed_decide
        return scheduler

    figure1.create_scheduler = counted_scheduler


def _growth_probe() -> Dict[str, float]:
    """Engine microseconds per task for LS on all-at-zero bags of 1k and 10k."""
    import numpy as np

    from repro.core.engine import simulate
    from repro.core.platform import PlatformKind
    from repro.schedulers.base import create_scheduler
    from repro.workloads.platforms import PlatformSpec, random_platform
    from repro.workloads.release import all_at_zero

    platform = random_platform(
        PlatformSpec(kind=PlatformKind.HETEROGENEOUS, n_workers=5), np.random.default_rng(0)
    )
    out = {}
    for label, n, repeats in (("1k", 1000, 5), ("10k", 10_000, 2)):
        tasks = all_at_zero(n)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            simulate(create_scheduler("LS"), platform, tasks, expose_task_count=True)
            times.append(time.perf_counter() - start)
        out[label] = sorted(times)[len(times) // 2] / n * 1e6
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
