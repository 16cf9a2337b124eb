"""The campaign workloads: uncached, serial Figure 1 campaigns.

Each repetition spawns a fresh interpreter running
``repro campaign figure1 --platforms P --tasks N --seed SEED`` (default
``--workers 1``, no cache): the 4 panels x 7 heuristics on 5-worker
platforms, N tasks released at t = 0 per cell.  The campaign is a closed
loop: a cell starts when the previous one has finished.
``paper-figure1`` is the paper's N = 1000; ``figure1-backlog`` runs bags of
N = 3000 on one platform per panel, so each scheduler consult sees three
times the backlog.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from common import ROOT, child_env, log, median, quantile, remove_dir, scratch_dir, slowness

CHILD = ROOT / "perfbench" / "campaign_child.py"
#: Repetitions per untraced run; every time reported is their median, at
#: reference speed (see :func:`common.slowness`).
REPS = 5
#: Each cell's time is divided by the slowness of the probes of the
#: 2 * LOCAL + 1 cells around it, which share its host phase (the host's
#: phases change within a campaign, so one slowness for all of it spread
#: 5x more between repetitions).
LOCAL = 2
#: Panels whose cells give the ``.low`` and ``.high`` latencies: identical
#: links (1a, 1b) and heterogeneous links (1c, 1d), the dimension the
#: one-port master is most sensitive to.
LOW_PANELS = ("homogeneous", "communication-homogeneous")
HIGH_PANELS = ("computation-homogeneous", "heterogeneous")
#: Per-cell tail: 2 panels x 7 heuristics x 4 platforms = 56 cells, and p80
#: is the highest percentile with ten cells beyond it.
TAIL_Q = 0.80
#: Cells re-run in-process per run and compared with the campaign's.
CHECK_SAMPLE = 6


@dataclass(frozen=True)
class CampaignWorkload:
    name: str
    #: tasks per cell (``--tasks``)
    tasks: int
    #: seconds of REPS campaigns per platform per panel, on the reference host
    seconds_per_platform: float

    def platforms_for(self, seconds: float) -> int:
        """Platforms per panel so that REPS campaigns fill about ``seconds``."""
        return max(1, round(seconds / self.seconds_per_platform))


PAPER = CampaignWorkload("paper-figure1", tasks=1000, seconds_per_platform=7.5)
BACKLOG = CampaignWorkload("figure1-backlog", tasks=3000, seconds_per_platform=30.0)
WORKLOADS = {PAPER.name: PAPER, BACKLOG.name: BACKLOG}


def _campaign(seed: int, platforms: int, tasks: int, traced: bool,
              work) -> Tuple[Dict[str, Any], float]:
    """Spawn one campaign; returns its record and the spawn time."""
    out = work / f"campaign-{time.monotonic_ns()}.json"
    argv = [sys.executable, str(CHILD), str(out), "1" if traced else "0",
            "--platforms", str(platforms), "--tasks", str(tasks), "--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"campaign failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    with open(out) as fh:
        return json.load(fh), start


def _check(seed: int, platforms: int, tasks: int,
           records: List[Dict[str, Any]]) -> Tuple[bool, int]:
    """Re-run a seeded sample of cells through ``run_figure1_cell``.

    Also: every repetition printed the same report, every cell ran, and
    every task bag was released at t = 0.  Returns (ok, failed cells).
    """
    from repro.campaigns.grid import resolve_root_seed
    from repro.core.platform import PlatformKind
    from repro.experiments.config import Figure1Config
    from repro.experiments.figure1 import figure1_panel_grid, run_figure1_cell

    expected_cells = 4 * 7 * platforms
    failed = 0
    for rec in records:
        failed += max(expected_cells - len(rec["cells"]), 0)
        if rec["status"] != 0 or rec["report"] != records[0]["report"]:
            log("check: campaign status or report differs between repetitions")
            return False, failed + expected_cells
    first = records[0]["cells"]
    rng = np.random.default_rng([seed, 11])
    for i in sorted(rng.choice(len(first), size=min(CHECK_SAMPLE, len(first)), replace=False)):
        kind, index, scheduler, _, _, metrics, _ = first[int(i)]
        config = Figure1Config(n_platforms=platforms, n_tasks=tasks, seed=seed,
                               kind=PlatformKind(kind))
        cell = figure1_panel_grid(config, resolve_root_seed(seed))[index]
        if cell.param("scheduler") != scheduler or run_figure1_cell(cell) != metrics:
            log(f"check: cell {kind}/{index} does not match the campaign")
            failed += 1
    return failed == 0, failed


def run(workload: CampaignWorkload, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    platforms = workload.platforms_for(seconds)
    work = scratch_dir("figure1-")
    try:
        records = []
        starts = []
        for _ in range(1 if trace else REPS):
            rec, start = _campaign(seed, platforms, workload.tasks, trace, work)
            records.append(rec)
            starts.append(start)
        ok, failed = _check(seed, platforms, workload.tasks, records)
    finally:
        remove_dir(work)

    cells = [c for rec in records for c in rec["cells"]]
    bags = sum(rec["bags"]["total"] for rec in records)
    at_zero = sum(rec["bags"]["at_zero"] for rec in records)
    reps = [_rep_times(rec) for rec in records]
    campaign_s = median([r["campaign_s"] for r in reps])
    per_cell: Dict[Tuple[str, int], List[float]] = {}
    for r in reps:
        for key, ms in r["cells"].items():
            per_cell.setdefault(key, []).append(ms)
    low = [median(ms) for (kind, _), ms in per_cell.items() if kind in LOW_PANELS]
    high = [median(ms) for (kind, _), ms in per_cell.items() if kind in HIGH_PANELS]
    property_ok = bags == len(cells) and at_zero == bags
    raw = [rec["end"] - rec["first_cell"] for rec in records]
    out: Dict[str, Any] = {
        "attempted": len(cells),
        "failed": failed,
        "correct": ok and property_ok,
        "e2e": {
            "setup_s": median([(rec["first_cell"] - s) / r["setup_slowness"]
                               for rec, s, r in zip(records, starts, reps)]),
            "peak_rss_mb": median([rec["peak_rss_mb"] for rec in records]),
            "campaign_s": campaign_s,
            "p50_ms.low": median(low),
            "tail_ms.low": quantile(low, TAIL_Q),
            "p50_ms.high": median(high),
            "tail_ms.high": quantile(high, TAIL_Q),
            "max_rate_rps": len(records[0]["cells"]) / campaign_s,
        },
        "properties": {
            "bags_at_zero_share": at_zero / bags if bags else 0.0,
            "platforms": platforms,
            "ok": property_ok,
        },
        "context": {
            "samples.low": len(low),
            "samples.high": len(high),
            "slowness": [round(r["slowness"], 4) for r in reps],
            "raw.campaign_s": [round(x, 4) for x in raw],
            "valid": True,
        },
    }
    if trace:
        out["layers"] = _layers(records[0])
    return out


def _rep_times(rec: Dict[str, Any]) -> Dict[str, Any]:
    """One repetition's set-up, campaign and cell times at reference speed.

    Each cell's time is divided by the slowness of the probes around it;
    the campaign is the sum of the cells plus the rest of its wall time
    (the probes left out), divided by the slowness of all its probes, and
    set-up is divided by the slowness of the first cells' probes.
    """
    cells = rec["cells"]
    probes = [c[6] for c in cells]
    slow = slowness(probes)
    times = {}
    for i, (kind, index, _, start, end, _, _) in enumerate(cells):
        local = slowness(probes[max(i - LOCAL, 0): i + LOCAL + 1])
        times[kind, index] = (end - start) * 1000.0 / local
    cell_s = sum(c[4] - c[3] for c in cells)
    rest = rec["end"] - rec["first_cell"] - sum(probes[1:]) / 1000.0 - cell_s
    return {
        "campaign_s": sum(times.values()) / 1000.0 + rest / slow,
        "setup_slowness": slowness(probes[: 2 * LOCAL + 1]),
        "slowness": slow,
        "cells": times,
    }


def _layers(rec: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    acc = rec["layers"]
    n = len(rec["cells"])
    # The speed probes run between cells, inside run_campaign: not overhead.
    cell_s = sum(c[4] - c[3] + c[6] / 1000.0 for c in rec["cells"])
    consults = acc["consults"]
    return {
        "workloads.build_ms": (acc["build_s"] / n * 1000.0, "ms"),
        "engine.self_ms": ((acc["simulate_s"] - acc["decide_s"]) / n * 1000.0, "ms"),
        "schedulers.decide_us": (acc["decide_s"] / consults * 1e6, "us"),
        "metrics.evaluate_ms": (acc["evaluate_s"] / n * 1000.0, "ms"),
        "campaigns.overhead_ms": ((acc["run_campaign_s"] - cell_s) / n * 1000.0, "ms"),
        "engine.consults": (consults, "count"),
        "engine.wakeups": (acc.get("wakeups", 0.0), "count"),
        "engine.pending_per_consult": (acc["pending"] / consults, "count"),
        "engine.us_per_task.1k": (rec["growth"]["1k"], "us"),
        "engine.us_per_task.10k": (rec["growth"]["10k"], "us"),
    }
