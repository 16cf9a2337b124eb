"""Seeded request lines and arrival schedules for the service workloads.

Everything here is a pure function of the benchmark seed, built with numpy
only: the generator shares no code with the program under test (not
``tools/loadgen.py``, not ``ShardedClient``), so a change to the program
cannot change the load it is measured under.

Draws are *stratified*: a stream of ``n`` requests splits each marginal into
``n`` equal-probability strata and takes one value per stratum.  The
marginals are the stated ones (log-uniform bag sizes, uniform widths,
exponential gaps), but every seed sees the same cost mix and nearly the same
gap mix, so percentiles move with the machine and the program, not with the
luck of the draw.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, List

import numpy as np

#: The seven heuristics of the paper's Section 4.2.
HEURISTICS = ("SRPT", "LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC")
#: Release processes a request's task bag is drawn from.
PROCESSES = ("all-at-zero", "poisson", "uniform")
MIN_WORKERS, MAX_WORKERS = 2, 8
MIN_TASKS, MAX_TASKS = 20, 1000


def encode(payload: Dict[str, Any]) -> str:
    """One request as a canonical JSON line (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms on [0, 1), one per equal-width stratum, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _balanced(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """``n`` indices into ``k`` choices, each used ``n // k`` or one more times."""
    return rng.permutation(np.arange(n) % k)


def requests(seed: int, stream: str, n: int, first_seed: int = 0) -> List[Dict[str, Any]]:
    """``n`` distinct schedule requests (without ``id``) for one stream.

    What drives a request's cost is a fixed *design* that depends on ``n``
    only: bag sizes at the ``n`` mid-quantiles of log-uniform [20, 1000],
    widths 2-8, release processes and heuristics balanced, and the release
    parameters.  The seed draws the order of the rows, the platform speeds
    and the request seeds, so every seed sees the same cost mix.  Request
    ``i`` carries request seed ``first_seed + i``: requests of one run never
    share a cache key when their ``first_seed`` ranges do not overlap.
    """
    design = np.random.default_rng([n, 20061])
    log_lo, log_hi = np.log(MIN_TASKS), np.log(MAX_TASKS + 1)
    sizes = np.floor(np.exp(log_lo + (np.arange(n) + 0.5) / n * (log_hi - log_lo))).astype(int)
    widths = MIN_WORKERS + _balanced(design, n, MAX_WORKERS - MIN_WORKERS + 1)
    processes = _balanced(design, n, len(PROCESSES))
    heuristics = _balanced(design, n, len(HEURISTICS))
    levels = _strata(design, n)
    rng = np.random.default_rng([seed, zlib.crc32(stream.encode())])
    out = []
    for i, row in enumerate(rng.permutation(n)):
        width = int(widths[row])
        comm = [round(float(c), 3) for c in rng.uniform(0.05, 1.0, size=width)]
        comp = [round(float(p), 3) for p in rng.uniform(0.5, 4.0, size=width)]
        process = PROCESSES[int(processes[row])]
        tasks: Dict[str, Any] = {"process": process, "n": int(sizes[row])}
        if process == "poisson":
            tasks["rate"] = round(0.5 + 3.5 * float(levels[row]), 3)
        elif process == "uniform":
            tasks["horizon"] = round(1.0 + 19.0 * float(levels[row]), 3)
        out.append(
            {
                "platform": {"comm": comm, "comp": comp},
                "tasks": tasks,
                "scheduler": HEURISTICS[int(heuristics[row])],
                "seed": first_seed + i,
            }
        )
    return out


def arrivals(seed: int, stream: str, rate: float, seconds: float) -> np.ndarray:
    """Due times (s from step start) of a Poisson stream at ``rate`` req/s.

    Exponential gaps from stratified uniforms; the count is fixed at
    ``round(rate * seconds)`` so every seed sends the same number of
    requests in a step.
    """
    n = max(int(round(rate * seconds)), 1)
    rng = np.random.default_rng([seed, zlib.crc32(stream.encode()), 1])
    gaps = -np.log1p(-_strata(rng, n)) / rate
    return np.cumsum(gaps) - gaps[0]


def pick(seed: int, stream: str, n: int, pool: int) -> np.ndarray:
    """``n`` indices into a pool of ``pool`` requests, balanced and shuffled."""
    rng = np.random.default_rng([seed, zlib.crc32(stream.encode()), 2])
    return _balanced(rng, n, pool)
