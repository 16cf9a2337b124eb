"""The benchmark's request generator is deterministic and seed-driven.

Run with ``python -m pytest perfbench/test_generator.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402


def _stream_bytes(seed: int) -> bytes:
    requests = gen.requests(seed, "miss", 200) + gen.requests(seed, "warm", 32, first_seed=200)
    lines = [gen.encode(dict(r, id=f"r{i}")) for i, r in enumerate(requests)]
    due = gen.arrivals(seed, "low0", 8.0, 20.0)
    picks = gen.pick(seed, "high0", 500, 32)
    return "\n".join(lines).encode() + due.tobytes() + picks.tobytes()


def test_same_seed_same_bytes():
    assert _stream_bytes(3) == _stream_bytes(3)


def test_other_seed_other_bytes():
    assert _stream_bytes(3) != _stream_bytes(4)


def test_requests_are_distinct_and_in_range():
    requests = gen.requests(5, "miss", 700)
    assert len({gen.encode(r) for r in requests}) == len(requests)
    for r in requests:
        width = len(r["platform"]["comm"])
        assert gen.MIN_WORKERS <= width <= gen.MAX_WORKERS == 8
        assert len(r["platform"]["comp"]) == width
        assert gen.MIN_TASKS <= r["tasks"]["n"] <= gen.MAX_TASKS
        assert r["tasks"]["process"] in gen.PROCESSES
        assert r["scheduler"] in gen.HEURISTICS
    # balanced categorical draws: every heuristic and process within one use
    for counts in (
        [sum(r["scheduler"] == h for r in requests) for h in gen.HEURISTICS],
        [sum(r["tasks"]["process"] == p for r in requests) for p in gen.PROCESSES],
    ):
        assert max(counts) - min(counts) <= 1


def test_bag_sizes_are_log_uniform():
    sizes = np.array([r["tasks"]["n"] for r in gen.requests(9, "miss", 1000)])
    # half the mass below the geometric midpoint of [20, 1000]
    share = np.mean(sizes < np.sqrt(gen.MIN_TASKS * (gen.MAX_TASKS + 1)))
    assert abs(share - 0.5) < 0.01


def test_arrivals_are_poisson_at_the_rate():
    due = gen.arrivals(11, "low0", 8.0, 100.0)
    assert len(due) == 800 and due[0] == 0.0
    gaps = np.diff(due)
    assert np.all(gaps > 0)
    assert abs(gaps.mean() - 1 / 8.0) < 0.01
    # exponential gaps: coefficient of variation near one
    assert abs(gaps.std() / gaps.mean() - 1.0) < 0.1
