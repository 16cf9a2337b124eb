"""Shared helpers: percentiles, calibration and speed probes, process facts, paths."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

#: The checkout root (the benchmark runs from it) and the program's sources.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space for state dirs and campaign records, inside the checkout.
WORK = ROOT / ".perfbench_work"


def child_env() -> Dict[str, str]:
    """Environment for program processes: ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def scratch_dir(prefix: str) -> Path:
    """A fresh empty directory under :data:`WORK`."""
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (the one percentile rule of the benchmark)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def calib_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop: context, never a divisor."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return median(times)


#: One speed probe: PROBE_STEPS JSON round trips of a small request-like
#: dict (stdlib code the program cannot change), and its time on the
#: reference host (a 2-vCPU Xeon VM, where 1 in 10 probes reads 3.1 ms).
#: Of the probes tried on that host (an integer loop, a heap of objects,
#: method calls, JSON), the JSON one tracked the engine's speed best: over
#: blocks of about 3 s, the IQR/median of the engine's time divided by the
#: probe's was 0.03-0.04, against 0.15 with the integer loop and 0.24-0.41
#: for the engine's time alone.
PROBE_STEPS = 500
REF_PROBE_MS = 3.1
_PROBE_DOC = {"id": 0, "workers": [1.0, 2.0, 3.5], "tasks": 0, "name": "LS"}


def probe_ms(repeats: int = 1) -> float:
    """Median time of ``repeats`` speed probes, in ms.

    The garbage collector is off during a probe, so the probe's time does
    not depend on how many objects the calling process holds.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            for i in range(PROBE_STEPS):
                json.loads(json.dumps(dict(_PROBE_DOC, id=i, tasks=i % 50), sort_keys=True))
            times.append((time.perf_counter() - start) * 1000.0)
    finally:
        if enabled:
            gc.enable()
    return median(times)


def slowness(probes: Sequence[float]) -> float:
    """How much slower than the reference host the probes ran (1.0 = same).

    A shared host drifts between speeds up to 2x apart, in phases of
    seconds to minutes that even the fastest of several repetitions does
    not escape.  Times are divided by the slowness of probes taken
    in between the timed work, so they read as time on the reference host.
    """
    return median(probes) / REF_PROBE_MS


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def git_sha() -> Optional[str]:
    """The checkout's commit, when it is a git work tree (else ``None``)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance() -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def stop_process(proc: "subprocess.Popen[bytes]", timeout: float = 10.0) -> None:
    """SIGTERM, wait; SIGKILL if it does not exit in time.  Always reaps."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
