"""Service workloads: one ``repro serve --listen`` shard under load.

The load generator is a single-threaded, non-blocking JSONL-over-TCP client
on one connection.  On service-hit and service-miss it sends each request
line at its due time, never waits for a reply before sending the next (open
loop), and times every request from its *due* time to the arrival of its
response line, so a server stall also charges the requests queued behind
it.  How late the generator itself sent is recorded per request
(``loadgen.late_ms``).  On service-serial it sends one request at a time
(closed loop, see :func:`_measure_serial`).
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import gen
from common import (
    ROOT,
    child_env,
    log,
    median,
    probe_ms,
    quantile,
    remove_dir,
    scratch_dir,
    slowness,
    stop_process,
    vm_hwm_mb,
)


@dataclass(frozen=True)
class ServiceWorkload:
    """Fixed parameters of one service workload (rates are absolute req/s)."""

    name: str
    low_rps: float
    high_rps: float
    #: tail percentile and the limit ``max_rate_rps`` must meet
    tail_q: float
    tail_limit_ms: float
    #: size of the hit pool (``None``: every request distinct)
    pool: Optional[int]
    #: low and high steps alternate this many times, so both see the same drift
    rounds: int


MISS = ServiceWorkload(
    name="service-miss", low_rps=8.0, high_rps=22.0, tail_q=0.90, tail_limit_ms=300.0,
    pool=None, rounds=4,
)
HIT = ServiceWorkload(
    name="service-hit", low_rps=600.0, high_rps=2000.0, tail_q=0.90, tail_limit_ms=20.0,
    pool=32, rounds=6,
)
#: Distinct requests sent one at a time (see :func:`_measure_serial`); the
#: rates and the ladder do not apply.
SERIAL = ServiceWorkload(
    name="service-serial", low_rps=0.0, high_rps=0.0, tail_q=0.90, tail_limit_ms=0.0,
    pool=None, rounds=0,
)
WORKLOADS = {MISS.name: MISS, HIT.name: HIT, SERIAL.name: SERIAL}

#: The cache capacity of a default shard; service-miss must exceed it.
DEFAULT_CACHE_ENTRIES = 1024
#: A closed batch (the service's "campaign") is requests sent at once, timed
#: to the last reply, BATCHES times per run: BATCH_REQUESTS distinct requests
#: on service-miss (the first also warms the server before timing) and
#: HIT_BATCH_REQUESTS drawn from the warmed pool on service-hit, after one
#: untimed batch (the first read 1.5x slower than the rest).
BATCH_REQUESTS = 128
HIT_BATCH_REQUESTS = 4096
BATCHES = 6
#: Attempts at a ladder rung before it counts as failed.
RUNG_ATTEMPTS = 2
#: Server spawns per run; ``setup_s`` is their median.
SETUPS = 3
#: The ladder's first rung, as a multiple of the high rate; rungs of
#: RUNG_SECONDS climb by LADDER_GROWTH, at most MAX_RUNGS of them, then
#: REFINE bisection rungs narrow the bracket.
LADDER_START = 2.5
LADDER_GROWTH = 1.2
RUNG_SECONDS = 2.5
MAX_RUNGS = 12
REFINE = 2
#: Responses compared byte for byte with the in-process ``serve_lines``.
CHECK_SAMPLE = 8
#: Speed probes before and after every step, spawn and batch (their median
#: each); the step's times are divided by its slowness.
PROBES = 5


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Placement:
    """The CPUs of the shard and of the load generator (``None``: unpinned).

    On two or more CPUs they are kept apart, and speed probes run on the
    shard's CPU while the shard is idle: a shared host slows its CPUs
    unevenly, and it is the shard's that sets the service's speed.
    """

    shard: Optional[int] = None
    generator: Optional[int] = None

    @classmethod
    def split(cls) -> "Placement":
        cpus = sorted(os.sched_getaffinity(0))
        return cls(cpus[-1], cpus[0]) if len(cpus) > 1 else cls()

    def pin_shard(self) -> None:
        """In the shard's process before it starts (``preexec_fn``)."""
        if self.shard is not None:
            os.sched_setaffinity(0, {self.shard})

    def probe(self, repeats: int = PROBES) -> float:
        """Median of ``repeats`` speed probes on the shard's CPU, in ms."""
        if self.shard is None:
            return probe_ms(repeats)
        os.sched_setaffinity(0, {self.shard})
        try:
            return probe_ms(repeats)
        finally:
            os.sched_setaffinity(0, {self.generator})


class Server:
    """One shard process: spawned, awaited until it accepts, stopped."""

    def __init__(self, state_dir: Path, trace: bool, place: Placement) -> None:
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--listen", "127.0.0.1:0", "--state-dir", str(state_dir),
        ]
        if trace:
            argv.append("--trace")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), preexec_fn=place.pin_shard,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.place = place
        try:
            host, port = self._await_listening(start + 60.0)
            self.sock = socket.create_connection((host, port), timeout=30.0)
        except BaseException:
            stop_process(self.proc)
            raise
        self.setup_s = time.monotonic() - start
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._inbuf = b""

    def _await_listening(self, deadline: float) -> Tuple[str, int]:
        assert self.proc.stderr is not None
        fd = self.proc.stderr.fileno()
        text = b""
        while time.monotonic() < deadline:
            with selectors.DefaultSelector() as sel:
                sel.register(fd, selectors.EVENT_READ)
                if not sel.select(max(deadline - time.monotonic(), 0.0)):
                    break
            chunk = self.proc.stderr.read1(65536)
            if not chunk:
                break
            text += chunk
            for line in text.decode(errors="replace").splitlines():
                if line.startswith("listening on "):
                    host, _, port = line.split()[2].rpartition(":")
                    return host, int(port)
        raise RuntimeError(f"server did not start: {text.decode(errors='replace')[-2000:]}")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def close(self) -> None:
        try:
            # One round trip first: a shard told to stop while it is still
            # setting up a just-accepted connection can idle in its drain.
            self.control("stats")
        except (OSError, RuntimeError, ValueError):
            pass
        try:
            self.sock.close()
        finally:
            stop_process(self.proc)
            if self.proc.stderr is not None:
                self.proc.stderr.close()

    # -- wire --------------------------------------------------------------
    def drive(self, lines: Sequence[bytes], due: Sequence[float], timeout: float) -> "Step":
        """Send ``lines[i]`` at monotonic time ``due[i]``; collect every reply."""
        n = len(lines)
        sent = [0.0] * n
        recv = [0.0] * n
        replies: List[bytes] = [b""] * n
        nxt = got = 0
        outbuf = b""
        deadline = (due[-1] if n else time.perf_counter()) + timeout
        sel = selectors.DefaultSelector()
        sel.register(self.sock, selectors.EVENT_READ)
        writing = False
        try:
            while got < n:
                now = time.perf_counter()
                if now > deadline:
                    break
                while nxt < n and due[nxt] <= now:
                    outbuf += lines[nxt]
                    sent[nxt] = now
                    nxt += 1
                if outbuf:
                    try:
                        outbuf = outbuf[self.sock.send(outbuf):]
                    except BlockingIOError:
                        pass
                if bool(outbuf) != writing:
                    writing = bool(outbuf)
                    sel.modify(
                        self.sock,
                        selectors.EVENT_READ | (selectors.EVENT_WRITE if writing else 0),
                    )
                wait = due[nxt] - time.perf_counter() if nxt < n else 0.05
                for key, mask in sel.select(min(max(wait, 0.0), 0.05)):
                    if not mask & selectors.EVENT_READ:
                        continue
                    try:
                        data = self.sock.recv(1 << 20)
                    except BlockingIOError:
                        continue
                    if not data:
                        raise RuntimeError("server closed the connection")
                    stamp = time.perf_counter()
                    self._inbuf += data
                    *complete, self._inbuf = self._inbuf.split(b"\n")
                    for reply in complete:
                        if got < n:
                            replies[got] = reply
                            recv[got] = stamp
                            got += 1
        finally:
            sel.close()
        return Step(list(due), sent, recv, replies, got)

    def control(self, kind: str) -> Dict[str, Any]:
        """One ``{"type": kind}`` request on the idle connection."""
        line = json.dumps({"type": kind, "id": f"bench-{kind}"}).encode() + b"\n"
        step = self.drive([line], [time.perf_counter()], timeout=30.0)
        if step.got != 1:
            raise RuntimeError(f"no reply to the {kind} request")
        return json.loads(step.replies[0])


@dataclass
class Step:
    """Raw timings of one batch of requests (perf_counter seconds)."""

    due: List[float]
    sent: List[float]
    recv: List[float]
    replies: List[bytes]
    got: int
    ids: List[str] = field(default_factory=list)
    #: slowness of the host around the step (see :func:`common.slowness`)
    slow: float = 1.0

    def latencies_ms(self) -> List[float]:
        return [(r - d) * 1000.0 for d, r in zip(self.due[: self.got], self.recv[: self.got])]

    def lateness_ms(self) -> List[float]:
        return [(s - d) * 1000.0 for d, s in zip(self.due, self.sent) if s]

    def failures(self) -> int:
        """Missing replies, non-ok replies and replies to the wrong request."""
        failed = len(self.due) - self.got
        for expected, reply in zip(self.ids, self.replies[: self.got]):
            try:
                payload = json.loads(reply)
            except ValueError:
                failed += 1
                continue
            if payload.get("status") != "ok" or payload.get("id") != expected:
                failed += 1
        return failed


# ---------------------------------------------------------------------------
# Request streams
# ---------------------------------------------------------------------------
class Stream:
    """Hands out request lines for one run: distinct, or drawn from a pool."""

    def __init__(self, workload: ServiceWorkload, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        #: request seeds of this run start here, so runs differ in them too
        self.base = (seed % 10**6) * 10**5
        self.next_seed = 0
        self.next_id = 0
        self.pool: List[Dict[str, Any]] = []
        #: every timed (id, request line without trace flag) for the output check
        self.sent: List[Tuple[str, bytes]] = []

    def distinct(self, label: str, n: int) -> List[Dict[str, Any]]:
        out = gen.requests(self.seed, label, n, first_seed=self.base + self.next_seed)
        self.next_seed += n
        return out

    def encode(self, requests: Sequence[Dict[str, Any]], record: bool,
               alternate: bool = False) -> Tuple[List[bytes], List[str]]:
        """Lines with fresh ids; in a traced run every request opts into
        tracing, or only every other one with ``alternate``."""
        lines, ids = [], []
        for i, request in enumerate(requests):
            rid = f"r{self.next_id:06d}"
            self.next_id += 1
            payload = dict(request, id=rid)
            if record:
                self.sent.append((rid, gen.encode(payload).encode()))
            if self.trace and not (alternate and i % 2):
                payload["trace"] = True
            lines.append(gen.encode(payload).encode() + b"\n")
            ids.append(rid)
        return lines, ids

    def step_requests(self, label: str, n: int) -> List[Dict[str, Any]]:
        if self.workload.pool is None:
            return self.distinct(label, n)
        picks = gen.pick(self.seed, label, n, len(self.pool))
        return [self.pool[int(i)] for i in picks]


def run_step(server: Server, stream: Stream, label: str, rate: float, seconds: float) -> Step:
    """One open-loop Poisson step at ``rate`` req/s for ``seconds``."""
    offsets = gen.arrivals(stream.seed, label, rate, seconds)
    requests = stream.step_requests(label, len(offsets))
    lines, ids = stream.encode(requests, record=True, alternate=label.startswith("low"))
    before = server.place.probe()
    start = time.perf_counter() + 0.05
    step = server.drive(lines, [start + float(o) for o in offsets], timeout=30.0)
    step.slow = slowness([before, server.place.probe()])
    step.ids = ids
    return step


def run_batch(server: Server, stream: Stream, requests: Sequence[Dict[str, Any]]) -> Tuple[Step, float]:
    """Send ``requests`` at once (closed batch); wall time to the last reply,
    at reference speed."""
    lines, ids = stream.encode(requests, record=False)
    before = server.place.probe()
    start = time.perf_counter()
    step = server.drive(lines, [start] * len(lines), timeout=120.0)
    step.slow = slowness([before, server.place.probe()])
    step.ids = ids
    return step, (max(step.recv) - start) / step.slow if step.got else float("inf")


# ---------------------------------------------------------------------------
# Scrapes
# ---------------------------------------------------------------------------
def _hist_quantile(buckets: Dict[int, int], zero: int, growth: float, q: float) -> float:
    """Nearest-rank quantile of a bucket table (upper bucket bound)."""
    total = zero + sum(buckets.values())
    if total == 0:
        return 0.0
    rank = max(1, int(np.ceil(q * total)))
    if rank <= zero:
        return 0.0
    remaining = rank - zero
    for index in sorted(buckets):
        remaining -= buckets[index]
        if remaining <= 0:
            return growth ** (index + 1)
    return growth ** (max(buckets) + 1)


def hist_delta(before: Dict[str, Any], after: Dict[str, Any], name: str) -> Tuple[float, float]:
    """(p50, p99) of histogram ``name`` between two metrics scrapes."""
    h1 = after["metrics"]["histograms"][name]
    h0 = before["metrics"]["histograms"][name]
    b0 = {int(k): v for k, v in h0["buckets"].items()}
    delta = {int(k): v - b0.get(int(k), 0) for k, v in h1["buckets"].items()}
    delta = {k: v for k, v in delta.items() if v > 0}
    zero = h1["zero"] - h0["zero"]
    growth = h1["growth"]
    return _hist_quantile(delta, zero, growth, 0.5), _hist_quantile(delta, zero, growth, 0.99)


def counters(scrape: Dict[str, Any]) -> Dict[str, int]:
    return scrape["metrics"]["counters"]


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
#: Shares of ``--seconds`` spent at the low and the high rate.
LOW_SHARE, HIGH_SHARE = 0.40, 0.35
#: Histograms read from the metrics scrape in the traced run.
SCRAPED = (
    "service.queue_wait_ms", "service.batch_size", "service.simulate_ms",
    "service.batch_assembly_ms", "service.cache_lookup_ms", "service.serialize_ms",
    "server.read_ms", "server.dispatch_ms", "server.write_ms",
)
#: Histograms a cache hit never records.
MISS_ONLY = ("service.simulate_ms", "service.batch_assembly_ms")


def _score(steps: Sequence[Step], workload: ServiceWorkload) -> float:
    """tail / limit of the steps at one rate; the rate passes at <= 1.

    Passing needs zero failures, the tail within the limit and no growing
    backlog: the median of the last quarter within the limit too.
    """
    lat = [x for s in steps for x in s.latencies_ms()]
    if any(s.failures() for s in steps) or len(lat) < sum(len(s.due) for s in steps):
        return float("inf")
    tail = quantile(lat, workload.tail_q)
    backlog = median(lat[-max(len(lat) // 4, 1):])
    return max(tail, backlog) / workload.tail_limit_ms


def _rung(server: Server, stream: Stream, workload: ServiceWorkload, rate: float,
          steps: List[Step]) -> Tuple[float, float, float]:
    """(rate, score, slowness) of one ladder rung at ``rate``.  A failing
    rung is run again, up to RUNG_ATTEMPTS times, and the best score kept: a
    host hiccup must not end the climb."""
    best = (rate, float("inf"), 1.0)
    for _ in range(RUNG_ATTEMPTS):
        rung = run_step(server, stream, f"rung{len(steps)}", rate, RUNG_SECONDS)
        steps.append(rung)
        score = _score([rung], workload)
        if score < best[1]:
            best = (rate, score, rung.slow)
        if score <= 1.0:
            break
    return best


def max_rate(server: Server, stream: Stream, workload: ServiceWorkload,
             points: List[Tuple[float, float, float]], steps: List[Step]) -> float:
    """The highest rate meeting the tail limit, from a rate ladder.

    ``points`` holds the (rate, score, slowness) of the low and high steps,
    where the score is tail / limit (passing at <= 1).  Rungs climb from
    ``LADDER_START`` x the high rate by ``LADDER_GROWTH`` until one fails;
    ``REFINE`` bisection rungs then narrow the bracket, and the rate where
    the score crosses 1 is interpolated (in log score) between the last
    passing and the first failing rate, so the result does not jump by
    whole rungs.  A host s times slower than the reference serves 1/s the
    rate, so the result is multiplied by the slowness of the rungs it came
    from: the rate at reference speed.
    """
    if points[0][1] > 1.0:  # even the low rate misses the limit
        return points[0][0] / points[0][1] * points[0][2]
    if points[1][1] <= 1.0:
        rate = workload.high_rps * LADDER_START
        for _ in range(MAX_RUNGS):
            points.append(_rung(server, stream, workload, rate, steps))
            if points[-1][1] > 1.0:
                break
            rate *= LADDER_GROWTH
        else:
            return points[-1][0] * points[-1][2]  # never failed: a lower bound
    lo = max((p for p in points if p[1] <= 1.0), key=lambda p: p[0])
    hi = min((p for p in points if p[1] > 1.0 and p[0] > lo[0]), key=lambda p: p[0])
    for _ in range(REFINE):
        point = _rung(server, stream, workload, float(np.sqrt(lo[0] * hi[0])), steps)
        points.append(point)
        if point[1] <= 1.0:
            lo = point
        else:
            hi = point
    if not np.isfinite(hi[1]):
        return lo[0] * lo[2]
    share = -np.log(lo[1]) / (np.log(hi[1]) - np.log(lo[1]))
    return (lo[0] + (hi[0] - lo[0]) * float(share)) * (lo[2] + hi[2]) / 2.0


def run(workload: ServiceWorkload, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of a service workload; returns metrics, counts and checks."""
    if workload is SERIAL:
        return _with_shard(workload.name, False, lambda server, setups: _measure_serial(
            server, seed, seconds, setups))
    return _with_shard(workload.name, trace, lambda server, setups: _measure(
        server, workload, seed, seconds, trace, setups))


def _with_shard(name: str, trace: bool, measure) -> Dict[str, Any]:
    """Spawn SETUPS shards in turn (``setup_s`` is their median), run
    ``measure(server, setups)`` on the last, and stop it."""
    root = scratch_dir(name + "-")
    setups: List[float] = []
    server: Optional[Server] = None
    place = Placement.split()
    affinity = os.sched_getaffinity(0)
    if place.generator is not None:
        os.sched_setaffinity(0, {place.generator})
    try:
        for k in range(SETUPS):
            if server is not None:
                server.close()
                server = None
            log(f"{name}: spawning shard {k + 1}/{SETUPS}")
            state = root / f"state{k}"
            state.mkdir()
            before = place.probe()
            server = Server(state, trace, place)
            setups.append(server.setup_s / slowness([before, place.probe()]))
        return measure(server, setups)
    finally:
        if server is not None:
            server.close()
        os.sched_setaffinity(0, affinity)
        remove_dir(root)


def _rate_stats(steps: Sequence[Step], q: float) -> Tuple[float, float]:
    """(p50, tail) latency of the steps at one rate.

    p50 is the median of the per-step medians; the tail is the median of the
    per-step tails when every step holds ten samples beyond it, and pooled
    over all steps otherwise.  Latencies are not divided by the slowness:
    well below capacity they are set by wake-ups and the wire, and on a
    2-vCPU VM a step's p50 did not follow its probes (dividing spread them
    more).
    """
    per_step = [s.latencies_ms() for s in steps]
    p50 = median([median(lat) for lat in per_step])
    if min(len(lat) for lat in per_step) * (1.0 - q) >= 10:
        return p50, median([quantile(lat, q) for lat in per_step])
    return p50, quantile([x for lat in per_step for x in lat], q)


def _measure(server: Server, workload: ServiceWorkload, seed: int, seconds: float,
             trace: bool, setups: List[float]) -> Dict[str, Any]:
    stream = Stream(workload, seed, trace)
    warm = stream.distinct("warm", BATCH_REQUESTS)
    if workload.pool is not None:
        stream.pool = warm[: workload.pool]
    batch, batch_s = run_batch(server, stream, warm)
    steps: List[Step] = [batch]
    batches = [batch_s] if workload.pool is None else []

    before = server.control("metrics")
    low: List[Step] = []
    high: List[Step] = []
    for r in range(workload.rounds):
        low.append(run_step(server, stream, f"low{r}", workload.low_rps,
                            seconds * LOW_SHARE / workload.rounds))
        high.append(run_step(server, stream, f"high{r}", workload.high_rps,
                             seconds * HIGH_SHARE / workload.rounds))
    steps += low + high

    points = [(workload.low_rps, _score(low, workload), median([s.slow for s in low])),
              (workload.high_rps, _score(high, workload), median([s.slow for s in high]))]
    # A traced run reports layers only: the ladder would just lengthen it.
    rate = float("nan") if trace else max_rate(server, stream, workload, points, steps)
    if workload.pool is None and stream.next_seed <= DEFAULT_CACHE_ENTRIES:
        # Slow programs climb fewer rungs; top the stream up past the cache.
        top, _ = run_batch(server, stream, stream.distinct("top", DEFAULT_CACHE_ENTRIES + 1 - stream.next_seed))
        steps.append(top)
    log(f"{workload.name}: ladder {[tuple(round(v, 3) for v in p) for p in points]} -> {rate:.1f}")
    after = server.control("metrics")
    stats = server.control("stats")
    timed = steps[1:]

    # The closed batches run after the timed phase; campaign_s is their median.
    if workload.pool is not None:
        warm_batch, _ = run_batch(server, stream, stream.step_requests("batch-warm", HIT_BATCH_REQUESTS))
        steps.append(warm_batch)
    while len(batches) < BATCHES:
        label = f"batch{len(batches)}"
        if workload.pool is None:
            requests = stream.distinct(label, BATCH_REQUESTS)
        else:
            requests = stream.step_requests(label, HIT_BATCH_REQUESTS)
        batch, batch_s = run_batch(server, stream, requests)
        steps.append(batch)
        batches.append(batch_s)
    log(f"{workload.name}: closed batches in {[round(b, 3) for b in batches]} s at reference speed")
    log(f"{workload.name}: low p50s {[round(median(s.latencies_ms()), 2) for s in low]}, "
        f"high p50s {[round(median(s.latencies_ms()), 2) for s in high]}")
    rss = server.peak_rss_mb()

    c0, c1 = counters(before), counters(after)
    hits = c1["cache.hits"] - c0["cache.hits"]
    lookups = hits + c1["cache.misses"] - c0["cache.misses"]
    evictions = c1["cache.evictions"] - c0["cache.evictions"]
    hit_ratio = hits / lookups if lookups else 0.0
    if workload.pool is None:
        property_ok = hits == 0 and evictions >= 1
    else:
        property_ok = hit_ratio == 1.0

    p50_low, tail_low = _rate_stats(low, workload.tail_q)
    p50_high, tail_high = _rate_stats(high, workload.tail_q)
    late = [x for s in timed for x in s.lateness_ms()]
    late_high = [x for s in high for x in s.lateness_ms()]
    out: Dict[str, Any] = {
        "attempted": sum(len(s.due) for s in steps),
        "failed": sum(s.failures() for s in steps),
        "e2e": {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "campaign_s": median(batches),
            "p50_ms.low": p50_low,
            "tail_ms.low": tail_low,
            "p50_ms.high": p50_high,
            "tail_ms.high": tail_high,
            "max_rate_rps": rate,
        },
        "properties": {
            "cache.hit_ratio": hit_ratio,
            "cache.hits": hits,
            "cache.evictions": evictions,
            "distinct_requests": stream.next_seed,
            "ok": property_ok,
        },
        "context": {
            "loadgen.late_ms": quantile(late, 0.99),
            "samples.low": sum(len(s.due) for s in low),
            "samples.high": sum(len(s.due) for s in high),
            "ladder": [[round(v, 4) for v in p] for p in points],
            "slowness": [round(s.slow, 4) for s in timed],
            # Generator lateness at the scale of the tail means the run
            # measured the generator, not the server.
            "valid": quantile(late_high, workload.tail_q) < 0.5 * tail_high,
        },
    }
    out["correct"] = property_ok and _check_outputs(stream, steps[1:], seed)
    log(f"{workload.name}: outputs checked")
    if trace:
        out["layers"] = _layers(workload, stream, timed, low, before, after, stats)
    return out


#: service-serial: timed requests per second of ``--seconds`` (never fewer
#: than fill the cache and evict), untimed warm-up requests before them, and
#: the window of probes each latency is divided by (2 * LOCAL + 1 requests).
SERIAL_PER_SECOND = 40
SERIAL_WARM = 16
LOCAL = 2


def _measure_serial(server: Server, seed: int, seconds: float,
                    setups: List[float]) -> Dict[str, Any]:
    """service-serial: distinct requests, one at a time, on one connection.

    A closed loop with one caller: each request is sent when the previous
    reply has arrived, after one speed probe on the shard's CPU (the shard
    is idle then).  Every request misses the cache, simulates, is put to
    the cache and the journal, and the stream outgrows the cache.  Each
    latency is divided by the slowness of the probes of the requests around
    it, as each campaign cell is.
    """
    stream = Stream(SERIAL, seed, trace=False)
    warm, _ = run_batch(server, stream, stream.distinct("warm", SERIAL_WARM))
    n = max(int(round(seconds * SERIAL_PER_SECOND)), DEFAULT_CACHE_ENTRIES + 64)
    requests = stream.distinct("serial", n)
    lines, ids = stream.encode(requests, record=True)
    before = server.control("metrics")
    steps: List[Step] = []
    probes: List[float] = []
    for line, rid in zip(lines, ids):
        probes.append(server.place.probe(1))
        step = server.drive([line], [time.perf_counter()], timeout=30.0)
        step.ids = [rid]
        steps.append(step)
    after = server.control("metrics")
    rss = server.peak_rss_mb()

    ref: List[float] = []
    for i, step in enumerate(steps):
        lat = step.latencies_ms()
        local = slowness(probes[max(i - LOCAL, 0): i + LOCAL + 1])
        ref.append(lat[0] / local if lat else float("inf"))
    middle = median([r["tasks"]["n"] for r in requests])
    low = [x for x, r in zip(ref, requests) if r["tasks"]["n"] <= middle]
    high = [x for x, r in zip(ref, requests) if r["tasks"]["n"] > middle]
    campaign_s = sum(ref) / 1000.0

    c0, c1 = counters(before), counters(after)
    hits = c1["cache.hits"] - c0["cache.hits"]
    evictions = c1["cache.evictions"] - c0["cache.evictions"]
    property_ok = hits == 0 and evictions >= 1
    out: Dict[str, Any] = {
        "attempted": len(steps) + len(warm.due),
        "failed": sum(s.failures() for s in steps) + warm.failures(),
        "e2e": {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "campaign_s": campaign_s,
            "p50_ms.low": median(low),
            "tail_ms.low": quantile(low, SERIAL.tail_q),
            "p50_ms.high": median(high),
            "tail_ms.high": quantile(high, SERIAL.tail_q),
            "max_rate_rps": n / campaign_s,
        },
        "properties": {
            "cache.hits": hits,
            "cache.evictions": evictions,
            "distinct_requests": stream.next_seed,
            "ok": property_ok,
        },
        "context": {
            "samples.low": len(low),
            "samples.high": len(high),
            "raw.campaign_s": round(sum(x for s in steps for x in s.latencies_ms()) / 1000.0, 4),
            "slowness": round(slowness(probes), 4),
            "valid": True,
        },
    }
    out["correct"] = property_ok and _check_outputs(stream, steps, seed)
    log(f"service-serial: {n} requests, campaign_s {campaign_s:.3f} at reference speed "
        f"(raw {out['context']['raw.campaign_s']}), outputs checked")
    return out


def _check_outputs(stream: Stream, steps: Sequence[Step], seed: int) -> bool:
    """A seeded sample of replies must equal in-process ``serve_lines`` bytes."""
    import io

    from repro.service import ScheduleService, serve_lines

    replies = {}
    for step in steps:
        for rid, reply in zip(step.ids, step.replies[: step.got]):
            replies[rid] = reply
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(stream.sent), size=min(CHECK_SAMPLE, len(stream.sent)), replace=False)
    sample = [stream.sent[int(i)] for i in sorted(picks)]
    out = io.StringIO()
    with ScheduleService() as service:
        serve_lines([line.decode() for _, line in sample], service, out)
    expected = out.getvalue().splitlines()
    for (rid, _), want in zip(sample, expected):
        got = replies.get(rid)
        if got is None:
            log(f"check: no reply for {rid}")
            return False
        if stream.trace:
            payload = json.loads(got)
            payload.pop("trace", None)
            if payload != json.loads(want):
                log(f"check: reply {rid} differs from serve_lines")
                return False
        elif got.decode() != want:
            log(f"check: reply {rid} differs from serve_lines")
            return False
    return len(expected) == len(sample)


def _layers(workload: ServiceWorkload, stream: Stream, steps: Sequence[Step],
            low: Sequence[Step], before: Dict[str, Any], after: Dict[str, Any],
            stats: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Per-layer numbers of a traced run: scrape deltas, traces, in-process timers."""
    from repro.service import canonicalize_request, execute_request, response_line

    prefix = "miss." if workload.pool is None else "hit."
    layers: Dict[str, Tuple[float, str]] = {}
    for name in SCRAPED:
        if workload.pool is not None and name in MISS_ONLY:
            continue
        p50, p99 = hist_delta(before, after, name)
        unit = "count" if name.endswith("batch_size") else "ms"
        layers[prefix + name + ".p50"] = (p50, unit)
        layers[prefix + name + ".p99"] = (p99, unit)

    wire = []
    for step in steps:
        for sent, recv, reply in zip(step.sent, step.recv[: step.got], step.replies[: step.got]):
            payload = json.loads(reply)
            if "trace" in payload:
                wire.append((recv - sent) * 1000.0 - payload["trace"]["total_ms"])
    layers[prefix + "wire_ms.p50"] = (median(wire), "ms")
    layers[prefix + "wire_ms.p99"] = (quantile(wire, 0.99), "ms")

    c0, c1 = counters(before), counters(after)
    hits = c1["cache.hits"] - c0["cache.hits"]
    lookups = hits + c1["cache.misses"] - c0["cache.misses"]
    if workload.pool is None:
        layers[prefix + "cache.evictions"] = (c1["cache.evictions"] - c0["cache.evictions"], "count")
        journal = stats["stats"]["cache"]["journal_entries"]
        layers[prefix + "persistence.journal_entries"] = (journal, "count")
    else:
        layers[prefix + "cache.hit_ratio"] = (hits / lookups, "ratio")

    # In-process timers over the same request lines.
    raws = [json.loads(line) for _, line in stream.sent[:400]]
    per = []
    for _ in range(3):
        start = time.perf_counter()
        requests = [canonicalize_request(raw) for raw in raws]
        per.append((time.perf_counter() - start) / len(raws) * 1e6)
    layers[prefix + "schema.canonicalize_us"] = (median(per), "us")
    if workload.pool is None:
        times = []
        for request in requests[:24]:
            start = time.perf_counter()
            execute_request(request)
            times.append((time.perf_counter() - start) * 1000.0)
        layers[prefix + "executor.execute_ms"] = (median(times), "ms")
    responses = [json.loads(r) for s in steps for r in s.replies[: s.got]][:400]
    per = []
    for _ in range(3):
        start = time.perf_counter()
        for response in responses:
            response_line(response)
        per.append((time.perf_counter() - start) / len(responses) * 1e6)
    layers[prefix + "server.response_line_us"] = (median(per), "us")

    # Tracing overhead: traced vs untraced requests of the low steps.
    traced, plain = [], []
    for step in low:
        for i, lat in enumerate(step.latencies_ms()):
            (traced if i % 2 == 0 else plain).append(lat)
    layers[prefix + "tracing.overhead_pct"] = ((median(traced) / median(plain) - 1.0) * 100.0, "%")
    layers[prefix + "loadgen.late_ms"] = (
        quantile([x for s in steps for x in s.lateness_ms()], 0.99), "ms")
    return layers
