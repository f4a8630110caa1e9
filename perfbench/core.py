"""Measurement machinery shared by every workload: the closed-loop op
runner, the host-speed probe, percentiles that refuse thin tails, and
peak RSS.

A workload is an object with

- ``setup()``: builds fresh program state (data load, cache warm-up,
  lazy set-up); timed as ``setup_s``;
- ``prepare_check()``: oracle work that needs the built state; untimed;
- ``ops()``: the run's fixed list of ``(kind, callable)`` pairs, where
  kind is ``"read"`` or ``"write"``; the callable performs one client call
  and returns what the check needs;
- ``check(index, answer)``: whether op ``index`` answered correctly, run
  after the op's timing has stopped.

Host-speed scaling. The reference host alternates between a fast phase
and one about 1.4-1.6x slower, in stretches of a few seconds. A median of
op times taken across such phases jumps between the two speeds as their
shares cross one half. So the runner times a short pure-Python loop (the
probe) between ops, at least every :data:`PROBE_INTERVAL_S`, and every
timing is also reported scaled to :data:`PROBE_REFERENCE_MS`, the probe's
time in the reference host's fast phase: an op's time is multiplied by
``PROBE_REFERENCE_MS / probe``, with ``probe`` the mean of the probes
just before and just after it. A change in the program moves the op
times but not the probe, so it shows in the scaled times in full.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

#: A reported percentile must have at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

PROBE_ITERATIONS = 2000
#: Probe time (best of three) in the reference host's fast phase: a
#: 2-vCPU x86-64 container, Python 3.11.
PROBE_REFERENCE_MS = 0.09
PROBE_INTERVAL_S = 0.025


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 1) of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES` samples
    lie beyond it: a tail estimated from a handful of samples swings from
    run to run and would be reported as if it were measured.
    """
    n = len(values)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return sorted(values)[rank - 1]


def _ref_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class HostClock:
    """Probe readings ``(time, ms)`` taken over one pass."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.ms: List[float] = []

    def probe(self) -> None:
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            _ref_loop(PROBE_ITERATIONS)
            best = min(best, time.perf_counter() - started)
        self.times.append(time.perf_counter())
        self.ms.append(best * 1e3)

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S

    def scale(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Per interval, ``PROBE_REFERENCE_MS`` over the mean of the last
        probe at or before its start and the first at or after its end."""
        times = np.asarray(self.times)
        ms = np.asarray(self.ms)
        last = len(times) - 1
        before = np.clip(np.searchsorted(times, starts, "right") - 1, 0, last)
        after = np.clip(np.searchsorted(times, ends, "left"), 0, last)
        return PROBE_REFERENCE_MS / ((ms[before] + ms[after]) / 2.0)

    def median_ms(self) -> float:
        return statistics.median(self.ms)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux
    reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RunResult:
    """Raw outcome of one measured pass over a workload's ops."""

    def __init__(self) -> None:
        self.kinds: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.ok: List[bool] = []
        self.clock = HostClock()

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def seconds(self, scaled: bool = True) -> np.ndarray:
        """Client time of every op, host-speed scaled or raw."""
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        out = ends - starts
        return out * self.clock.scale(starts, ends) if scaled else out

    def latencies_ms(self, kind: str, scaled: bool = True) -> List[float]:
        """Times of the ops of ``kind`` that succeeded, in ms."""
        seconds = self.seconds(scaled)
        return [
            float(s) * 1e3
            for s, k, ok in zip(seconds, self.kinds, self.ok)
            if ok and k == kind
        ]


def run_ops(workload, tracer=None) -> RunResult:
    """Run every op of ``workload`` once, in order, from this thread.

    Each op is timed alone by the client, from the call to its return;
    its answer is checked after the clock has stopped. An op that raises
    or answers wrongly counts as failed and its time is left out of the
    latencies (it is still part of the client time).
    """
    result = RunResult()
    clock = result.clock
    clock.probe()
    for index, (kind, call) in enumerate(workload.ops()):
        if tracer is not None:
            tracer.begin_op(index, kind)
        error: Optional[BaseException] = None
        started = time.perf_counter()
        try:
            answer = call()
        except Exception as exc:  # noqa: BLE001 — counted as a failed op
            error = exc
        ended = time.perf_counter()
        if tracer is not None:
            tracer.end_op(ended - started)
        result.kinds.append(kind)
        result.starts.append(started)
        result.ends.append(ended)
        result.ok.append(error is None and bool(workload.check(index, answer)))
        if clock.due():
            clock.probe()
    clock.probe()
    return result


def timed_setups(workload, repeats: int) -> List[float]:
    """Build the workload's state ``repeats`` times; host-speed-scaled
    seconds per build. The last build is the one the ops run against."""
    clock = HostClock()
    clock.probe()
    spans = []
    for _ in range(repeats):
        started = time.perf_counter()
        workload.setup()
        spans.append((started, time.perf_counter()))
        clock.probe()
    starts, ends = (np.asarray(x) for x in zip(*spans))
    return list((ends - starts) * clock.scale(starts, ends))


def end_to_end(run: RunResult, setup_times: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run (host-speed scaled),
    plus the raw ones under a ``raw.`` prefix."""
    out: Dict[str, float] = {"setup_s": statistics.median(setup_times)}
    for scaled, prefix in ((True, ""), (False, "raw.")):
        completed = run.attempted - run.failed
        out[prefix + "ops_per_s"] = completed / float(run.seconds(scaled).sum())
        for kind, name in (("read", ""), ("write", "write_")):
            times = run.latencies_ms(kind, scaled)
            if times:
                out[f"{prefix}{name}p50_ms"] = statistics.median(times)
                out[f"{prefix}{name}p90_ms"] = percentile(times, 0.9)
    out["peak_rss_mb"] = peak_rss_mb()
    out["host.ref_loop_ms"] = run.clock.median_ms()
    return out
