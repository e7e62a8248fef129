"""Order statistics, host fingerprint and the calibration loop.

Everything here is pure: no sockets, no processes, no ``repro`` import,
so the comparison tool and the unit tests can use it on its own.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time
from array import array
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Length of the time windows :func:`window_percentile` cuts a phase into.
WINDOW_S = 1.0
#: how often each process reads its CPU clock during a phase.
MARK_INTERVAL_S = 0.5
PROBE_ITERATIONS = 500
PROBE_INTERVAL_S = 0.002
#: probe iterations per second of the host the first baseline was taken
#: on, in a quiet moment; every reported time is scaled to it.
REFERENCE_SPEED = 80e6


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-quantile (0..1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


Window = Tuple[float, float]


def windows(start: float, end: float, window_s: float = WINDOW_S) -> List[Window]:
    """Consecutive ``window_s`` windows over [start, end].

    A trailing piece shorter than half a window is merged into the one
    before it, so it cannot vote with a handful of samples.
    """
    count = max(1, int((end - start) / window_s + 0.5))
    edges = [start + index * window_s for index in range(count)] + [end]
    return list(zip(edges[:-1], edges[1:]))


class SpeedProbe:
    """How fast this thread runs Python, sampled while it works.

    The hosts this runs on are shared: the same core executes the same
    loop at speeds a factor of two apart from one second to the next,
    and every time the benchmark measures moves with it.  ``tick`` is
    called from the threads doing the workload's work; every
    ``PROBE_INTERVAL_S`` it times a fixed loop right there (well under
    1 % of the thread's time).  ``speed`` is iterations per second over
    the samples of an interval, the slowest few dropped (a preempted
    sample says nothing about speed).  Times are reported scaled by
    ``speed / REFERENCE_SPEED``: as they would read on a host running
    the loop at the reference speed.
    """

    __slots__ = ("next_at", "stamps", "durations")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.next_at = 0.0
        self.stamps = array("d")
        self.durations = array("d")

    def tick(self, now: float) -> None:
        if now < self.next_at:
            return
        started = time.perf_counter()
        for _ in range(PROBE_ITERATIONS):
            pass
        ended = time.perf_counter()
        self.stamps.append(ended)
        self.durations.append(ended - started)
        self.next_at = ended + PROBE_INTERVAL_S

    def snapshot(self) -> "SpeedProbe":
        """The samples so far, detached from the live probe."""
        copy = SpeedProbe()
        copy.stamps, copy.durations = self.stamps[:], self.durations[:]
        return copy

    def speed(self, window: Optional[Window] = None) -> Optional[float]:
        """Iterations per second over ``window`` (default: every sample).

        ``None`` when the window holds too few samples to say.
        """
        if window is None:
            durations = list(self.durations)
        else:
            low, high = window
            durations = [
                duration
                for stamp, duration in zip(self.stamps, self.durations)
                if low <= stamp < high
            ]
        if len(durations) < 5:
            return None
        kept = sorted(durations)[: int(len(durations) * 0.95)]
        return PROBE_ITERATIONS * len(kept) / sum(kept)


def host_scale(
    speed: Dict[str, SpeedProbe], side: str, window: Optional[Window] = None
) -> Optional[float]:
    """Factor that turns a time measured in ``window`` into reference time.

    ``side`` is ``"ric"``, ``"ran"`` or ``"both"`` (geometric mean, for
    what crosses both processes).  ``None`` if a probe has nothing to
    say about the window.
    """
    sides = ("ric", "ran") if side == "both" else (side,)
    speeds = [speed[name].speed(window) for name in sides]
    if None in speeds:
        return None
    return math.prod(speeds) ** (1.0 / len(speeds)) / REFERENCE_SPEED


def per_window(
    stamps: Sequence[float], values: Sequence[float], q: float, window_s: float = WINDOW_S
) -> List[Tuple[Window, float]]:
    """The ``q``-quantile of ``values`` in each window of the samples' span.

    ``stamps[i]`` is when ``values[i]`` was taken.
    """
    if len(stamps) != len(values):
        raise ValueError("stamps and values differ in length")
    if not values:
        raise ValueError("no samples")
    spans = windows(stamps[0], stamps[-1], window_s)
    buckets: List[List[float]] = [[] for _ in spans]
    start = stamps[0]
    for stamp, value in zip(stamps, values):
        buckets[min(int((stamp - start) / window_s), len(spans) - 1)].append(value)
    return [(span, percentile(bucket, q)) for span, bucket in zip(spans, buckets) if bucket]


def rates_between(marks: Sequence[Tuple[float, int]]) -> List[Tuple[Window, float]]:
    """Per-window rates from ``(time, running count)`` marks."""
    series = []
    for (t0, n0), (t1, n1) in zip(marks, marks[1:]):
        if t1 - t0 >= WINDOW_S / 2:
            series.append(((t0, t1), (n1 - n0) / (t1 - t0)))
    return series


def rates_of(stamps: Sequence[float], window_s: float = WINDOW_S) -> List[Tuple[Window, float]]:
    """Per-window rates from one completion stamp per operation (sorted)."""
    if len(stamps) < 2:
        raise ValueError("need at least two completions for a rate")
    spans = windows(stamps[0], stamps[-1], window_s)
    counts = [0] * len(spans)
    start = stamps[0]
    for stamp in stamps:
        counts[min(int((stamp - start) / window_s), len(spans) - 1)] += 1
    return [(span, count / (span[1] - span[0])) for span, count in zip(spans, counts)]


def costs_between(
    marks: Sequence[Tuple[float, float]], done: Sequence[float]
) -> List[Tuple[Window, float]]:
    """Per-window CPU seconds per operation.

    ``marks`` are ``(time, CPU seconds so far)`` readings; ``done`` holds
    one sorted completion stamp per operation.  Windows in which nothing
    completed are left out.
    """
    series = []
    for (t0, c0), (t1, c1) in zip(marks, marks[1:]):
        ops = bisect_left(done, t1) - bisect_left(done, t0)
        if ops > 0 and t1 - t0 >= MARK_INTERVAL_S / 2:
            series.append(((t0, t1), (c1 - c0) / ops))
    return series


def scaled_pick(
    series: Sequence[Tuple[Window, float]],
    speed: Dict[str, SpeedProbe],
    side: str,
    pick: float,
    divide: bool = False,
) -> float:
    """One number from a per-window series, robust to the host's bad spells.

    Each window's value is brought to reference time by the host scale
    *of that window* (multiplied, or divided for a rate), then the
    ``pick``-quantile over the windows is taken: 0.5 for a typical
    window, 0.25 (0.75 for a rate) for the calm quarter.  A shared host
    stalls and slows in spells that fill most windows of some runs and
    none of others; what the program itself does is in every window.
    Windows the probes cannot speak for are left out.
    """
    scaled = []
    for window, value in series:
        scale = host_scale(speed, side, window)
        if scale is not None:
            scaled.append(value / scale if divide else value * scale)
    if not scaled:
        raise ValueError("no window has both a value and a speed")
    return percentile(scaled, pick)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile spread as a share of the median."""
    if len(values) < 2:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else math.inf
    return {"q1": q1, "median": median, "q3": q3, "spread": spread}


def calibrate(seconds: float = 0.2) -> float:
    """Pure-Python operations per second of this core, right now.

    A fixed integer loop timed for about ``seconds``: run before and
    after a workload, it shows whether the host's speed changed under
    the measurement (frequency scaling, a noisy neighbour).
    """
    rounds = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        acc = 0
        for i in range(20_000):
            acc = (acc + i * i) & 0xFFFF
        rounds += 1
        now = time.perf_counter()
        if now >= deadline:
            return rounds * 20_000 / (now - started)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> Dict[str, object]:
    """What a reader needs to compare this result with another host's."""
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
