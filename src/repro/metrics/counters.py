"""Named monotonic counters for cache and hot-path instrumentation.

Counters are process-global and thread-safe: several threads (the
transport loop, the liveness tick, a test's hammer threads) increment
the same counters concurrently, so a plain ``+=`` would silently drop
updates.  The common ``+1`` is one ``next()`` on an
:func:`itertools.count`, which the interpreter runs without releasing
the GIL — exact without any lock, at a fifth of the cost of a lock
round trip on the codec hot path.  Bulk ``incr(n)`` and ``reset`` add
to a separate base under one lock from a small striped pool (hashed by
name); ``.value`` is the base plus the ticks so far.

:class:`Gauge` (point-in-time values) and :class:`Histogram`
(fixed-bucket latency distributions) share the same registry
discipline; :func:`reset_all` zeroes all three families at once so
repeated in-process experiment runs start from a clean slate.

Example:
    >>> hits = get_counter("demo.hits")
    >>> hits.incr()
    >>> counter_values()["demo.hits"]
    1
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Striped lock pool shared by every instrument.  Distinct hot-path
#: counters almost always hash to distinct stripes, so shard threads
#: incrementing *different* counters never contend; two counters
#: sharing a stripe still increment correctly, just serialized.
_STRIPES = 16
_LOCK_POOL: Tuple[threading.Lock, ...] = tuple(
    threading.Lock() for _ in range(_STRIPES)
)


def _stripe_lock(name: str) -> threading.Lock:
    return _LOCK_POOL[hash(name) % _STRIPES]


def _ticks_of(ticks: "itertools.count[int]") -> int:
    """How many times ``next`` has been called on a ``count()`` from 0."""
    return int(repr(ticks)[6:-1])


class Counter:
    """One named monotonic counter (thread-safe ``incr``)."""

    __slots__ = ("name", "tick", "_ticks", "_base", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        #: one tick per ``incr()``; never replaced, so a tick racing a
        #: ``reset`` lands on one side of it, never nowhere.
        self._ticks = itertools.count()
        #: ``incr()`` without the Python frame (the count's bound
        #: ``__next__``), for sites paid once per message.
        self.tick = self._ticks.__next__
        #: bulk increments, minus the ticks a ``reset`` cleared.
        self._base = 0
        self._lock = _stripe_lock(name)

    def incr(self, amount: int = 1) -> None:
        if amount == 1:
            next(self._ticks)
        else:
            with self._lock:
                self._base += amount

    @property
    def value(self) -> int:
        return self._base + _ticks_of(self._ticks)

    def reset(self) -> None:
        with self._lock:
            self._base = -_ticks_of(self._ticks)

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """One named point-in-time value (e.g. a link's lifecycle state).

    Same registry discipline as :class:`Counter`.  ``set`` is a single
    atomic store; ``add`` (read-modify-write, used for queue-depth
    style gauges updated from several shard threads) takes the stripe
    lock.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = _stripe_lock(name)

    def set(self, value: int) -> None:
        self.value = value

    def add(self, delta: int) -> None:
        with self._lock:
            self.value += delta

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


#: Default latency bucket upper edges in microseconds.  Roughly
#: logarithmic from sub-microsecond codec work up to the 100 ms tail
#: of a loaded CI runner; values past the last edge land in the
#: implicit overflow bucket.
DEFAULT_BUCKETS_US: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
)


class Histogram:
    """Fixed-bucket distribution of latency observations.

    Bucket edges are upper bounds (``value <= edge``); observations
    past the last edge are counted in the overflow bucket.  ``observe``
    is one bisect plus two adds — cheap enough for per-message use on
    the traced hot paths.
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "_lock")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_BUCKETS_US) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"bucket edges must be ascending and non-empty: {edges!r}")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(float(edge) for edge in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)  # last = overflow
        self.count = 0
        self.total = 0.0
        self._lock = _stripe_lock(name)

    def observe(self, value: float) -> None:
        index = bisect_left(self.edges, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile (``q`` in [0, 1]) from the buckets.

        Linear interpolation inside the winning bucket; overflow
        observations report the last finite edge (an admitted floor).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q out of range: {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                if index >= len(self.edges):
                    return self.edges[-1]
                low = self.edges[index - 1] if index > 0 else 0.0
                high = self.edges[index]
                frac = (rank - seen) / bucket_count
                return low + (high - low) * frac
            seen += bucket_count
        return self.edges[-1]

    def snapshot(self) -> Dict:
        """JSON-able view: totals plus per-bucket cumulative-free counts."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": [
                [edge, count] for edge, count in zip(self.edges, self.counts)
            ],
            "overflow": self.counts[-1],
        }

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.edges) + 1)
            self.count = 0
            self.total = 0.0

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


_COUNTERS: Dict[str, Counter] = {}
_GAUGES: Dict[str, Gauge] = {}
_HISTOGRAMS: Dict[str, Histogram] = {}
#: Guards first-use creation only: two shard threads racing to create
#: the same name must agree on one instrument object, or increments on
#: the loser would vanish.  The lookup fast path stays lock-free.
_REGISTRY_LOCK = threading.Lock()


def get_gauge(name: str) -> Gauge:
    """Fetch (creating on first use) the gauge with ``name``."""
    gauge = _GAUGES.get(name)
    if gauge is None:
        with _REGISTRY_LOCK:
            gauge = _GAUGES.get(name)
            if gauge is None:
                gauge = _GAUGES[name] = Gauge(name)
    return gauge


def gauge_values() -> Dict[str, int]:
    """Snapshot of every registered gauge, keyed by name."""
    return {name: gauge.value for name, gauge in _GAUGES.items()}


def get_counter(name: str) -> Counter:
    """Fetch (creating on first use) the counter with ``name``."""
    counter = _COUNTERS.get(name)
    if counter is None:
        with _REGISTRY_LOCK:
            counter = _COUNTERS.get(name)
            if counter is None:
                counter = _COUNTERS[name] = Counter(name)
    return counter


def counter_values() -> Dict[str, int]:
    """Snapshot of every registered counter, keyed by name."""
    return {name: counter.value for name, counter in _COUNTERS.items()}


def reset_counters(prefix: str = "") -> None:
    """Zero all counters whose name starts with ``prefix``."""
    for name, counter in _COUNTERS.items():
        if name.startswith(prefix):
            counter.reset()


def discard_gauge(name: str) -> None:
    """Drop a gauge from the registry entirely.

    Lifecycle gauges (e.g. a link's state) are discarded when the
    tracked object reaches a terminal state, so a later experiment run
    in the same process does not inherit ghost entries.
    """
    _GAUGES.pop(name, None)


def discard_counter(name: str) -> None:
    """Drop a counter from the registry entirely.

    Connection-scoped counters (e.g. per-connection overload drops) are
    discarded when the link dies; without this, a server seeing heavy
    connection churn grows its registry without bound and ``/metrics``
    exports ghost entries for peers that no longer exist.  Class-level
    aggregates (``overload.drop.<cls>``) survive, so no drop is ever
    lost from the totals.
    """
    _COUNTERS.pop(name, None)


def reset_gauges(prefix: str = "") -> None:
    """Zero all gauges whose name starts with ``prefix``."""
    for name, gauge in _GAUGES.items():
        if name.startswith(prefix):
            gauge.value = 0


def get_histogram(name: str, edges: Optional[Sequence[float]] = None) -> Histogram:
    """Fetch (creating on first use) the histogram with ``name``.

    ``edges`` applies only on creation; an existing histogram keeps its
    bucket scheme (re-bucketing mid-run would corrupt the counts).
    """
    histogram = _HISTOGRAMS.get(name)
    if histogram is None:
        with _REGISTRY_LOCK:
            histogram = _HISTOGRAMS.get(name)
            if histogram is None:
                histogram = _HISTOGRAMS[name] = Histogram(
                    name, DEFAULT_BUCKETS_US if edges is None else edges
                )
    return histogram


def histogram_values() -> Dict[str, Dict]:
    """Snapshot of every registered histogram, keyed by name."""
    return {name: histogram.snapshot() for name, histogram in _HISTOGRAMS.items()}


def reset_histograms(prefix: str = "") -> None:
    """Zero all histograms whose name starts with ``prefix``."""
    for name, histogram in _HISTOGRAMS.items():
        if name.startswith(prefix):
            histogram.reset()


def reset_all() -> None:
    """Zero every counter, gauge and histogram in the registry.

    Gauges are reset too (not just counters): repeated in-process
    experiment runs must not inherit stale point-in-time state such as
    a previous run's link lifecycle gauges.
    """
    reset_counters()
    reset_gauges()
    reset_histograms()


def snapshot() -> Dict[str, Dict]:
    """One JSON-able snapshot of all three metric families."""
    return {
        "counters": counter_values(),
        "gauges": gauge_values(),
        "histograms": histogram_values(),
    }
