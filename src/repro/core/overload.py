"""Overload discipline: bounded queues, admission control, fair shares.

The FlexRIC figures measure the RIC at or below capacity; this module
is the layer for the regime *above* capacity (DESIGN.md §13), where a
controller serving thousands of nodes must degrade gracefully instead
of growing queues without bound:

* :class:`TrafficClass` / :func:`frame_classifier` — the two-class
  policy.  Everything that keeps the control plane alive (E2 setup,
  subscriptions, control procedures, RicServiceQuery keepalives) is
  CONTROL and is never shed; RIC indications are INDICATION and are
  droppable under pressure, exactly as O-RAN telemetry semantics allow
  (a lost KPM report is superseded by the next one).
* :class:`QueuePressure` — per-queue depth/high-watermark accounting
  plus, when bounded, the one shed rule: a drained batch keeps every
  control frame and its newest ``max_queue_depth`` indications,
  shedding the *oldest* indications first.
* :class:`AdmissionController` — token buckets and a concurrent-
  procedure cap over E2 setup / RIC subscription storms, with a
  slow-start ramp after ``node_recovered`` so a reconnect storm does
  not immediately re-trigger the collapse it recovered from.
* :class:`FairShareLimiter` — the Appendix B NVS share math extended
  from radio resources to controller capacity: tenant ``i`` with share
  ``q_i`` owns a token bucket refilled at ``q_i * C`` where ``C`` is
  the controller's provisioned capacity, so one greedy tenant cannot
  starve the rest of indication dispatch or control issuance.

Every shed indication is counted in ``overload.drop.indication`` and
per connection in ``overload.conn.{conn}.drops``; queue state is published
through ``queue.{scope}.depth`` / ``.hwm`` gauges so the northbound
``/metrics/overload`` route can report overload state.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.codec.base import CodecError
from repro.core.e2ap.messages import _ROUTE_ERRORS
from repro.core.e2ap.procedures import ProcedureCode
from repro.metrics.counters import discard_gauge, get_counter, get_gauge

_IND_CODE = int(ProcedureCode.RIC_INDICATION)


class TrafficClass(IntEnum):
    """Two-class shed policy: control is never dropped before data."""

    CONTROL = 0
    INDICATION = 1


def classify_procedure(procedure: int) -> TrafficClass:
    """Map an E2AP procedure code to its traffic class.

    Only RIC indications are droppable.  Everything else — setup,
    subscription lifecycle, control, service query/update keepalives,
    configuration updates, resets — is control-class: shedding any of
    it turns transient overload into lifecycle damage (a node declared
    stale because its keepalive reply sat behind a KPM flood).
    """
    if procedure == _IND_CODE:
        return TrafficClass.INDICATION
    return TrafficClass.CONTROL


def frame_classifier(codec) -> Callable[[bytes], TrafficClass]:
    """Build a ``bytes -> TrafficClass`` classifier over ``codec``.

    The procedure code is read off the constant envelope prefix
    (``codec.probe``): nothing is decoded, the server decodes the
    survivors once.  Only when the probe declines (a codec without
    one, an envelope it does not recognise) is the frame decoded, and
    one that still cannot be classified — any error the decode path
    treats as malformed (``messages._ROUTE_ERRORS``) — is CONTROL: the decode error is
    the server's to count and contain — the overload layer must never
    shed a frame it does not understand.  A frame whose *envelope*
    reads as an indication is sheddable even if its body is malformed;
    what is not shed is still contained by the server.
    """
    probe = getattr(codec, "probe", None)

    def classify(data: bytes) -> TrafficClass:
        try:
            found = probe(data) if probe is not None else None
            procedure = codec.decode(data)["p"] if found is None else found[0]
        except (CodecError,) + _ROUTE_ERRORS:
            return TrafficClass.CONTROL
        return classify_procedure(procedure)

    return classify


@dataclass(frozen=True)
class OverloadConfig:
    """Tunable surface of the overload-discipline layer.

    The defaults bound a drained batch to about a thousand indications
    (~100 KB of 100-byte ones) and admit setup/subscription bursts an
    order of magnitude above steady-state rates before rejecting.
    """

    #: indications one drained batch may deliver: a larger batch keeps
    #: its newest this-many and sheds the rest, oldest first.  Control
    #: frames pass past this bound, so a control frame never waits
    #: behind more than this many indications.
    max_queue_depth: int = 1024
    #: E2 setup admission: sustained rate (per second) and burst.
    setup_rate_s: float = 100.0
    setup_burst: int = 50
    #: RIC subscription admission: sustained rate (per second), burst,
    #: and a cap on concurrently outstanding (unconfirmed) requests.
    subscription_rate_s: float = 200.0
    subscription_burst: int = 100
    max_pending_subscriptions: int = 512
    #: after ``node_recovered``, admission rates ramp linearly from
    #: ``slow_start_floor`` of nominal back to nominal over this many
    #: seconds, so a reconnect storm re-admits gradually.
    slow_start_s: float = 5.0
    slow_start_floor: float = 0.1


class TokenBucket:
    """Monotonic-clock token bucket (thread-safe).

    ``rate`` tokens per second, capped at ``burst``.  ``rate_scale``
    lets the admission controller's slow-start ramp throttle refill
    without rebuilding the bucket.
    """

    __slots__ = ("rate", "burst", "tokens", "_last", "_time_fn", "_lock")

    def __init__(
        self,
        rate: float,
        burst: float,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate < 0 or burst <= 0:
            raise ValueError(f"need rate >= 0 and burst > 0, got {rate}/{burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._time_fn = time_fn
        self._last = time_fn()
        self._lock = threading.Lock()

    def _refill(self, rate_scale: float) -> None:
        now = self._time_fn()
        elapsed = now - self._last
        if elapsed > 0:
            self.tokens = min(
                self.burst, self.tokens + elapsed * self.rate * rate_scale
            )
            self._last = now

    def try_acquire(self, n: float = 1.0, rate_scale: float = 1.0) -> bool:
        with self._lock:
            self._refill(rate_scale)
            if self.tokens >= n:
                self.tokens -= n
                return True
            return False

    def available(self, rate_scale: float = 1.0) -> float:
        with self._lock:
            self._refill(rate_scale)
            return self.tokens

    def time_to_tokens(self, n: float = 1.0, rate_scale: float = 1.0) -> float:
        """Seconds until ``n`` tokens are available (0 if already)."""
        with self._lock:
            self._refill(rate_scale)
            deficit = n - self.tokens
            if deficit <= 0:
                return 0.0
            effective = self.rate * rate_scale
            if effective <= 0:
                return float("inf")
            return deficit / effective


class QueuePressure:
    """Depth accounting and the shed rule for one ingest queue.

    Two modes:

    * accounting-only (``config is None``) — publishes depth and
      high-watermark gauges; never touches the traffic.  This is the
      always-on mode of the inproc dispatch queue.
    * bounded (``config`` set, ``classify`` set) — additionally sheds
      via :meth:`admit`.

    ``note_depth`` may run on any caller's thread (an in-process
    dispatch runs on its sender's); the gauge stores are atomic.
    """

    __slots__ = ("scope", "config", "classify", "depth_gauge", "hwm_gauge", "hwm")

    def __init__(
        self,
        scope: str,
        config: Optional[OverloadConfig] = None,
        classify: Optional[Callable[[bytes], TrafficClass]] = None,
    ) -> None:
        if config is not None and classify is None:
            raise ValueError("bounded QueuePressure requires a classifier")
        self.scope = scope
        self.config = config
        self.classify = classify
        self.depth_gauge = get_gauge(f"queue.{scope}.depth")
        self.hwm_gauge = get_gauge(f"queue.{scope}.hwm")
        self.hwm = 0

    @property
    def bounded(self) -> bool:
        return self.config is not None

    def discard_gauges(self) -> None:
        """Drop this queue's depth/hwm gauges from the registry.

        Called when the owning loop stops for good: the gauges describe
        a queue that no longer exists, and keeping them exports ghost
        depth/hwm readings to ``/metrics`` after every transport cycle
        (the conn-scoped instrument leak of the §14 bugfix sweep).
        """
        for suffix in ("depth", "hwm"):
            discard_gauge(f"queue.{self.scope}.{suffix}")

    def note_depth(self, depth: int) -> None:
        """Publish ``depth`` and raise the high watermark past it."""
        self.depth_gauge.set(depth)
        if depth > self.hwm:
            self.hwm = depth
            self.hwm_gauge.set(depth)

    def admit(self, frames: List[bytes], conn_label: object) -> List[bytes]:
        """Apply the shed rule to a drained batch.

        The batch is the whole queue: the TCP loop admits what one
        wakeup drained, behind nothing.  A batch of at most
        ``max_queue_depth`` frames passes untouched (the fast path: one
        comparison).  A larger one keeps every control frame and its
        newest ``max_queue_depth`` indications, shedding the oldest
        first.  Returns the admitted frames in their original order.
        """
        config = self.config
        if config is None:
            return frames
        budget = config.max_queue_depth
        if len(frames) <= budget:
            return frames
        classify = self.classify
        keep = [False] * len(frames)
        kept_ind = 0
        dropped = 0
        # Walk newest-to-oldest so "shed oldest first" falls out of the
        # budget running dry.
        for index in range(len(frames) - 1, -1, -1):
            if classify(frames[index]) is TrafficClass.CONTROL:
                keep[index] = True
            elif kept_ind < budget:
                keep[index] = True
                kept_ind += 1
            else:
                dropped += 1
        if not dropped:
            return frames
        get_counter("overload.drop.indication").incr(dropped)
        get_counter(f"overload.conn.{conn_label}.drops").incr(dropped)
        return [frame for frame, kept in zip(frames, keep) if kept]


class AdmissionController:
    """Token-bucket + concurrent-cap admission over E2 procedures.

    Setup and subscription requests draw from separate buckets so a
    subscription storm cannot starve node attach.  After a node
    recovery the effective refill rate ramps from ``slow_start_floor``
    of nominal back to nominal over ``slow_start_s`` seconds.
    """

    def __init__(
        self,
        config: OverloadConfig,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self._time_fn = time_fn
        self._setup_bucket = TokenBucket(
            config.setup_rate_s, config.setup_burst, time_fn
        )
        self._sub_bucket = TokenBucket(
            config.subscription_rate_s, config.subscription_burst, time_fn
        )
        self._lock = threading.Lock()
        self._pending_subscriptions = 0
        self._slow_until: Optional[float] = None

    def _rate_scale(self) -> float:
        slow_until = self._slow_until
        if slow_until is None:
            return 1.0
        now = self._time_fn()
        if now >= slow_until:
            self._slow_until = None
            return 1.0
        config = self.config
        progress = 1.0 - (slow_until - now) / config.slow_start_s
        floor = config.slow_start_floor
        return floor + (1.0 - floor) * progress

    def admit_setup(self) -> Optional[float]:
        """None if admitted; else a retry-after hint in seconds."""
        scale = self._rate_scale()
        if self._setup_bucket.try_acquire(1.0, scale):
            return None
        get_counter("server.admission.reject.setup").incr()
        hint = self._setup_bucket.time_to_tokens(1.0, scale)
        if hint == float("inf"):
            hint = self.config.slow_start_s
        return max(0.05, min(hint, 30.0))

    def admit_subscription(self) -> bool:
        with self._lock:
            if self._pending_subscriptions >= self.config.max_pending_subscriptions:
                get_counter("server.admission.reject.subscription").incr()
                return False
        if not self._sub_bucket.try_acquire(1.0, self._rate_scale()):
            get_counter("server.admission.reject.subscription").incr()
            return False
        with self._lock:
            self._pending_subscriptions += 1
        return True

    def release_subscription(self) -> None:
        """A pending subscription reached an outcome (confirm/fail)."""
        with self._lock:
            if self._pending_subscriptions > 0:
                self._pending_subscriptions -= 1

    def set_pending(self, pending: int) -> None:
        """Resynchronize the concurrent cap from an exact recount.

        Node loss parks or drops in-flight requests whose outcomes
        will never arrive; the server recounts unconfirmed records
        after the lifecycle transition and installs the exact value so
        the cap cannot leak slots.
        """
        with self._lock:
            self._pending_subscriptions = max(0, int(pending))

    def note_recovery(self) -> None:
        """Begin (or restart) the slow-start ramp after node recovery."""
        with self._lock:
            self._slow_until = self._time_fn() + self.config.slow_start_s
        get_counter("server.admission.slow_start").incr()

    @property
    def in_slow_start(self) -> bool:
        slow_until = self._slow_until
        return slow_until is not None and self._time_fn() < slow_until

    def state(self) -> Dict[str, object]:
        with self._lock:
            pending = self._pending_subscriptions
        scale = self._rate_scale()
        return {
            "setup_tokens": round(self._setup_bucket.available(scale), 3),
            "subscription_tokens": round(self._sub_bucket.available(scale), 3),
            "pending_subscriptions": pending,
            "max_pending_subscriptions": self.config.max_pending_subscriptions,
            "slow_start": self.in_slow_start,
            "rate_scale": round(scale, 4),
        }


class FairShareLimiter:
    """Per-tenant token buckets over controller capacity.

    The NVS guarantee of Appendix B — tenant ``i`` holds share ``q_i``
    of the radio — extended to the controller: tenant ``i``'s bucket
    refills at ``q_i * C`` events/second where ``C`` is the
    provisioned capacity, with a burst window so short spikes inside
    the share pass untouched.  An unknown tenant is not limited (the
    limiter governs declared tenants; admission of undeclared traffic
    is the caller's policy).
    """

    def __init__(
        self,
        capacity_per_s: float,
        shares: Mapping[str, float],
        burst_window_s: float = 0.25,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity_per_s <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity_per_s}")
        self.capacity_per_s = float(capacity_per_s)
        self._buckets: Dict[str, TokenBucket] = {}
        self._shares: Dict[str, float] = {}
        for name, share in shares.items():
            rate = capacity_per_s * float(share)
            self._buckets[name] = TokenBucket(
                rate, max(1.0, rate * burst_window_s), time_fn
            )
            self._shares[name] = float(share)

    def try_acquire(self, tenant: str, n: float = 1.0) -> bool:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return True
        return bucket.try_acquire(n)

    def state(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant share/rate/tokens snapshot; refreshes gauges."""
        out: Dict[str, Dict[str, float]] = {}
        for name, bucket in self._buckets.items():
            tokens = bucket.available()
            get_gauge(f"overload.tenant.{name}.tokens").set(int(tokens))
            out[name] = {
                "share": self._shares[name],
                "rate_per_s": bucket.rate,
                "tokens": round(tokens, 3),
            }
        return out
