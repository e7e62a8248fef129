"""Span-based tracing of E2AP procedures with per-stage latency.

The paper's evaluation splits controller↔agent RTT into per-stage
costs (encode, transport, decode, dispatch — Figs. 7/9); this module
provides the instrumentation layer that makes the same decomposition
measurable inside the reproduction.  Every traced stage records a
:class:`Span` into a bounded ring buffer and observes its duration in
a fixed-bucket :class:`~repro.metrics.counters.Histogram` named
``trace.<stage>``, which lives in the shared metrics registry next to
the existing counters and gauges.

Design constraints, in order:

1. **Zero cost when disabled.**  Tracing defaults to off; the hot
   paths guard every probe with one attribute read
   (``TRACER.enabled``) so the fig7/fig9 RTT harnesses pay a single
   predictable branch, not a context-manager call.
2. **Correlation.**  Spans carry an optional ``corr`` key — the RIC
   request id ``(requestor_id, instance_id)`` — plus the node label
   where the instrumented side knows it, so one indication's encode
   (agent), send (transport), decode (server) and dispatch (submgr)
   spans stitch into a single end-to-end trace.  Transport send spans
   inherit the correlation of the message encoded immediately before
   them (the hot paths are single-threaded per link, so encode→frame→
   send never interleaves); receive-side transport spans happen before
   the message is decodable and are stitched by time window instead.
3. **Fixed stage vocabulary.**  ``encode``, ``frame``, ``send``,
   ``recv``, ``decode``, ``dispatch`` — the same decomposition the
   paper's Fig. 7/9 bars use (§5.2, §5.4).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.metrics.counters import (
    get_histogram,
    histogram_values,
    reset_histograms,
    snapshot as registry_snapshot,
)

#: The fixed stage vocabulary; histogram names are ``trace.<stage>``.
STAGES: Tuple[str, ...] = ("encode", "frame", "send", "recv", "decode", "dispatch")

#: Correlation key: the RIC request id as (requestor_id, instance_id).
CorrId = Tuple[int, int]


@dataclass(frozen=True)
class Span:
    """One timed stage of one E2AP procedure."""

    stage: str
    #: ``time.perf_counter()`` at stage start, seconds.
    start_s: float
    duration_us: float
    #: RIC request id the stage worked on, when the site knows it.
    corr: Optional[CorrId] = None
    #: node label / endpoint peer, when the site knows it.
    node: Optional[str] = None
    #: E2AP procedure family ("indication", "control", ...), if known.
    procedure: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "start_s": self.start_s,
            "duration_us": self.duration_us,
            "corr": list(self.corr) if self.corr is not None else None,
            "node": self.node,
            "procedure": self.procedure,
        }


class _NoopStage:
    """Context manager returned by :func:`stage` while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopStage":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_STAGE = _NoopStage()


class _LiveStage:
    """Context manager recording one span on exit (non-hot-path sites)."""

    __slots__ = ("_tracer", "_stage", "_corr", "_node", "_procedure", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        stage: str,
        corr: Optional[CorrId],
        node: Optional[str],
        procedure: Optional[str],
    ) -> None:
        self._tracer = tracer
        self._stage = stage
        self._corr = corr
        self._node = node
        self._procedure = procedure
        self._start = 0.0

    def __enter__(self) -> "_LiveStage":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer.record(
            self._stage, self._start, self._corr, self._node, self._procedure
        )
        return False


class Tracer:
    """Process-global span recorder behind a single enabled flag.

    Hot paths are expected to read :attr:`enabled` once, branch, and
    call :meth:`record` with a ``perf_counter`` start they took
    themselves — keeping the disabled cost to one attribute load.
    """

    __slots__ = ("enabled", "max_spans", "_spans", "_last_corr", "dropped", "node")

    def __init__(self, max_spans: int = 65536) -> None:
        self.enabled = False
        self.max_spans = max_spans
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        #: correlation of the most recently encoded message; transport
        #: send spans adopt it (encode and send never interleave on one
        #: link's single-threaded hot path).
        self._last_corr: Optional[CorrId] = None
        #: spans evicted from the ring while it was full.
        self.dropped = 0
        #: ambient node label: agent/server set it (only while tracing
        #: is enabled) before entering their encode/decode paths, so
        #: spans recorded inside the shared codec wrappers still say
        #: which side did the work.
        self.node: Optional[str] = None

    # -- recording ----------------------------------------------------

    def record(
        self,
        stage: str,
        start_s: float,
        corr: Optional[CorrId] = None,
        node: Optional[str] = None,
        procedure: Optional[str] = None,
        end_s: Optional[float] = None,
    ) -> Span:
        """Close a stage opened at ``start_s``; returns the span.

        Callers only invoke this when :attr:`enabled` was true at the
        start of the stage; it never checks the flag itself so a
        mid-stage disable cannot orphan a started measurement.
        """
        end = time.perf_counter() if end_s is None else end_s
        span = Span(
            stage=stage,
            start_s=start_s,
            duration_us=(end - start_s) * 1e6,
            corr=corr,
            node=self.node if node is None else node,
            procedure=procedure,
        )
        if len(self._spans) == self._spans.maxlen:
            self.dropped += 1
        self._spans.append(span)
        get_histogram(f"trace.{stage}").observe(span.duration_us)
        return span

    def note_corr(self, corr: Optional[CorrId]) -> None:
        """Remember the correlation of the message just encoded."""
        self._last_corr = corr

    def adopt_corr(self) -> Optional[CorrId]:
        """Correlation for a transport send span (see class docstring)."""
        return self._last_corr

    # -- introspection ------------------------------------------------

    def spans(self, stage: Optional[str] = None) -> List[Span]:
        if stage is None:
            return list(self._spans)
        return [span for span in self._spans if span.stage == stage]

    def corr_ids(self) -> List[CorrId]:
        """Distinct correlation ids seen, in first-seen order."""
        seen: Dict[CorrId, None] = {}
        for span in self._spans:
            if span.corr is not None:
                seen.setdefault(span.corr, None)
        return list(seen)

    def stitch(self, corr: CorrId, include_uncorrelated: bool = True) -> List[Span]:
        """All spans of one procedure, ordered by start time.

        Spans carrying ``corr`` always match.  With
        ``include_uncorrelated`` (default), transport spans that carry
        no correlation (receive side: the bytes are not decodable yet)
        are included when they fall inside the matched spans' time
        window — exact for a single round trip, best-effort under
        concurrency.
        """
        matched = [span for span in self._spans if span.corr == corr]
        if not matched:
            return []
        if include_uncorrelated:
            start = min(span.start_s for span in matched)
            end = max(span.start_s + span.duration_us / 1e6 for span in matched)
            for span in self._spans:
                if span.corr is None and start <= span.start_s <= end:
                    matched.append(span)
        return sorted(matched, key=lambda span: span.start_s)

    def clear(self) -> None:
        """Drop recorded spans and adopted correlation (keeps enabled)."""
        self._spans.clear()
        self._last_corr = None
        self.dropped = 0
        self.node = None

    # -- export -------------------------------------------------------

    def stage_breakdown(self) -> Dict[str, Dict]:
        """Per-stage histogram snapshots (only ``trace.*`` entries)."""
        return {
            name[len("trace."):]: snap
            for name, snap in histogram_values().items()
            if name.startswith("trace.")
        }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state: spans, stage breakdown, full registry."""
        return {
            "enabled": self.enabled,
            "span_count": len(self._spans),
            "dropped_spans": self.dropped,
            "spans": [span.to_dict() for span in self._spans],
            "stages": self.stage_breakdown(),
            "metrics": registry_snapshot(),
        }


#: The process-global tracer every instrumented hot path consults.
TRACER = Tracer()


def enable() -> None:
    """Turn span recording on (does not clear prior spans)."""
    TRACER.enabled = True


def disable() -> None:
    TRACER.enabled = False


def enabled() -> bool:
    return TRACER.enabled


def reset() -> None:
    """Clear spans and zero the ``trace.*`` histograms."""
    TRACER.clear()
    reset_histograms("trace.")


def stage(
    name: str,
    corr: Optional[CorrId] = None,
    node: Optional[str] = None,
    procedure: Optional[str] = None,
):
    """Context manager tracing one stage (convenience, non-hot paths).

    Returns a shared no-op when tracing is disabled, so sprinkling it
    over cold paths costs one call and one branch.
    """
    if not TRACER.enabled:
        return _NOOP_STAGE
    return _LiveStage(TRACER, name, corr, node, procedure)
