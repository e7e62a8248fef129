"""In-process loopback transport.

Connects agents and controllers living in the same interpreter with
zero I/O, preserving message boundaries and the event-callback flow of
the TCP transport.  Used by the discrete-event experiments (where
simulated time must not depend on socket scheduling) and by most tests.

Every frame reaches its receiver through ``TransportEvents.deliver``,
exactly as over TCP; ``send`` is ``send_many`` of one.

Delivery model: a send enqueues its batch on a per-transport dispatch
queue which is drained immediately unless a dispatch is already
running.  This keeps callback nesting flat — a request/response
ping-pong of any depth uses O(1) stack — while remaining fully
synchronous and deterministic.  There is no thread: the one loop that
parallel ingest and the overload discipline run on is
:class:`~repro.core.transport.tcp.TcpTransport`'s (DESIGN.md §10).
Nor is there a tick (``on_tick``): callers drive a server's
``keepalive_tick``/``expire_stale`` with their own clock.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Sequence

from repro.core.overload import QueuePressure
from repro.metrics.counters import discard_counter, get_counter
from repro.core.transport.base import (
    DisconnectReason,
    Endpoint,
    Listener,
    Transport,
    TransportEvents,
)
from repro.metrics.trace import TRACER as _TRACER


def _freeze(data) -> bytes:
    """Pin a send payload to immutable ``bytes`` for the dispatch queue.

    The dispatch queue may hold the payload after ``send`` returns
    (a nested send waits for the running dispatch), so mutable buffer-protocol inputs
    (``bytearray``, writable ``memoryview``) must be copied — exactly
    once, counted in ``bytes.copied``.  Immutable ``bytes`` pass
    through untouched: the zero-copy fast path.
    """
    if type(data) is bytes:
        return data
    if isinstance(data, (bytes, bytearray, memoryview)):
        get_counter("bytes.copied").incr()
        return bytes(data)  # repro-lint: disable=RL007 — queue outlives the caller's buffer
    raise TypeError(f"send expects a bytes-like object, got {type(data).__name__}")


class _InProcEndpoint(Endpoint):
    """One side of an in-process connection pair."""

    def __init__(self, transport: "InProcTransport", peer_label: str, events: TransportEvents) -> None:
        self._transport = transport
        self._peer_label = peer_label
        self._events = events
        self._other: Optional["_InProcEndpoint"] = None
        self._closed = False
        #: per-connection label for drop accounting (assigned at
        #: connect time; both ends of a pair share it).
        self.conn_label = peer_label
        #: optional hook: bytes sent through this endpoint, for
        #: signaling-rate accounting (Fig. 7b) without packet capture.
        self.bytes_sent = 0
        self.messages_sent = 0

    def _attach(self, other: "_InProcEndpoint") -> None:
        self._other = other

    def send(self, data: bytes) -> None:
        self.send_many((data,))

    def send_many(self, batch: Sequence[bytes]) -> None:
        if not batch:
            return
        if self._closed:
            raise ConnectionError("endpoint closed")
        if self._other is None or self._other._closed:
            raise ConnectionError("peer closed")
        frozen = []
        for data in batch:
            payload = _freeze(data)
            self.bytes_sent += len(payload)
            frozen.append(payload)
        self.messages_sent += len(frozen)
        other = self._other

        def deliver() -> None:
            other._events.deliver(other, frozen)

        # One queue entry for the batch mirrors the TCP transport's
        # single coalesced write; a receiver without the batch hook
        # still sees one message at a time.
        tracer = _TRACER
        if tracer.enabled:
            # Time only the hand-off (the transport's own cost); the
            # drain below runs the receiver's decode/dispatch, which
            # record their own spans.
            start = time.perf_counter()
            self._transport._queue.append(deliver)
            self._transport._dispatch_pressure.note_depth(len(self._transport._queue))
            tracer.record("send", start, tracer.adopt_corr(), node=self._peer_label)
            self._transport._drain()
            return
        self._transport._enqueue(deliver)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        discard_counter(f"overload.conn.{self.conn_label}.drops")
        other = self._other
        if other is not None and not other._closed:
            # The peer observes an orderly EOF, exactly like TCP.
            reason = DisconnectReason(DisconnectReason.EOF)
            self._transport._enqueue(lambda: other._signal_disconnect(reason))

    def _signal_disconnect(self, reason: Optional[DisconnectReason] = None) -> None:
        if not self._closed:
            self._closed = True
            # Conn-scoped drop accounting dies with the link (mirrors
            # the TCP close path): per-class aggregates keep the total.
            discard_counter(f"overload.conn.{self.conn_label}.drops")
            self._events.on_disconnected(
                self, reason or DisconnectReason(DisconnectReason.EOF)
            )

    @property
    def peer(self) -> str:
        return self._peer_label

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"_InProcEndpoint(peer={self._peer_label!r}, {state})"


class _InProcListener(Listener):
    def __init__(self, transport: "InProcTransport", address: str) -> None:
        self._transport = transport
        self._address = address

    def close(self) -> None:
        self._transport._listeners.pop(self._address, None)

    @property
    def address(self) -> str:
        return self._address


class InProcTransport(Transport):
    """Loopback transport with named listening addresses.

    Example:
        >>> t = InProcTransport()
        >>> got = []
        >>> _ = t.listen("ric", TransportEvents(on_message=lambda e, d: got.append(d)))
        >>> conn = t.connect("ric", TransportEvents())
        >>> conn.send(b"ping")
        >>> got
        [b'ping']
    """

    name = "inproc"

    def __init__(self) -> None:
        self._listeners: Dict[str, TransportEvents] = {}
        self._queue: Deque[Callable[[], None]] = deque()
        self._dispatching = False
        #: depth accounting for the dispatch queue — the deepest it
        #: gets is the nesting of request/response ping-pong plus
        #: enqueued connect/disconnect thunks.
        self._dispatch_pressure = QueuePressure("inproc.dispatch")
        self._conn_seq = itertools.count(1)

    def listen(self, address: str, events: TransportEvents) -> Listener:
        if address in self._listeners:
            raise OSError(f"address already in use: {address!r}")
        self._listeners[address] = events
        return _InProcListener(self, address)

    def connect(self, address: str, events: TransportEvents) -> Endpoint:
        server_events = self._listeners.get(address)
        if server_events is None:
            raise ConnectionError(f"nothing listening on {address!r}")
        client = _InProcEndpoint(self, peer_label=address, events=events)
        server = _InProcEndpoint(self, peer_label=f"{address}#client", events=server_events)
        client._attach(server)
        server._attach(client)
        conn_label = f"{address}:{next(self._conn_seq)}"
        client.conn_label = conn_label
        server.conn_label = conn_label
        self._enqueue(lambda: server_events.on_connected(server))
        self._enqueue(lambda: events.on_connected(client))
        self._drain()
        return client

    # -- synchronous dispatch ----------------------------------------

    def _enqueue(self, thunk: Callable[[], None]) -> None:
        self._queue.append(thunk)
        self._dispatch_pressure.note_depth(len(self._queue))
        self._drain()

    def _drain(self) -> None:
        if self._dispatching:
            return
        self._dispatching = True
        try:
            while self._queue:
                self._queue.popleft()()
        finally:
            self._dispatching = False
            self._dispatch_pressure.note_depth(0)

    def start(self) -> None:
        """Nothing to start: dispatch is inline; kept for API symmetry."""

    def stop(self) -> None:
        """Nothing to stop; kept because callers stop any transport."""
