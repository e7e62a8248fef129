"""In-process loopback transport.

Connects agents and controllers living in the same interpreter with
zero I/O, preserving message boundaries and the event-callback flow of
the TCP transport.  Used by the discrete-event experiments (where
simulated time must not depend on socket scheduling) and by most tests.

Every frame reaches its receiver through ``TransportEvents.deliver``,
exactly as over TCP; ``send`` is ``send_many`` of one.

Delivery model (default, ``shards=0``): a send enqueues its batch on a
per-transport dispatch queue which is drained immediately unless a
dispatch is already running.  This keeps callback nesting flat — a
request/response ping-pong of any depth uses O(1) stack — while
remaining fully synchronous and deterministic.

Sharded mode (``shards>=2``) is threaded, queued ingest — the bounded
queues ``bench_overload.py`` gates stand on it: each shard owns a queue
and a worker thread, connections are assigned to shards round-robin at
connect time (both ends of a pair share a shard, preserving
per-connection ordering), and a worker drains everything queued per
wakeup and delivers consecutive frames for the same endpoint as one
batch.  ``shards=1`` is an alias for the synchronous default.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.overload import OverloadConfig, QueuePressure, TrafficClass
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

    The queue (and the shard workers in sharded mode) hold the payload
    after ``send`` returns, so mutable buffer-protocol inputs
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
        #: index of the dispatch shard this connection is pinned to
        #: (0 in the synchronous single-loop mode).
        self.shard = 0
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
        if self._transport._sharded:
            self._transport._post_messages(self.shard, other, frozen)
            return

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
            if self._transport._sharded:
                self._transport._post_control(
                    self.shard, lambda: other._signal_disconnect(reason)
                )
            else:
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


#: queue item: (target endpoint, frames) for traffic or (None, thunk)
#: for control events (connects/disconnects), which must stay ordered
#: with the traffic around them.
_ShardItem = Tuple[Optional[_InProcEndpoint], object]


class _InProcShard:
    """One dispatch loop of the sharded in-process transport."""

    def __init__(self, transport: "InProcTransport", index: int) -> None:
        self.index = index
        self.queue: Deque[_ShardItem] = deque()
        self.cond = threading.Condition()
        self.running = True
        self.busy = False
        #: True only while the worker is parked in ``cond.wait`` (set
        #: under the lock just before checking the queue).  Senders
        #: append lock-free and only take the lock to wake an idle
        #: worker, so the steady-state send path costs one deque
        #: append instead of a full Condition cycle.
        self.idle = False
        self.rx_messages = 0
        self.connections = 0
        #: depth/high-watermark accounting, and — when the transport
        #: carries an :class:`OverloadConfig` — the bounded shed/
        #: degrade policy (DESIGN.md §13).
        self.pressure = QueuePressure(
            f"inproc.shard.{index}", transport._overload, transport._classify
        )
        self.thread = threading.Thread(
            target=transport._shard_run,
            args=(self,),
            name=f"inproc-shard-{index}",
            daemon=True,
        )
        self.thread.start()


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

    def __init__(
        self,
        shards: int = 0,
        overload: Optional[OverloadConfig] = None,
        classify: Optional[Callable[[bytes], TrafficClass]] = None,
    ) -> None:
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        if overload is not None and classify is None:
            raise ValueError("overload policy requires a frame classifier")
        self._listeners: Dict[str, TransportEvents] = {}
        self._queue: Deque[Callable[[], None]] = deque()
        self._dispatching = False
        #: bounded-queue policy; None keeps today's unbounded behaviour
        #: (depth gauges stay on either way).
        self._overload = overload
        self._classify = classify
        #: depth accounting for the synchronous dispatch queue — the
        #: deepest it gets is the nesting of request/response ping-pong
        #: plus enqueued connect/disconnect thunks.
        self._dispatch_pressure = QueuePressure("inproc.dispatch")
        # shards in {0, 1}: the synchronous deterministic single loop
        # (today's behaviour); shards >= 2: threaded multi-loop ingest.
        self._sharded = shards >= 2
        self._shards: List[_InProcShard] = (
            [_InProcShard(self, index) for index in range(shards)] if self._sharded else []
        )
        self._rr = itertools.count()
        self._conn_seq = itertools.count(1)
        self._stopped = False

    @property
    def shards(self) -> int:
        return len(self._shards) if self._sharded else 1

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
        if self._sharded:
            # Both ends share one shard: every event of the connection
            # flows through one FIFO, preserving per-link ordering.
            shard = next(self._rr) % len(self._shards)
            client.shard = shard
            server.shard = shard
            self._shards[shard].connections += 1
            self._post_control(shard, lambda: server_events.on_connected(server))
            self._post_control(shard, lambda: events.on_connected(client))
            return client
        self._enqueue(lambda: server_events.on_connected(server))
        self._enqueue(lambda: events.on_connected(client))
        self._drain()
        return client

    # -- synchronous dispatch (shards in {0, 1}) ---------------------

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

    # -- sharded dispatch (shards >= 2) ------------------------------

    def _post_messages(self, shard_index: int, target: _InProcEndpoint, frames: List[bytes]) -> None:
        shard = self._shards[shard_index]
        tracer = _TRACER
        start = time.perf_counter() if tracer.enabled else 0.0
        pressure = shard.pressure
        if pressure.bounded:
            # Shed/degrade policy over the tracked frame depth: under
            # the high watermark this is one comparison; under
            # pressure indications are shed oldest-first and control
            # frames always pass (DESIGN.md §13).
            frames = pressure.admit(frames, pressure.frame_depth, target.conn_label)
            if not frames:
                if start:
                    tracer.record("send", start, tracer.adopt_corr())
                return
        # deque.append is atomic under the GIL, so the hot path is
        # lock-free; the Condition is only taken to wake a worker that
        # declared itself idle (it re-checks the queue under the lock
        # before waiting, so a missed-stale ``idle`` read cannot lose a
        # wakeup — the worker sees the appended item instead).
        shard.queue.append((target, frames))
        if pressure.bounded:
            pressure.add_frames(len(frames))
        else:
            pressure.note_depth(len(shard.queue))
        if shard.idle:
            with shard.cond:
                shard.cond.notify()
        if start:
            tracer.record("send", start, tracer.adopt_corr())

    def _post_control(self, shard_index: int, thunk: Callable[[], None]) -> None:
        shard = self._shards[shard_index]
        shard.queue.append((None, thunk))
        with shard.cond:
            shard.cond.notify()

    #: empty drains tolerated (yielding the GIL each time) before the
    #: worker parks on its Condition.  During a burst the sender refills
    #: the queue within a few yields, so the steady state never pays a
    #: lock/notify cycle; a genuinely idle shard parks and costs no CPU.
    _IDLE_SPINS = 32

    def _shard_run(self, shard: _InProcShard) -> None:
        queue = shard.queue
        pop = queue.popleft
        spins = 0
        while True:
            # ``busy`` is raised before draining so quiesce() cannot
            # observe "queue empty, worker idle" while frames sit in
            # the worker's local batch.
            shard.busy = True
            items: List[_ShardItem] = []
            try:
                while True:
                    items.append(pop())
            except IndexError:
                pass
            if items:
                spins = 0
                try:
                    self._dispatch_items(shard, items)
                finally:
                    pressure = shard.pressure
                    if pressure.bounded:
                        # Frames leave the tracked depth only after
                        # delivery: a slow consumer keeps the depth
                        # high, which is what arriving bursts must
                        # observe for backpressure to mean anything.
                        drained = sum(
                            len(payload)
                            for target, payload in items
                            if target is not None
                        )
                        if drained:
                            pressure.add_frames(-drained)
                    else:
                        pressure.note_depth(len(queue))
                continue
            shard.busy = False
            if spins < self._IDLE_SPINS and shard.running:
                spins += 1
                time.sleep(0)  # yield: let senders refill the queue
                continue
            spins = 0
            with shard.cond:
                shard.cond.notify_all()
                shard.idle = True
                if not queue:
                    if not shard.running:
                        shard.idle = False
                        return
                    shard.cond.wait(timeout=0.1)
                shard.idle = False

    def _dispatch_items(self, shard: _InProcShard, items: List[_ShardItem]) -> None:
        index = 0
        total = len(items)
        while index < total:
            target, payload = items[index]
            if target is None:
                payload()  # control thunk
                index += 1
                continue
            # Coalesce consecutive frames for the same endpoint into
            # one batch; a control event in between breaks the run, so
            # traffic never overtakes a connect/disconnect signal.
            batch: List[bytes] = list(payload)
            index += 1
            while index < total and items[index][0] is target:
                batch.extend(items[index][1])
                index += 1
            if target._closed:
                continue
            shard.rx_messages += len(batch)
            target._events.deliver(target, batch)

    def quiesce(self, timeout: float = 5.0) -> bool:
        """Wait until every shard queue is drained and idle.

        The scale harness and tests use this as the inproc equivalent
        of "all in-flight frames delivered".  Returns False on timeout.
        Synchronous mode is always quiescent (dispatch is inline).
        """
        if not self._sharded:
            return True
        deadline = time.monotonic() + timeout
        for shard in self._shards:
            with shard.cond:
                while shard.queue or shard.busy:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    shard.cond.wait(timeout=min(remaining, 0.05))
        return True

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop shard workers (idempotent; no-op in synchronous mode).

        Loud teardown: a worker that fails to join within ``timeout_s``
        is counted (``transport.stop.stuck``) and raised; frames left
        in a stopped shard's queue are counted in
        ``transport.stop.undrained`` and raise under ``REPRO_ANALYSIS=1``
        (the flaky-teardown source this sweep fixes — previously both
        conditions hid behind the daemon flag until interpreter exit).
        """
        if self._stopped or not self._sharded:
            self._stopped = True
            return
        self._stopped = True
        for shard in self._shards:
            with shard.cond:
                shard.running = False
                shard.cond.notify_all()
        stuck: List[str] = []
        undrained = 0
        for shard in self._shards:
            shard.thread.join(timeout=timeout_s)
            if shard.thread.is_alive():
                get_counter("transport.stop.stuck").incr()
                stuck.append(shard.thread.name)
                continue
            # Worker exited: its queue is stable, so any frames still
            # in it were posted after the drain-on-exit and are lost.
            while True:
                try:
                    target, payload = shard.queue.popleft()
                except IndexError:
                    break
                if target is not None:
                    undrained += len(payload)
            shard.pressure.discard_gauges()
        if undrained:
            get_counter("transport.stop.undrained").incr(undrained)
        if stuck:
            raise RuntimeError(
                f"inproc transport stop: shard thread(s) stuck after "
                f"{timeout_s}s: {', '.join(stuck)}"
            )
        if undrained and os.environ.get("REPRO_ANALYSIS") == "1":
            raise RuntimeError(
                f"inproc transport stop: {undrained} ingest frame(s) left "
                f"undrained at teardown"
            )

    def start(self) -> None:
        """Shard workers start at construction; kept for API symmetry."""

    def shard_stats(self) -> List[dict]:
        """Per-shard load/traffic snapshot for the scale harness."""
        if not self._sharded:
            return [{"shard": 0, "connections": 0, "rx_messages": 0}]
        return [
            {
                "shard": shard.index,
                "connections": shard.connections,
                "rx_messages": shard.rx_messages,
            }
            for shard in self._shards
        ]
