"""Message-framed transport over TCP sockets (the SCTP stand-in).

Each :class:`TcpTransport` owns one ``selectors``-based I/O loop: the
single-threaded, event-driven loop the paper's server library uses
(§4.4) — one selector, one wake pipe, one thread.  Every connection is
read by that loop alone, which is what preserves per-connection message
ordering.  Parallelism is a process-level matter (``MultiProcServer``
runs one such transport per worker, sharing the port with
``reuseport=True``); more loops in one interpreter measured 0.73–0.99×
of one (DESIGN.md §10).

There is one receive path: a readable socket is drained and every frame
the wake-up completed reaches the receiver as one
``TransportEvents.deliver`` batch — the receive-side mirror of the
``send_many`` coalescing.  The drain leaves on a short read, so a
wake-up that carries one small message costs exactly one ``recv``.

The loop runs either inline (:meth:`step`, for tests) or on a background
thread (:meth:`start`), which is how the RTT experiments drive real
sockets on localhost exactly as the paper measured; either way a poll
also runs the listeners' ``on_tick`` callbacks, at most every ``TICK_S``.
"""

from __future__ import annotations

import errno
import select
import selectors
import socket
import struct
import threading
import time
from typing import Callable, List, Optional, Sequence

from repro.core.overload import OverloadConfig, QueuePressure, TrafficClass
from repro.core.transport.base import (
    ConnectTimeout,
    DisconnectReason,
    Endpoint,
    Listener,
    Transport,
    TransportEvents,
)
from repro.core.transport.framing import MAX_MESSAGE_BYTES, Framer, FramingError
from repro.metrics.counters import discard_counter, get_counter
from repro.metrics.trace import TRACER as _TRACER

_LEN = struct.Struct(">I")

#: iovecs per ``sendmsg`` call — conservative versus any platform's
#: IOV_MAX (Linux: 1024) while still coalescing a whole batch of small
#: frames into a handful of syscalls.
_IOV_BATCH = 64

#: scatter-gather send support (absent on some exotic platforms, which
#: write one buffer per ``send`` through the same continuation loop).
_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")

#: Kernel support for SO_REUSEPORT connection spreading.  Module-level
#: (not inlined into the constructor) so tests and the multiprocess
#: supervisor can probe — and monkeypatch — the same fact the
#: transport acts on.
_HAS_REUSEPORT = hasattr(socket, "SO_REUSEPORT")

#: an idle started loop wakes this often; ``on_tick`` runs at most as often.
TICK_S = 0.1


def reuseport_available() -> bool:
    """Can this kernel spread accepts across SO_REUSEPORT listeners?"""
    return _HAS_REUSEPORT


def _classify_oserror(exc: OSError) -> DisconnectReason:
    """Map a socket error onto a close-cause bucket.

    Recorded per bucket in ``repro.metrics`` counters so a flapping
    testbed shows *why* links die (peer resets versus silent EOFs),
    not just that they do.
    """
    if exc.errno in (errno.ECONNRESET, errno.EPIPE):
        return DisconnectReason(DisconnectReason.RESET, str(exc))
    return DisconnectReason(DisconnectReason.ERROR, str(exc))


def _parse_address(address: str) -> tuple:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {address!r}")
    return host, int(port)


class _TcpEndpoint(Endpoint):
    def __init__(
        self,
        transport: "TcpTransport",
        sock: socket.socket,
        events: TransportEvents,
    ) -> None:
        self._transport = transport
        self._sock = sock
        self._events = events
        self._framer = Framer()
        self._send_lock = threading.Lock()
        self._closed = False
        try:
            self._peer = "%s:%d" % sock.getpeername()[:2]
        except OSError:
            self._peer = "?"
        self.bytes_sent = 0
        self.messages_sent = 0

    def send(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionError("endpoint closed")
        size = len(data)
        if size > MAX_MESSAGE_BYTES:
            raise FramingError(f"message too large: {size} B")
        tracer = _TRACER
        trace_start = time.perf_counter() if tracer.enabled else 0.0
        prefix = _LEN.pack(size)
        total = _LEN.size + size
        if trace_start:
            tracer.record("frame", trace_start, tracer.adopt_corr())
            trace_start = time.perf_counter()
        # One syscall straight out of the caller's buffer (``data`` may
        # be any buffer-protocol object): the kernel copies it into the
        # socket buffer before ``sendmsg`` returns, so nothing is staged
        # in user space.  Under a lock: POSIX sockets are thread-safe
        # but frame interleaving from concurrent senders must still be
        # prevented.
        try:
            with self._send_lock:
                try:
                    sent = self._sock.sendmsg((prefix, data)) if _HAS_SENDMSG else 0
                except (BlockingIOError, InterruptedError):
                    sent = 0
                    self._wait_writable()
                if sent != total:
                    self._sendmsg_all([prefix, data], sent)
        except OSError as exc:
            raise self._send_failed(exc)
        if trace_start:
            tracer.record("send", trace_start, tracer.adopt_corr(), node=self._peer)
        self.bytes_sent += size
        self.messages_sent += 1

    def send_many(self, batch: Sequence[bytes]) -> None:
        if not batch:
            return
        if self._closed:
            raise ConnectionError("endpoint closed")
        tracer = _TRACER
        # Scatter-gather: the kernel walks [prefix, payload] iovec
        # pairs straight out of the callers' buffers — no coalesced
        # ``bytes`` materialization at all.
        if tracer.enabled:
            frame_start = time.perf_counter()
            iov = self._build_iov(batch)
            tracer.record("frame", frame_start, tracer.adopt_corr())
        else:
            iov = self._build_iov(batch)
        trace_start = time.perf_counter() if tracer.enabled else 0.0
        try:
            with self._send_lock:
                vectored = get_counter("tcp.send.vectored")
                for start in range(0, len(iov), 2 * _IOV_BATCH):
                    self._sendmsg_all(iov[start:start + 2 * _IOV_BATCH])
                    vectored.incr()
        except OSError as exc:
            raise self._send_failed(exc)
        if trace_start:
            tracer.record("send", trace_start, tracer.adopt_corr(), node=self._peer)
        self.bytes_sent += sum(len(data) for data in batch)
        self.messages_sent += len(batch)

    @staticmethod
    def _build_iov(batch: Sequence[bytes]) -> List[bytes]:
        """Interleave length prefixes with payloads for ``sendmsg``."""
        iov: List[bytes] = []
        for payload in batch:
            if len(payload) > MAX_MESSAGE_BYTES:
                raise FramingError(f"message too large: {len(payload)} B")
            iov.append(_LEN.pack(len(payload)))
            iov.append(payload)
        return iov

    def _sendmsg_all(self, buffers: List[bytes], sent: int = 0) -> None:
        """The one partial-send continuation of ``send`` and ``send_many``.

        A short write leaves the tail of an iovec (or whole iovecs)
        unsent; the remainder is re-submitted from where the kernel
        stopped (``sent`` octets of ``buffers`` are already out).  A
        full socket buffer (the peer is merely slow) waits up to 5 s
        for writability — abandoning mid-frame would corrupt the
        stream for the peer.
        """
        sock = self._sock
        remaining: List[memoryview] = [memoryview(b) for b in buffers]
        index = 0
        while True:
            while index < len(remaining) and sent >= len(remaining[index]):
                sent -= len(remaining[index])
                index += 1
            if index == len(remaining):
                return
            if sent:
                remaining[index] = remaining[index][sent:]
            try:
                if _HAS_SENDMSG:
                    sent = sock.sendmsg(remaining[index:])
                else:  # pragma: no cover - platforms without sendmsg
                    sent = sock.send(remaining[index])
            except (BlockingIOError, InterruptedError):
                sent = 0
                self._wait_writable()

    def _wait_writable(self) -> None:
        """Ride out a full socket buffer; a 5 s stall is a dead peer."""
        _readable, writable, _err = select.select([], [self._sock], [], 5.0)
        if not writable:
            raise OSError(errno.ETIMEDOUT, "send stalled: socket unwritable for 5s")

    def _send_failed(self, exc: OSError) -> ConnectionError:
        """Account for a send-side death and tear the endpoint down."""
        reason = _classify_oserror(exc)
        get_counter(f"tcp.close.{reason.code}").incr()
        self._transport._close_endpoint(self, notify_local=True, reason=reason)
        return ConnectionError(f"send failed: {exc}")

    def close(self) -> None:
        self._transport._close_endpoint(
            self,
            notify_local=False,
            reason=DisconnectReason(DisconnectReason.LOCAL),
        )

    @property
    def peer(self) -> str:
        return self._peer

    @property
    def closed(self) -> bool:
        return self._closed


class _TcpListener(Listener):
    """One listening address: one accept socket on the transport's loop."""

    def __init__(self, transport: "TcpTransport", sock: socket.socket, events: TransportEvents) -> None:
        self._transport = transport
        self._sock = sock
        self._events = events
        host, port = sock.getsockname()[:2]
        self._address = f"{host}:{port}"

    def close(self) -> None:
        self._transport._close_listener(self)

    @property
    def address(self) -> str:
        return self._address

    @property
    def port(self) -> int:
        return int(self._address.rpartition(":")[2])


class TcpTransport(Transport):
    """Framed-TCP transport with one owned selector loop."""

    name = "tcp"

    #: bytes read per recv call (the size of the loop's receive window).
    RECV_SIZE = 256 * 1024
    #: per-wakeup drain cap: a connection bursting more than this
    #: yields the loop so its neighbours stay live; the level-triggered
    #: selector re-arms it on the next poll.
    MAX_DRAIN_BYTES = 1024 * 1024

    def __init__(
        self,
        connect_timeout_s: float = 5.0,
        reuseport: bool = False,
        overload: Optional[OverloadConfig] = None,
        classify: Optional[Callable[[bytes], TrafficClass]] = None,
    ) -> None:
        if overload is not None and classify is None:
            raise ValueError("overload policy requires a frame classifier")
        self.connect_timeout_s = connect_timeout_s
        if reuseport and not reuseport_available():
            # A worker process that cannot share its port with its
            # siblings must not bind one alone (DESIGN.md §14).
            raise RuntimeError("SO_REUSEPORT is not available on this platform")
        self._reuseport = reuseport
        self._selector = selectors.DefaultSelector()
        #: guards the selector's registrations and the endpoint table
        #: (``connect``/``close`` arrive from callers' threads).
        self._lock = threading.Lock()
        #: depth accounting and the shed rule for the loop's ingest.
        #: TCP's real queue is the kernel socket buffer, so "depth" here
        #: is the size of the batch one wakeup drained — the loop's view
        #: of how far behind it is running.
        self._pressure = QueuePressure("tcp.shard.0", overload, classify)
        self._thread: Optional[threading.Thread] = None
        #: sock -> endpoint, for teardown.
        self._endpoints: dict = {}
        #: the loop's one receive window (only the loop reads);
        #: ``_read`` sizes it to ``RECV_SIZE`` on first use.
        self._recv_view = memoryview(b"")
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, ("wake", None))
        self._listeners: List[_TcpListener] = []
        #: the listeners' distinct ``on_tick`` callbacks and their next run.
        self._ticks: tuple = ()
        self._next_tick = 0.0
        self._running = False
        self._stopped = False

    @property
    def shards(self) -> int:
        """Always 1: the e2e harness reports it as ``ric.shards``."""
        return 1

    # -- public API --------------------------------------------------

    def listen(self, address: str, events: TransportEvents) -> _TcpListener:
        self._check_open()
        host, port = _parse_address(address)
        # A worker process binds with SO_REUSEPORT so it shares the port
        # with its sibling workers (the multiprocess ingest mode of
        # DESIGN.md §14).
        listener = _TcpListener(self, self._bind(host, port, self._reuseport), events)
        self._register(listener._sock, "accept", listener)
        self._listeners.append(listener)
        self._collect_ticks()
        return listener

    @staticmethod
    def _bind(host: str, port: int, reuseport: bool) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(64)
        sock.setblocking(False)
        return sock

    def connect(self, address: str, events: TransportEvents) -> _TcpEndpoint:
        self._check_open()
        host, port = _parse_address(address)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Bounded connect: a black-holed address must not stall the
        # caller for the OS default (minutes); the reconnect path
        # treats the timeout like any other refused attempt.
        sock.settimeout(self.connect_timeout_s if self.connect_timeout_s > 0 else None)
        try:
            sock.connect((host, port))
        except socket.timeout:
            sock.close()
            get_counter("tcp.connect.timeout").incr()
            raise ConnectTimeout(
                f"connect to {address} timed out after {self.connect_timeout_s}s"
            )
        except OSError:
            sock.close()
            raise
        sock.setblocking(False)
        endpoint = _TcpEndpoint(self, sock, events)
        self._register(sock, "conn", endpoint)
        events.on_connected(endpoint)
        return endpoint

    def start(self) -> None:
        """Run the loop on a daemon thread until :meth:`stop`."""
        self._check_open()
        if self._running:
            return
        self._running = True
        self._thread = threading.Thread(
            target=self._run, name="tcp-transport-0", daemon=True
        )
        self._thread.start()

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop the loop thread and close every socket (idempotent, final).

        Teardown is *loud*: a loop thread that fails to join within
        ``timeout_s`` is counted in ``transport.stop.stuck`` and
        reported with :class:`RuntimeError` after the remaining
        resources are released — a stuck loop previously hid behind its
        daemon flag until interpreter exit and surfaced only as flaky
        teardown under ``REPRO_ANALYSIS=1``.
        """
        if self._stopped:
            return
        self._stopped = True
        self._running = False
        self._wake()
        thread, self._thread = self._thread, None
        stuck = False
        if thread is not None:
            thread.join(timeout=timeout_s)
            stuck = thread.is_alive()
            if stuck:
                get_counter("transport.stop.stuck").incr()
        for listener in list(self._listeners):
            self._close_listener(listener)
        with self._lock:
            for sock, endpoint in self._endpoints.items():
                endpoint._closed = True
                discard_counter(f"overload.conn.{endpoint._peer}.drops")
                self._unregister(sock)
                sock.close()
            self._endpoints.clear()
            # The self-pipe: left open across stop() it leaks two fds
            # per create/stop cycle (chaos suites cycle transports).
            self._unregister(self._wake_recv)
            self._wake_recv.close()
            self._wake_send.close()
            self._selector.close()
        # Conn-scoped pressure gauges die with the loop that owned
        # them — a later transport on the same scope starts clean.
        self._pressure.discard_gauges()
        if stuck:
            raise RuntimeError(
                f"tcp transport stop: loop thread stuck after {timeout_s}s: {thread.name}"
            )

    def step(self, timeout: float = 0.0) -> int:
        """Process pending I/O inline; returns the number of events."""
        self._check_open()
        return self._poll(timeout)

    # -- internals ---------------------------------------------------

    def _check_open(self) -> None:
        """A stopped transport is final: its selector and wake pipe are gone."""
        if self._stopped:
            raise RuntimeError("transport stopped")

    def _register(self, sock: socket.socket, kind: str, owner: object) -> None:
        """Hand ``sock`` to the loop (from any thread) and make it look."""
        with self._lock:
            if self._stopped:  # lost the race with stop(): nobody is left to own it
                sock.close()
            self._check_open()
            if kind == "conn":
                self._endpoints[sock] = owner
            self._selector.register(sock, selectors.EVENT_READ, (kind, owner))
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"x")
        except OSError:
            pass

    def _collect_ticks(self) -> None:
        """Distinct ``on_tick`` callbacks: a server on two addresses ticks once."""
        ticks = (listener._events.on_tick for listener in self._listeners)
        self._ticks = tuple(dict.fromkeys(tick for tick in ticks if tick is not None))

    def _run(self) -> None:
        while self._running:
            self._poll(timeout=TICK_S)

    def _poll(self, timeout: float) -> int:
        try:
            events = self._selector.select(timeout)
        except OSError:
            return 0
        for key, _mask in events:
            kind, owner = key.data
            if kind == "conn":
                self._read(owner)
            elif kind == "accept":
                self._accept(key.fileobj, owner)
            else:
                try:
                    while self._wake_recv.recv(4096):
                        pass
                except OSError:
                    pass
        if self._ticks and time.monotonic() >= self._next_tick:
            self._next_tick = time.monotonic() + TICK_S
            for tick in self._ticks:
                tick()
        return len(events)

    def _accept(self, sock: socket.socket, listener: _TcpListener) -> None:
        try:
            conn, _addr = sock.accept()
        except OSError:
            return
        conn.setblocking(False)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        endpoint = _TcpEndpoint(self, conn, listener._events)
        # Announce before the connection can be read: the peer's first
        # frame must not reach a receiver that has never seen the
        # endpoint.
        listener._events.on_connected(endpoint)
        if endpoint._closed:  # the receiver refused it on sight
            return
        with self._lock:
            self._endpoints[conn] = endpoint
            self._selector.register(conn, selectors.EVENT_READ, ("conn", endpoint))

    def _read(self, endpoint: _TcpEndpoint) -> None:
        """Drain the socket, deliver one frame batch (the only receive path).

        Everything the wakeup completed reaches the receiver as one
        ``deliver`` call; a terminal condition found mid-drain (EOF,
        reset, framing violation) is reported only *after* the frames
        completed before it were delivered, preserving the
        per-connection ordering guarantee.  The drain leaves on a short
        read: the kernel buffer was empty at that moment, and the
        selector is level-triggered, so bytes (or an EOF) that arrive
        later are seen on the next poll, still after these frames.
        """
        tracer = _TRACER
        trace_start = time.perf_counter() if tracer.enabled else 0.0
        drained = 0
        terminal: Optional[DisconnectReason] = None
        # Placeholder only: every terminal path below overwrites it
        # with the specific close-cause name before it is used.
        terminal_counter = "tcp.close.error"
        size = self.RECV_SIZE
        window = self._recv_view
        if window.nbytes != size:  # first read, or a test shrank it
            window = self._recv_view = memoryview(bytearray(size))
        recv_into = endpoint._sock.recv_into
        feed = endpoint._framer.feed
        messages: List[bytes] = []
        while drained < self.MAX_DRAIN_BYTES:
            try:
                got = recv_into(window)
            except BlockingIOError:
                break
            except OSError as exc:
                terminal = _classify_oserror(exc)
                terminal_counter = f"tcp.close.{terminal.code}"
                break
            if not got:
                terminal = DisconnectReason(DisconnectReason.EOF)
                terminal_counter = "tcp.close.eof"
                break
            drained += got
            try:
                # The frames are copied out of the window here, so the
                # next read (or a nested ``step``) may overwrite it.
                messages += feed(window[:got])
            except FramingError as exc:
                # Corrupt/oversize length prefix: kill the link instead
                # of letting the receive buffer grow towards the bogus
                # length — after the frames this chunk had completed.
                messages += exc.messages
                terminal = DisconnectReason(DisconnectReason.PROTOCOL, str(exc))
                terminal_counter = "tcp.close.framing"
                break
            if got < size:
                break
        if trace_start and drained:
            # The recv syscalls and deframing; decode has its own span
            # (no correlation yet — the bytes are still opaque).
            tracer.record("recv", trace_start, node=endpoint._peer)
        if messages:
            pressure = self._pressure
            bounded = pressure.bounded
            if bounded:
                # The drained batch *is* the queue (frames already left
                # the kernel buffer): keep all control frames and the
                # newest ``max_queue_depth`` indications, shedding the
                # oldest first.
                pressure.note_depth(len(messages))
                messages = pressure.admit(messages, endpoint._peer)
            if messages:
                # ``on_messages`` is read per delivery (receivers swap
                # it); ``deliver`` is the per-frame ``on_message`` walk.
                events = endpoint._events
                (events.on_messages or events.deliver)(endpoint, messages)
            if bounded:
                # The batch was fully delivered: put the depth gauge
                # back to zero or it reads "len(last batch)" forever
                # (the stale-depth leak of the §14 bugfix sweep).
                pressure.note_depth(0)
        if terminal is not None:
            get_counter(terminal_counter).incr()
            self._close_endpoint(endpoint, notify_local=True, reason=terminal)

    def _close_endpoint(
        self,
        endpoint: _TcpEndpoint,
        notify_local: bool,
        reason: Optional[DisconnectReason] = None,
    ) -> None:
        if endpoint._closed:
            return
        endpoint._closed = True
        sock = endpoint._sock
        with self._lock:
            self._endpoints.pop(sock, None)
            self._unregister(sock)
        # Unregister conn-scoped instruments with the link (PR 3's
        # dead-link gauge discipline): per-connection drop counters for
        # a dead peer otherwise accumulate forever under churn.
        discard_counter(f"overload.conn.{endpoint._peer}.drops")
        try:
            sock.close()
        except OSError:
            pass
        if notify_local:
            endpoint._events.on_disconnected(
                endpoint, reason or DisconnectReason(DisconnectReason.ERROR)
            )

    def _close_listener(self, listener: _TcpListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)
            self._collect_ticks()
        with self._lock:
            self._unregister(listener._sock)
        try:
            listener._sock.close()
        except OSError:
            pass

    def _unregister(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError, OSError):
            pass
