"""Asyncio-native server ingest loop (DESIGN.md §15).

The sync :class:`~repro.core.transport.tcp.TcpTransport` runs its
selector loop on a thread; an all-async deployment that embeds a
:class:`~repro.core.server.server.Server` next to asyncio iApps then
carries selector threads it never wanted.  :class:`AioServer` accepts
agent connections on the caller's event loop instead: one
``asyncio.Protocol`` per connection feeds the existing
:class:`~repro.core.transport.framing.Framer` + dispatch + overload
machinery — same wire format, same admission behaviour, zero extra
threads.

Dispatch runs inline on the loop thread (the asyncio mirror of "the
transport's loop thread" in the sync design); sends may come from
any thread (iApp threads, liveness probes) and are marshalled to
the loop with ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Optional

from repro.core.overload import QueuePressure, frame_classifier
from repro.core.transport.base import DisconnectReason, Endpoint, TransportEvents
from repro.core.transport.framing import (
    Framer,
    FramingError,
    frame_message,
    frame_messages,
)
from repro.metrics.counters import get_counter


class _AioServerEndpoint(Endpoint):
    """Endpoint adapter over one accepted asyncio transport.

    The dispatch layer above (server callbacks, iApps) is written
    against the sync :class:`Endpoint` surface and may send from any
    thread; writes from foreign threads are marshalled onto the event
    loop, where ``transport.write`` is legal.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        transport: asyncio.Transport,
        peer: str,
    ) -> None:
        self._loop = loop
        self._transport = transport
        self._peer = peer
        self._closed = False
        #: resolved by connection_lost after on_disconnected reached
        #: the server; AioServer.stop() awaits these so teardown is
        #: observed, not raced.
        self.closed_fut: asyncio.Future = loop.create_future()

    def _write(self, wire: bytes) -> None:
        if not self._closed and not self._transport.is_closing():
            self._transport.write(wire)

    def _submit(self, wire: bytes) -> None:
        if self._closed:
            raise ConnectionError("endpoint closed")
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self._loop:
            self._write(wire)
        else:
            self._loop.call_soon_threadsafe(self._write, wire)

    def send(self, data: bytes) -> None:
        self._submit(frame_message(data))

    def send_many(self, batch) -> None:
        if not batch:
            return
        self._submit(frame_messages(batch))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop.call_soon_threadsafe(self._transport.close)

    @property
    def peer(self) -> str:
        return self._peer

    @property
    def closed(self) -> bool:
        return self._closed


class _AioServerProtocol(asyncio.Protocol):
    """One accepted connection: frame, admit, dispatch — on the loop."""

    def __init__(self, owner: "AioServer") -> None:
        self._owner = owner
        self._events: TransportEvents = owner._events
        self._framer = Framer()
        self._endpoint: Optional[_AioServerEndpoint] = None
        #: per-connection pending disconnect reason (set on a local
        #: protocol-error close, consumed by connection_lost) — kept on
        #: the protocol so concurrent failing connections cannot
        #: misattribute each other's reasons.
        self._disconnect_reason: Optional[DisconnectReason] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP stream
                pass
        info = transport.get_extra_info("peername")
        peer = "%s:%d" % info[:2] if info else "?"
        self._endpoint = _AioServerEndpoint(self._owner._loop, transport, peer)
        self._owner._track(self._endpoint)
        get_counter("aio.server.connections").incr()
        self._events.on_connected(self._endpoint)

    def data_received(self, data: bytes) -> None:
        endpoint = self._endpoint
        assert endpoint is not None
        violation: Optional[FramingError] = None
        try:
            messages = self._framer.feed(data)
        except FramingError as exc:
            messages, violation = exc.messages, exc
        if messages:
            get_counter("aio.server.frames").incr(len(messages))
            pressure = self._owner._pressure
            bounded = pressure is not None and pressure.bounded
            if bounded:
                # The drained batch is the queue (mirror of the TCP
                # loop): keep control frames, shed oldest indications past
                # the budget, and zero the depth gauge after delivery.
                pressure.note_depth(len(messages))
                messages = pressure.admit(messages, 0, endpoint.peer)
            if messages:
                self._events.deliver(endpoint, messages)
            if bounded:
                pressure.note_depth(0)
        if violation is not None:
            # Same contract as the sync loop: never resynchronize
            # into garbage after a corrupt length prefix — but the frames
            # completed before it were delivered first.
            get_counter("tcp.close.framing").incr()
            self._disconnect_reason = DisconnectReason(
                DisconnectReason.PROTOCOL, str(violation)
            )
            endpoint.close()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        endpoint = self._endpoint
        if endpoint is None:  # pragma: no cover - never connected
            return
        if endpoint.closed:
            reason = self._disconnect_reason or DisconnectReason(
                DisconnectReason.LOCAL
            )
            self._disconnect_reason = None
        elif exc is None:
            reason = DisconnectReason(DisconnectReason.EOF)
        elif isinstance(exc, ConnectionResetError):
            reason = DisconnectReason(DisconnectReason.RESET, str(exc))
        else:
            reason = DisconnectReason(DisconnectReason.ERROR, str(exc))
        endpoint._closed = True
        self._owner._untrack(endpoint)
        self._events.on_disconnected(endpoint, reason)
        if not endpoint.closed_fut.done():
            endpoint.closed_fut.set_result(None)


class AioServer:
    """Accept framed agent connections on an asyncio event loop.

    Wraps an existing :class:`~repro.core.server.server.Server`: the
    server's dispatch pipeline, subscription manager, and overload
    discipline are reused unchanged; only the ingest loop moves from
    selector threads onto the caller's event loop.

    Usage::

        server = Server(config=ServerConfig(...))
        aio = AioServer(server)
        await aio.start()           # bound port in aio.port
        ...
        await aio.stop()
    """

    def __init__(
        self, server, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._server = server
        self._host = host
        self._requested_port = port
        self._events = server.transport_events()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._aio_server: Optional[asyncio.AbstractServer] = None
        self._endpoints: set = set()
        self._endpoints_lock = threading.Lock()
        self._port: Optional[int] = None
        overload = getattr(server, "overload", None)
        self._pressure: Optional[QueuePressure] = (
            QueuePressure("aio.server", overload, frame_classifier(server.codec))
            if overload is not None
            else None
        )

    async def start(self) -> None:
        if self._aio_server is not None:
            raise RuntimeError("AioServer already started")
        self._loop = asyncio.get_running_loop()
        self._aio_server = await self._loop.create_server(
            lambda: _AioServerProtocol(self),
            self._host,
            self._requested_port,
        )
        sockets = self._aio_server.sockets
        self._port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._aio_server is None:
            return
        self._aio_server.close()
        await self._aio_server.wait_closed()
        self._aio_server = None
        with self._endpoints_lock:
            endpoints = list(self._endpoints)
        for endpoint in endpoints:
            endpoint.close()
        # Each close is deferred via call_soon_threadsafe and the
        # transport delivers connection_lost on a later loop iteration,
        # so wait on the per-connection closed futures: on_disconnected
        # has reached the server for every connection before return.
        pending = [ep.closed_fut for ep in endpoints if not ep.closed_fut.done()]
        if pending:
            _done, still_open = await asyncio.wait(pending, timeout=5.0)
            if still_open:  # pragma: no cover - transport never closed
                get_counter("transport.stop.stuck").incr()
        if self._pressure is not None:
            self._pressure.discard_gauges()

    def _track(self, endpoint: _AioServerEndpoint) -> None:
        with self._endpoints_lock:
            self._endpoints.add(endpoint)

    def _untrack(self, endpoint: _AioServerEndpoint) -> None:
        with self._endpoints_lock:
            self._endpoints.discard(endpoint)

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("AioServer not started")
        return self._port

    @property
    def address(self) -> str:
        return f"{self._host}:{self.port}"
