"""Asyncio framed-TCP endpoint.

Same wire format as :mod:`repro.core.transport.tcp` (length-prefixed
frames via :class:`~repro.core.transport.framing.Framer`), so an
asyncio peer interoperates with the sync selector loops byte-for-byte.
No event callbacks here: asyncio callers pull frames with ``await
endpoint.recv()`` or ``async for frame in endpoint``.
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Deque, Optional, Sequence

from repro.core.transport.framing import (
    Framer,
    FramingError,
    frame_message,
    frame_messages,
)

#: bytes requested per reader.read call (mirrors TcpTransport.RECV_SIZE).
_READ_SIZE = 256 * 1024


class AioEndpoint:
    """One framed connection over an asyncio stream pair."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._framer = Framer()
        self._pending: Deque[bytes] = deque()
        self._violation: Optional[FramingError] = None
        self._closed = False

    async def send(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionError("endpoint closed")
        self._writer.write(frame_message(data))
        await self._writer.drain()

    async def send_many(self, batch: Sequence[bytes]) -> None:
        """One coalesced write for the batch (mirror of sync send_many)."""
        if not batch:
            return
        if self._closed:
            raise ConnectionError("endpoint closed")
        self._writer.write(frame_messages(batch))
        await self._writer.drain()

    async def recv(self) -> Optional[bytes]:
        """Next complete frame, or ``None`` on orderly EOF.

        A :class:`~repro.core.transport.framing.FramingError` from a
        corrupt length prefix propagates — the caller must kill the
        link rather than resynchronize into garbage — once the frames
        completed before it have been handed out.
        """
        while not self._pending:
            if self._violation is not None:
                raise self._violation
            chunk = await self._reader.read(_READ_SIZE)
            if not chunk:
                return None
            try:
                self._pending.extend(self._framer.feed(chunk))
            except FramingError as exc:
                self._pending.extend(exc.messages)
                self._violation = exc
        return self._pending.popleft()

    def __aiter__(self) -> "AioEndpoint":
        return self

    async def __anext__(self) -> bytes:
        frame = await self.recv()
        if frame is None:
            raise StopAsyncIteration
        return frame

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def peer(self) -> str:
        info = self._writer.get_extra_info("peername")
        if not info:
            return "?"
        return "%s:%d" % info[:2]


async def aio_connect(host: str, port: int, timeout_s: float = 5.0) -> AioEndpoint:
    """Open a framed connection to ``host:port`` (bounded connect)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout_s
    )
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP stream
            pass
    return AioEndpoint(reader, writer)
