"""Length-prefixed message framing over a byte stream.

TCP is a byte stream; E2AP (via SCTP) is message-oriented.  The framer
restores message boundaries with a 4-byte big-endian length prefix.
A maximum message size guards against corrupt prefixes taking the
receiver down.

The deframer windows the chunk it is fed: complete frames are sliced
straight out of it through a ``memoryview`` (one pass over a chunk of
many small frames, one copy per frame), and only the tail of a frame
the chunk did not finish is kept, in a receive buffer the next chunk is
joined to.  A wake-up whose chunk ends on a frame boundary — the
one-message case — never touches that buffer.
"""

from __future__ import annotations

import struct
import time
from typing import Iterable, List, Sequence

from repro.metrics.trace import TRACER as _TRACER

_LEN = struct.Struct(">I")

#: Hard cap on one E2AP message; generous versus the paper's 1500 B
#: MTU experiments yet small enough to catch stream corruption.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Default receive-side frame cap.  Tighter than the send-side cap: a
#: corrupt length prefix must be rejected before the receive buffer is
#: asked to hold it, or a single flipped bit OOMs the process.
DEFAULT_MAX_FRAME_LEN = 16 * 1024 * 1024


class FramingError(Exception):
    """Raised when the byte stream violates the framing protocol.

    ``messages`` carries the frames the same :meth:`Framer.feed` call
    completed before the violation: they arrived intact, so receivers
    deliver them before reporting the link dead.
    """

    messages: Sequence[bytes] = ()


def frame_message(payload: bytes) -> bytes:
    """Prefix ``payload`` with its length.

    ``payload`` may be any buffer-protocol object (``bytes``,
    ``bytearray``, ``memoryview``): the join below copies it into the
    frame exactly once with no intermediate ``bytes()`` materialization.

    With tracing enabled a ``frame`` span is recorded, adopting the
    correlation of the message encoded just before.
    """
    if len(payload) > MAX_MESSAGE_BYTES:
        raise FramingError(f"message too large: {len(payload)} B")
    tracer = _TRACER
    if tracer.enabled:
        start = time.perf_counter()
        frame = b"".join((_LEN.pack(len(payload)), payload))
        tracer.record("frame", start, tracer.adopt_corr())
        return frame
    return b"".join((_LEN.pack(len(payload)), payload))


def frame_messages(payloads: Iterable[bytes]) -> bytes:
    """Concatenate the frames of several payloads into one buffer.

    The receiver's :class:`Framer` splits them back into individual
    messages, so a batch costs one syscall on stream transports while
    message boundaries survive intact.
    """
    tracer = _TRACER
    start = time.perf_counter() if tracer.enabled else 0.0
    parts: List[bytes] = []
    for payload in payloads:
        if len(payload) > MAX_MESSAGE_BYTES:
            raise FramingError(f"message too large: {len(payload)} B")
        parts.append(_LEN.pack(len(payload)))
        parts.append(payload)
    wire = b"".join(parts)
    if start:
        tracer.record("frame", start, tracer.adopt_corr())
    return wire


class Framer:
    """Incremental deframer: feed stream chunks, get whole messages.

    Example:
        >>> f = Framer()
        >>> chunks = f.feed(frame_message(b"hi") + frame_message(b"yo"))
        >>> chunks
        [b'hi', b'yo']
    """

    def __init__(self, max_frame_len: int = DEFAULT_MAX_FRAME_LEN) -> None:
        if max_frame_len <= 0:
            raise ValueError(f"max_frame_len must be positive, got {max_frame_len}")
        self.max_frame_len = min(max_frame_len, MAX_MESSAGE_BYTES)
        self._buffer = bytearray()  # tail of a frame awaiting its rest

    def feed(self, chunk) -> List[bytes]:
        """Absorb ``chunk``; return every now-complete message.

        ``chunk`` may be any buffer-protocol object and is read in
        place; it may be reused as soon as ``feed`` returns.

        With tracing enabled the deframe pass is recorded as a
        ``frame`` span (procedure ``deframe``); the bytes are not yet
        decodable, so it carries no correlation — stitching places it
        by time window instead.
        """
        tracer = _TRACER
        trace_start = time.perf_counter() if tracer.enabled else 0.0
        buffer = self._buffer
        if buffer:
            buffer += chunk
            chunk = buffer
        # One memoryview for the whole pass; slicing it copies each
        # frame exactly once (into the immutable bytes handed out).
        view = memoryview(chunk)
        limit = len(view)
        pos = 0
        header = _LEN.size
        unpack = _LEN.unpack_from
        cap = self.max_frame_len
        messages: List[bytes] = []
        append = messages.append
        while limit - pos >= header:
            (length,) = unpack(view, pos)
            if length > cap:
                error = FramingError(f"frame length {length} exceeds cap {cap}")
                error.messages = messages
                raise error
            end = pos + header + length
            if end > limit:
                break
            # The one necessary copy: the frame must outlive the
            # receive window it is sliced from.
            append(view[pos + header:end].tobytes())  # repro-lint: disable=RL007
            pos = end
        if buffer:
            view.release()
            del buffer[:pos]
        elif pos < limit:
            buffer += view[pos:]
        if trace_start:
            tracer.record("frame", trace_start, procedure="deframe")
        return messages

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)
