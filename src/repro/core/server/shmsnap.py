"""Seqlock-style shared-memory snapshot publication (DESIGN.md §15).

The multiprocess supervisor used to republish its full
:class:`SubscriptionPolicy` set as a pickled payload over every worker
control pipe on every change — O(workers × policies) pickle bytes per
publish, re-paid in full on each respawn.  This module moves the
snapshot into one ``multiprocessing.shared_memory`` segment the parent
owns: the payload is written once, pipes carry only a "generation
bumped" nudge (a couple of dozen bytes), and a respawned worker reads
the segment the parent still holds — the generation counter survives
any number of worker deaths.

Layout (little-endian)::

    [generation:8][length:8][payload...]

The generation is a seqlock: the writer bumps it to an *odd* value
before touching the payload and to the next *even* value after, so a
reader that observes an odd generation, or different generations
before and after its copy, knows it raced a write and retries.  One
writer (the parent), any number of readers (the workers) — no locks,
no cross-process mutexes.

The writer never mutates a published payload in place semantically:
every :meth:`SnapshotWriter.publish` replaces the whole payload under
a fresh generation, and readers always copy the payload out before
deserializing.

Fallback contract: everything here raises loudly (oversize payload,
unstable read) so callers can fall back to the pickled pipe path and
count it (``server.policy.shm_fallback``) — never silently serve a
stale or torn snapshot.
"""

from __future__ import annotations

import struct
import time
from typing import Optional, Tuple

_HDR = struct.Struct("<QQ")  # (generation, payload length)

#: default payload capacity — generous versus a realistic policy set
#: (one entry pickles to ~100 B; this holds tens of thousands).
DEFAULT_CAPACITY = 1 << 20

#: seqlock read attempts before the reader declares the segment
#: unstable and the caller falls back to the pipe path.
_READ_RETRIES = 1000


class SnapshotWriter:
    """Parent-owned writer of the versioned snapshot segment."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        from multiprocessing import shared_memory

        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._shm = shared_memory.SharedMemory(
            create=True, size=_HDR.size + capacity
        )
        self._gen = 0
        _HDR.pack_into(self._shm.buf, 0, 0, 0)

    @property
    def name(self) -> str:
        """Kernel name of the segment (attach key for readers)."""
        return self._shm.name

    @property
    def generation(self) -> int:
        """Generation of the last completed publish (0 = none yet)."""
        return self._gen

    def publish(self, payload: bytes) -> int:
        """Replace the snapshot payload; returns the new generation.

        Raises :class:`ValueError` when ``payload`` exceeds the
        segment's capacity — the caller's cue to take the pickled pipe
        path for this publish.
        """
        if len(payload) > self.capacity:
            raise ValueError(
                f"snapshot payload {len(payload)} B exceeds segment "
                f"capacity {self.capacity} B"
            )
        buf = self._shm.buf
        # Seqlock write protocol: odd = write in progress.
        _HDR.pack_into(buf, 0, self._gen + 1, 0)
        buf[_HDR.size : _HDR.size + len(payload)] = payload
        self._gen += 2
        _HDR.pack_into(buf, 0, self._gen, len(payload))
        return self._gen

    def reader(self) -> "SnapshotReader":
        """A reader over this writer's segment (fork-inheritable)."""
        return SnapshotReader(shm=self._shm)

    def close(self, unlink: bool = True) -> None:
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass
        if unlink:
            try:
                self._shm.unlink()
            except (OSError, FileNotFoundError):
                pass


class SnapshotReader:
    """Worker-side view of the snapshot segment.

    Built either from a writer (``writer.reader()`` — the fork path:
    the child inherits the parent's mapping) or by attaching to a
    segment ``name``.
    """

    def __init__(self, name: Optional[str] = None, shm=None) -> None:
        if shm is None:
            if name is None:
                raise ValueError("SnapshotReader needs a name or a segment")
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(name=name)
            self._owned = True
        else:
            self._owned = False
        self._shm = shm

    def read(self) -> Optional[Tuple[int, bytes]]:
        """``(generation, payload)`` of the latest stable snapshot.

        Returns ``None`` when nothing has been published yet.  Raises
        :class:`RuntimeError` when the read cannot stabilize (a writer
        stuck mid-publish) — the caller's cue to fall back to the pipe.
        """
        buf = self._shm.buf
        for _ in range(_READ_RETRIES):
            gen1, length = _HDR.unpack_from(buf, 0)
            if gen1 == 0:
                return None
            if gen1 & 1:
                time.sleep(0)  # writer mid-publish: yield and retry
                continue
            # Copy out *before* re-checking the generation: the payload
            # must be immutable by the time the seqlock validates it.
            payload = bytes(buf[_HDR.size : _HDR.size + length])
            gen2, _ = _HDR.unpack_from(buf, 0)
            if gen1 == gen2:
                return gen1, payload
        raise RuntimeError("snapshot read did not stabilize (writer stuck?)")

    def close(self) -> None:
        if self._owned:
            try:
                self._shm.close()
            except (OSError, BufferError):
                pass
