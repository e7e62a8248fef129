"""Deterministic fault-injection transport wrapper.

Real SD-RAN testbeds lose E2 links constantly — SCTP associations flap,
middleboxes corrupt frames, peers vanish silently.  The reproduction's
lifecycle-resilience layer (agent reconnect, server-side subscription
resync, liveness probing) is tested against exactly that weather, and
:class:`FaultyTransport` is the weather machine: it decorates any
:class:`~repro.core.transport.base.Transport` and injects frame drops,
duplication, reordering, corruption, truncation, delayed delivery, and
forced link kills on a seeded, reproducible schedule.

Faults are applied on the *send* path, before the inner transport sees
the bytes, so the same chaos plan works over the in-process loopback
and over real TCP sockets.  All decisions come from one
``random.Random(seed)``: a fixed seed over a single-threaded transport
(inproc, or TCP driven by ``step``) replays bit-identically, which is
what lets the chaos suite assert exact reconnect counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.transport.base import (
    DisconnectReason,
    Endpoint,
    Listener,
    Transport,
    TransportEvents,
)
from repro.metrics.counters import get_counter


@dataclass
class FaultSpec:
    """Fault schedule; all rates are per-message probabilities.

    Attributes are read at every send, so a test may mutate the spec
    mid-run (e.g. flip ``drop_rate`` to 1.0 to simulate a silent death
    that TCP never reports).
    """

    drop_rate: float = 0.0        # frame silently discarded
    dup_rate: float = 0.0         # frame delivered twice
    reorder_rate: float = 0.0     # frame held back, overtaken by the next
    corrupt_rate: float = 0.0     # one byte flipped
    truncate_rate: float = 0.0    # frame cut to a random prefix
    delay_rate: float = 0.0       # frame parked until flush_delayed()
    #: force-kill the link after every N messages offered to send
    #: (0 disables).  The killing message is delivered first, then the
    #: link dies — both sides observe a disconnect, like a mid-stream
    #: network cut.
    disconnect_every: int = 0

    def validate(self) -> None:
        for name in ("drop_rate", "dup_rate", "reorder_rate",
                     "corrupt_rate", "truncate_rate", "delay_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {value}")
        if self.disconnect_every < 0:
            raise ValueError(f"disconnect_every must be >= 0: {self.disconnect_every}")


class _FaultyEndpoint(Endpoint):
    """Send-side fault applicator wrapping one inner endpoint."""

    def __init__(
        self,
        transport: "FaultyTransport",
        inner: Endpoint,
        events: TransportEvents,
    ) -> None:
        self._transport = transport
        self._inner = inner
        self._events = events
        self._killed = False
        self._held: Optional[bytes] = None      # reorder buffer (1 deep)
        self._delayed: List[bytes] = []
        self.messages_offered = 0

    # -- Endpoint ----------------------------------------------------

    def send(self, data: bytes) -> None:
        # ``send_many`` is the inherited per-message loop over this:
        # fault decisions are per message, so bursts are not coalesced.
        if self.closed:
            raise ConnectionError("endpoint closed")
        spec = self._transport.spec
        rng = self._transport.rng
        self.messages_offered += 1
        kill_after = (
            spec.disconnect_every > 0
            and self.messages_offered % spec.disconnect_every == 0
        )
        self._apply(bytes(data), spec, rng)
        if kill_after:
            self._kill("disconnect_every schedule")

    def _apply(self, data: bytes, spec: FaultSpec, rng: random.Random) -> None:
        if spec.drop_rate and rng.random() < spec.drop_rate:
            get_counter("faulty.drop").incr()
            return
        if spec.corrupt_rate and data and rng.random() < spec.corrupt_rate:
            get_counter("faulty.corrupt").incr()
            position = rng.randrange(len(data))
            corrupted = bytearray(data)
            corrupted[position] ^= 0xFF
            data = bytes(corrupted)
        if spec.truncate_rate and data and rng.random() < spec.truncate_rate:
            get_counter("faulty.truncate").incr()
            data = data[: rng.randrange(len(data))]
        if spec.delay_rate and rng.random() < spec.delay_rate:
            get_counter("faulty.delay").incr()
            self._delayed.append(data)
            return
        if spec.reorder_rate and self._held is None and rng.random() < spec.reorder_rate:
            get_counter("faulty.reorder").incr()
            self._held = data
            return
        self._deliver(data)
        if spec.dup_rate and rng.random() < spec.dup_rate:
            get_counter("faulty.dup").incr()
            self._deliver(data)
        if self._held is not None:
            held, self._held = self._held, None
            self._deliver(held)

    def _deliver(self, data: bytes) -> None:
        try:
            self._inner.send(data)
        except (ConnectionError, OSError):
            # The inner link died under us (possibly from an earlier
            # injected kill); the disconnect callback carries the news.
            pass

    def flush_delayed(self) -> int:
        """Release every parked frame in order; returns the count.

        Also releases a frame still held back by the reorder buffer —
        at end of run there is no later frame to overtake it.
        """
        released = 0
        while self._delayed and not self.closed:
            self._deliver(self._delayed.pop(0))
            released += 1
        if self._held is not None and not self.closed:
            held, self._held = self._held, None
            self._deliver(held)
            released += 1
        return released

    def _kill(self, detail: str) -> None:
        """Cut the link: both sides observe a disconnect."""
        if self._killed:
            return
        self._killed = True
        self._delayed.clear()
        self._held = None
        get_counter("faulty.kill").incr()
        self._transport.kills += 1
        self._transport._wrappers.pop(id(self._inner), None)
        reason = DisconnectReason(DisconnectReason.INJECTED, detail)
        if not self._inner.closed:
            self._inner.close()        # peer sees the cut via the inner transport
        self._events.on_disconnected(self, reason)

    def kill(self, detail: str = "manual kill") -> None:
        """Test hook: cut this link now."""
        self._kill(detail)

    def close(self) -> None:
        self._killed = True
        self._delayed.clear()
        self._held = None
        self._transport._wrappers.pop(id(self._inner), None)
        if not self._inner.closed:
            self._inner.close()

    @property
    def peer(self) -> str:
        return self._inner.peer

    @property
    def closed(self) -> bool:
        return self._killed or self._inner.closed

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"_FaultyEndpoint(peer={self.peer!r}, {state})"


class FaultyTransport(Transport):
    """Decorator injecting seeded faults into any inner transport.

    Example:
        >>> from repro.core.transport.inproc import InProcTransport
        >>> chaos = FaultyTransport(InProcTransport(), FaultSpec(drop_rate=1.0), seed=1)
        >>> got = []
        >>> _ = chaos.listen("ric", TransportEvents(on_message=lambda e, d: got.append(d)))
        >>> chaos.connect("ric", TransportEvents()).send(b"doomed")
        >>> got
        []
    """

    name = "faulty"

    def __init__(
        self,
        inner: Transport,
        spec: Optional[FaultSpec] = None,
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self.spec = spec or FaultSpec()
        self.spec.validate()
        self.rng = random.Random(seed)
        self.kills = 0
        self._wrappers: Dict[int, _FaultyEndpoint] = {}
        self.name = f"faulty+{inner.name}" if inner.name else "faulty"

    # -- Transport ---------------------------------------------------

    def listen(self, address: str, events: TransportEvents) -> Listener:
        return self.inner.listen(address, self._wrap_events(events))

    def connect(self, address: str, events: TransportEvents) -> Endpoint:
        wrapped = self._wrap_events(events)
        inner_endpoint = self.inner.connect(address, wrapped)
        return self._wrapper(inner_endpoint, events)

    # -- plumbing ----------------------------------------------------

    def _wrapper(self, inner: Endpoint, events: TransportEvents) -> _FaultyEndpoint:
        wrapper = self._wrappers.get(id(inner))
        if wrapper is None:
            wrapper = _FaultyEndpoint(self, inner, events)
            self._wrappers[id(inner)] = wrapper
        return wrapper

    def _wrap_events(self, user: TransportEvents) -> TransportEvents:
        """Translate inner-endpoint callbacks to wrapper callbacks.

        Identity matters: the server keys connection state by endpoint
        identity, so every callback must surface the *same* wrapper
        object for the same inner endpoint.
        """

        def on_connected(inner: Endpoint) -> None:
            user.on_connected(self._wrapper(inner, user))

        def on_messages(inner: Endpoint, batch: Sequence[bytes]) -> None:
            # Every inner transport hands frames over through
            # ``deliver``; faults were already applied per message on
            # the send side, so the batch passes through as it came.
            user.deliver(self._wrapper(inner, user), batch)

        def on_disconnected(inner: Endpoint, reason=None) -> None:
            wrapper = self._wrappers.pop(id(inner), None)
            if wrapper is None:
                return
            if wrapper._killed:
                # Local side already saw the injected kill callback.
                return
            wrapper._killed = True
            user.on_disconnected(wrapper, reason)

        return TransportEvents(
            on_connected=on_connected,
            on_messages=on_messages,
            on_disconnected=on_disconnected,
            on_tick=user.on_tick,
        )

    def endpoints(self) -> List[_FaultyEndpoint]:
        """Live wrappers (diagnostics / targeted kills in tests)."""
        return list(self._wrappers.values())

    def flush_delayed(self) -> int:
        """Release parked frames on every link; returns total count."""
        return sum(endpoint.flush_delayed() for endpoint in self.endpoints())

    # Pass-throughs so chaos runs can drive TCP inner transports.

    def start(self) -> None:
        start = getattr(self.inner, "start", None)
        if start is not None:
            start()

    def stop(self) -> None:
        stop = getattr(self.inner, "stop", None)
        if stop is not None:
            stop()

    def step(self, timeout: float = 0.0) -> int:
        step = getattr(self.inner, "step", None)
        return step(timeout) if step is not None else 0
