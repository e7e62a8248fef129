"""Transport interface shared by TCP and in-process implementations.

Sending is per endpoint (``send``/``send_many``); receiving is one
path on every transport — ``TransportEvents.deliver(endpoint, batch)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional, Sequence


@dataclass(frozen=True)
class DisconnectReason:
    """Why a connection ended, as observed by the local side.

    Transports pass one of these to ``on_disconnected`` so the layer
    above can tell a deliberate local teardown from a peer reset or an
    injected fault — the distinction drives the agent's reconnect
    state machine (reconnect on network death, never on local close).
    """

    code: str
    detail: str = ""

    #: codes every transport maps onto.
    EOF = "eof"                  # orderly close by the peer
    RESET = "econnreset"         # peer reset the connection
    ERROR = "error"              # other socket/OS error
    LOCAL = "local"              # local close()/shutdown
    PROTOCOL = "protocol"        # framing/protocol violation
    INJECTED = "injected"        # fault-injection kill (FaultyTransport)
    KEEPALIVE = "keepalive"      # liveness probe declared the peer dead
    CONNECT_TIMEOUT = "connect_timeout"  # bounded connect() gave up

    def __str__(self) -> str:
        return f"{self.code}({self.detail})" if self.detail else self.code


class ConnectTimeout(ConnectionError):
    """A bounded ``Transport.connect`` gave up on a silent peer.

    Distinguished from a refused connection so the agent's reconnect
    path can count black-holed addresses separately; carries the
    matching :class:`DisconnectReason` for callers that propagate one.
    """

    def __init__(self, message: str, reason: Optional[DisconnectReason] = None) -> None:
        super().__init__(message)
        self.reason = reason or DisconnectReason(
            DisconnectReason.CONNECT_TIMEOUT, message
        )


class Endpoint(ABC):
    """One side of an established connection.

    ``send`` preserves message boundaries (SCTP semantics): the peer's
    ``on_message`` receives exactly the bytes of one ``send``.
    """

    @abstractmethod
    def send(self, data: bytes) -> None:
        """Queue one message for delivery; raises if closed."""

    def send_many(self, batch: Sequence[bytes]) -> None:
        """Queue several messages; boundaries are preserved per item.

        Default is a ``send`` loop; stream transports override it to
        coalesce the batch into one write so a burst of messages pays
        one syscall instead of one per message.
        """
        for data in batch:
            self.send(data)

    @abstractmethod
    def close(self) -> None:
        """Tear the connection down; the peer sees ``on_disconnected``."""

    @property
    @abstractmethod
    def peer(self) -> str:
        """Human-readable peer address (diagnostics only)."""

    @property
    @abstractmethod
    def closed(self) -> bool:
        """True once the connection is no longer usable."""


class TransportEvents:
    """Callback bundle a user passes to ``listen``/``connect``.

    All callbacks are optional; unset ones are ignored.  Callbacks run
    on the transport's dispatch context (the caller of ``step`` for
    in-process, the transport's loop thread for TCP), mirroring the
    single-threaded event-driven design of the SDK (§4.4).

    :meth:`deliver` is the single hand-off from every transport: the
    frames one wakeup completed arrive as one batch, in order.  A
    receiver that sets ``on_messages`` takes the batch whole and
    amortizes per-frame overhead (lock acquisition, CPU accounting);
    one that sets only ``on_message`` (the agent, the baselines) gets
    one call per frame.  (The TCP loop makes the ``on_messages`` call
    itself — a frame fewer per wake-up — and leaves the per-frame walk
    to :meth:`deliver`; the contract is the same.)

    ``on_tick`` is a listener's periodic deadline: a transport with a
    loop (TCP) runs each distinct one at most once per tick, on the loop.
    """

    def __init__(
        self,
        on_connected: Optional[Callable[[Endpoint], None]] = None,
        on_message: Optional[Callable[[Endpoint, bytes], None]] = None,
        on_disconnected: Optional[Callable] = None,
        on_messages: Optional[Callable[[Endpoint, Sequence[bytes]], None]] = None,
        on_tick: Optional[Callable[[], None]] = None,
    ) -> None:
        self.on_connected = on_connected or (lambda endpoint: None)
        self.on_message = on_message or (lambda endpoint, data: None)
        self.on_messages = on_messages
        self.on_tick = on_tick
        # Every transport calls ``on_disconnected(endpoint, reason)``.
        self.on_disconnected = on_disconnected or (lambda endpoint, reason: None)

    def deliver(self, endpoint: Endpoint, batch: Sequence[bytes]) -> None:
        """Hand a drained batch to the receiver, batched if supported.

        Per-connection ordering is preserved either way: the batch is
        in arrival order and ``on_message`` fallback iterates it.
        """
        if not batch:
            return
        if self.on_messages is not None:
            self.on_messages(endpoint, batch)
            return
        for data in batch:
            self.on_message(endpoint, data)


class Listener(ABC):
    """Handle for a listening address."""

    @abstractmethod
    def close(self) -> None:
        """Stop accepting new connections (existing ones survive)."""

    @property
    @abstractmethod
    def address(self) -> str:
        """The bound address, e.g. ``"127.0.0.1:36421"``."""


class Transport(ABC):
    """Factory for listeners and outgoing connections."""

    #: registry-style name, e.g. ``"tcp"`` or ``"inproc"``.
    name: str = ""

    @abstractmethod
    def listen(self, address: str, events: TransportEvents) -> Listener:
        """Accept connections on ``address``.

        ``address`` format is transport-specific (``host:port`` for
        TCP, any opaque string for in-process).
        """

    @abstractmethod
    def connect(self, address: str, events: TransportEvents) -> Endpoint:
        """Open a connection to a listening ``address``.

        Raises ``ConnectionError`` if nothing listens there.
        """
