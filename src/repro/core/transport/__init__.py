"""Transport abstraction (§4.3 point 1).

O-RAN mandates SCTP for E2; FlexRIC wraps the transport behind an
interface so deployments can swap it.  SCTP's relevant property for
E2AP is *ordered, reliable message boundaries*; this package provides:

* :class:`~repro.core.transport.base.Transport` — the interface,
* :class:`~repro.core.transport.tcp.TcpTransport` — message framing
  over TCP sockets (the SCTP stand-in; see DESIGN.md substitutions),
* :class:`~repro.core.transport.inproc.InProcTransport` — a loopback
  transport for deterministic simulations and tests,
* :class:`~repro.core.transport.faulty.FaultyTransport` — a seeded
  fault-injection decorator (drops, dups, reordering, corruption,
  forced kills) for chaos-testing the lifecycle-resilience layer.

``FaultyTransport``/``FaultSpec`` and ``InProcTransport`` load their
module on first access: a RIC or agent on TCP runs neither.
"""

from repro.core.transport.base import (
    ConnectTimeout,
    DisconnectReason,
    Endpoint,
    Listener,
    Transport,
    TransportEvents,
)
from repro.core.lazy import lazy_exports
from repro.core.transport.framing import Framer, frame_message, frame_messages
from repro.core.transport.tcp import TcpTransport

__getattr__, __dir__ = lazy_exports(
    globals(),
    {"FaultSpec": "faulty", "FaultyTransport": "faulty", "InProcTransport": "inproc"},
)

__all__ = [
    "ConnectTimeout",
    "DisconnectReason",
    "Endpoint",
    "Listener",
    "Transport",
    "TransportEvents",
    "FaultSpec",
    "FaultyTransport",
    "Framer",
    "frame_message",
    "frame_messages",
    "InProcTransport",
    "TcpTransport",
]
