"""RMR-style message routing between RIC components.

The RIC Message Router delivers messages between platform components
and xApps based on a message-type routing table.  Every hop pays a
header encode/decode plus a routing-table lookup — real work charged to
the owning component's CPU meter, reproducing the per-hop cost the
paper attributes to the O-RAN message path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.metrics.cpu import CpuMeter

_HEADER = struct.Struct(">4sIIH32s")  # magic, msg type, payload len, sbuf, meid
_MAGIC = b"RMR1"

# RMR message types used by this model (subset of the real registry).
RIC_SUB_REQ = 12010
RIC_SUB_RESP = 12011
RIC_INDICATION = 12050
RIC_CONTROL_REQ = 12040
RIC_CONTROL_ACK = 12041
RIC_E2_SETUP = 12001
RIC_HEALTH = 100


@dataclass
class RmrMessage:
    """One routed message: type, managed-entity id, opaque payload."""

    msg_type: int
    meid: str
    payload: bytes

    def pack(self) -> bytes:
        meid = self.meid.encode("utf-8")[:32].ljust(32, b"\0")
        return _HEADER.pack(_MAGIC, self.msg_type, len(self.payload), 0, meid) + self.payload

    @classmethod
    def unpack(cls, data: bytes) -> "RmrMessage":
        if len(data) < _HEADER.size:
            raise ValueError(f"short RMR frame: {len(data)} B")
        magic, msg_type, length, _sbuf, meid = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise ValueError(f"bad RMR magic {magic!r}")
        payload = data[_HEADER.size:_HEADER.size + length]
        if len(payload) != length:
            raise ValueError("truncated RMR payload")
        return cls(msg_type=msg_type, meid=meid.rstrip(b"\0").decode("utf-8"), payload=payload)


#: Receiver signature: (message) -> None.
RmrHandler = Callable[[RmrMessage], None]


class RmrEndpoint:
    """One component's RMR socket: named receive handler + CPU meter."""

    def __init__(self, name: str, handler: RmrHandler, cpu: Optional[CpuMeter] = None) -> None:
        self.name = name
        self.handler = handler
        self.cpu = cpu or CpuMeter(f"rmr-{name}")
        self.received = 0

    def deliver(self, frame: bytes) -> None:
        with self.cpu.measure():
            message = RmrMessage.unpack(frame)  # per-hop header decode
        self.received += 1
        self.handler(message)


class RmrRouter:
    """Static routing table: message type -> endpoint name.

    Delivery is an in-process call by default; for latency-faithful
    experiments :meth:`attach_socket` carries a component's frames over
    a real localhost socket pair, reproducing the inter-container hop
    the O-RAN deployment imposes (the "two hops for messages" of §5.4).
    """

    def __init__(self) -> None:
        self._endpoints: Dict[str, RmrEndpoint] = {}
        self._routes: Dict[int, str] = {}
        self._pipes: Dict[str, object] = {}  # name -> transport Endpoint
        self.messages_routed = 0

    def register(self, endpoint: RmrEndpoint) -> None:
        if endpoint.name in self._endpoints:
            raise ValueError(f"duplicate RMR endpoint {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint

    def attach_socket(self, endpoint_name: str, transport) -> None:
        """Route frames to ``endpoint_name`` over a real socket pair."""
        from repro.core.transport.base import TransportEvents

        endpoint = self._endpoints[endpoint_name]
        listener = transport.listen(
            "127.0.0.1:0",
            TransportEvents(on_message=lambda _ep, frame: endpoint.deliver(frame)),
        )
        pipe = transport.connect(listener.address, TransportEvents())
        self._pipes[endpoint_name] = pipe

    def attach_all_sockets(self, transport) -> None:
        for name in list(self._endpoints):
            if name not in self._pipes:
                self.attach_socket(name, transport)

    def add_route(self, msg_type: int, endpoint_name: str) -> None:
        if endpoint_name not in self._endpoints:
            raise KeyError(f"unknown endpoint {endpoint_name!r}")
        self._routes[msg_type] = endpoint_name

    def send(self, sender_cpu: CpuMeter, message: RmrMessage) -> bool:
        """Route one message; returns False when no route exists."""
        target_name = self._routes.get(message.msg_type)
        if target_name is None:
            return False
        with sender_cpu.measure():
            frame = message.pack()  # per-hop header encode
        self.messages_routed += 1
        pipe = self._pipes.get(target_name)
        if pipe is not None:
            pipe.send(frame)
        else:
            self._endpoints[target_name].deliver(frame)
        return True
