"""Shared experiment plumbing.

* :class:`HwPingerIApp` — controller-side iApp measuring HW-SM ping
  round-trip times (§5.2's modified "Hello World" ping).
* :func:`wire_flexric_pair` — agent + server over a chosen transport
  with a HW function, ready to ping.
* byte-size probes used to compute signaling rates without a packet
  capture.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.agent.agent import Agent, AgentConfig
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RicActionDefinition,
    RicActionKind,
)
from repro.core.e2ap.messages import RicControlRequest, RicIndication, encode_message
from repro.core.server.iapp import IApp
from repro.core.server.randb import AgentRecord
from repro.core.server.server import Server, ServerConfig
from repro.core.server.submgr import SubscriptionCallbacks
from repro.core.codec.base import get_codec
from repro.core.e2ap.ies import RicRequestId
from repro.core.codec import codegen as _codegen
from repro.core.transport.base import Transport
from repro.sm import hw
from repro.sm.base import PeriodicTrigger


def cost_model_codecs():
    """Pin the interpretive codec walkers for a measurement harness.

    The paper's codec figures (7, 8, 9) compare the *modelled* cost
    profiles of asn1c, flatcc and Protobuf — which is exactly what the
    interpretive walkers reproduce.  The generated kernels
    (:mod:`repro.core.codec.codegen`) optimize this SDK's own hot path
    and deliberately erase that asymmetry, so harnesses reproducing the
    paper's library comparisons must run with kernels disabled.
    ``tests/test_wakeup_budget.py::TestKernelLane`` pins what the
    kernels buy in profiled calls, and the e2e benchmark's ``e2ap.*``
    and ``codec.*`` rungs time them.
    """
    return _codegen.interpretive()


def pin_cost_model(fn):
    """Decorator running a measurement under :func:`cost_model_codecs`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with cost_model_codecs():
            return fn(*args, **kwargs)

    return wrapper


class HwPingerIApp(IApp):
    """Pings the first connected agent's HW SM and records RTTs."""

    name = "hw-pinger"

    def __init__(self, sm_codec: str = "fb") -> None:
        super().__init__()
        self.sm_codec = sm_codec
        self.rtts_us: List[float] = []
        self.conn_id: Optional[int] = None
        self.function_id: Optional[int] = None
        self.subscribed = threading.Event()
        self._sent_at: Dict[int, float] = {}
        self._seq = 0
        self._reply_event = threading.Event()

    def on_agent_connected(self, agent: AgentRecord) -> None:
        item = agent.function_by_oid(hw.INFO.oid)
        if item is None:
            return
        self.conn_id = agent.conn_id
        self.function_id = item.ran_function_id
        self.server.subscribe(
            conn_id=agent.conn_id,
            ran_function_id=item.ran_function_id,
            event_trigger=PeriodicTrigger(0.0).to_bytes(self.sm_codec),
            actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(
                on_success=lambda response: self.subscribed.set(),
                on_indication=self._on_pong,
            ),
        )

    def ping(self, payload: bytes, timeout_s: float = 5.0, pump=None) -> float:
        """One blocking ping; returns the RTT in microseconds.

        ``pump`` (optional) is a zero-argument callable that advances
        the transport inline (e.g. ``TcpTransport.step``).  When given,
        the wait loop drives I/O on the calling thread instead of
        blocking on another thread's dispatch — the RTT then measures
        sockets and codecs, not Python thread-wakeup jitter.
        """
        if self.conn_id is None or self.function_id is None:
            raise RuntimeError("no HW-capable agent connected")
        self._seq += 1
        seq = self._seq
        data = hw.build_ping(seq, payload, self.sm_codec)
        self._reply_event.clear()
        self._sent_at[seq] = time.perf_counter()
        self.server.control(
            conn_id=self.conn_id,
            ran_function_id=self.function_id,
            header=b"",
            payload=data,
            ack_requested=False,
        )
        if pump is None:
            if not self._reply_event.wait(timeout_s):
                raise TimeoutError(f"ping {seq} timed out")
        else:
            deadline = time.perf_counter() + timeout_s
            while not self._reply_event.is_set():
                pump()
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"ping {seq} timed out")
        return self.rtts_us[-1]

    def _on_pong(self, event) -> None:
        received = time.perf_counter()
        seq, _data = hw.parse_pong(bytes(event.payload), self.sm_codec)
        started = self._sent_at.pop(seq, None)
        if started is not None:
            self.rtts_us.append((received - started) * 1e6)
            self._reply_event.set()


@dataclass
class FlexRicPair:
    """A connected (server, agent) pair plus the pinger iApp."""

    server: Server
    agent: Agent
    pinger: HwPingerIApp

    def close(self) -> None:
        self.server.close()


def wire_flexric_pair(
    transport: Transport,
    address: str,
    e2ap_codec: str,
    sm_codec: str,
    nb_id: int = 1,
) -> FlexRicPair:
    """Server + pinger iApp + agent with a HW function, connected."""
    server = Server(ServerConfig(e2ap_codec=e2ap_codec))
    server.listen(transport, address)
    pinger = HwPingerIApp(sm_codec=sm_codec)
    server.add_iapp(pinger)
    agent = Agent(
        AgentConfig(
            node_id=GlobalE2NodeId("00101", nb_id, NodeKind.GNB), e2ap_codec=e2ap_codec
        ),
        transport=transport,
    )
    agent.register_function(hw.HwRanFunction(sm_codec=sm_codec))
    agent.connect(address)
    if not pinger.subscribed.wait(5.0):
        raise TimeoutError("HW subscription did not complete")
    return FlexRicPair(server=server, agent=agent, pinger=pinger)


def hw_exchange_sizes(e2ap_codec: str, sm_codec: str, payload_len: int) -> Tuple[int, int]:
    """Wire sizes (control, indication) of one HW ping exchange.

    Used for the signaling-rate computation of Fig. 7b: the rate at a
    1 ms ping cadence is ``(control + indication) * 8 * 1000`` bit/s.
    """
    codec = get_codec(e2ap_codec)
    payload = hw.build_ping(1, b"x" * payload_len, sm_codec)
    control = RicControlRequest(
        request=RicRequestId(1, 1),
        ran_function_id=hw.INFO.default_function_id,
        header=b"",
        payload=payload,
        ack_requested=False,
    )
    pong = hw.build_pong(1, b"x" * payload_len, sm_codec)
    indication = RicIndication(
        request=RicRequestId(1, 1),
        ran_function_id=hw.INFO.default_function_id,
        action_id=1,
        sequence=1,
        header=b"",
        payload=pong,
    )
    return (
        len(encode_message(control, codec)),
        len(encode_message(indication, codec)),
    )


def signaling_rate_mbps(e2ap_codec: str, sm_codec: str, payload_len: int, period_ms: float = 1.0) -> float:
    """Signaling rate of a ping every ``period_ms`` (Fig. 7b)."""
    control, indication = hw_exchange_sizes(e2ap_codec, sm_codec, payload_len)
    per_second = 1000.0 / period_ms
    return (control + indication) * 8.0 * per_second / 1e6
