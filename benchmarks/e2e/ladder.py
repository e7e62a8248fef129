"""The layer ladder: each layer's public calls timed alone, in one process.

A rung is microseconds per message for one layer's share of the path,
measured by calling that layer's public functions in a loop on a fixed
message — the 32-UE MAC report (``mac32``) unless the rung's suffix
says otherwise (``.asn`` rungs use the 1 500 B HW ping); the three burst
rungs of the transport (``frame``, ``deframe``, ``socket``) use the 64 B
indication ingest_flood replays, in bursts of 64.  Summed along
a workload's path the rungs should come close to the per-message CPU
the end-to-end run measured; :func:`path_sum` adds them up and the
caller prints the difference as the residue.

Rungs are medians over several timed chunks, so one preemption does not
move them.
"""

from __future__ import annotations

import itertools
import statistics
import struct
from time import perf_counter
from typing import Callable, Dict, List

from repro.controllers.monitoring import StatsMonitorIApp
from repro.core.agent.agent import Agent, AgentConfig
from repro.core.codec.base import get_codec, materialize
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RicActionDefinition,
    RicActionKind,
    RicRequestId,
)
from repro.core.e2ap.messages import (
    E2SetupResponse,
    RicControlRequest,
    RicIndication,
    decode_message,
    encode_message,
)
from repro.core.server import (
    IndicationEvent,
    Server,
    ServerConfig,
    SubscriptionCallbacks,
    SubscriptionManager,
)
from repro.core.transport import Framer, TcpTransport, TransportEvents, frame_messages
from repro.core.transport.base import Endpoint, Transport
from repro.sm import hw, mac_stats
from repro.sm.base import decode_payload, encode_payload

from benchmarks.e2e.stats import REFERENCE_SPEED, SpeedProbe

BURST = 64
CHUNKS = 7
CHUNK_S = 0.02
REPORT = [RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)]
MAC_ID = mac_stats.INFO.default_function_id


class Timer:
    """Times a call in chunks, ticking a speed probe between them."""

    def __init__(self) -> None:
        self.probe = SpeedProbe()

    def __call__(self, call: Callable[[], object], per_call: int = 1) -> float:
        """Median microseconds per message of ``call`` (``per_call`` messages each)."""
        call()  # warm caches and lazy set-up
        loops = 1
        while True:
            started = perf_counter()
            for _ in range(loops):
                call()
            elapsed = perf_counter() - started
            if elapsed >= CHUNK_S / 4:
                break
            loops *= 4
        loops = max(1, int(loops * CHUNK_S / elapsed))
        chunks = []
        for _ in range(CHUNKS):
            started = perf_counter()
            for _ in range(loops):
                call()
            ended = perf_counter()
            chunks.append((ended - started) / loops)
            self.probe.tick(ended)
        return statistics.median(chunks) * 1e6 / per_call


class _NullEndpoint(Endpoint):
    """Swallows everything: the agent's emit path without a socket."""

    def send(self, data) -> None:
        pass

    def close(self) -> None:
        pass

    @property
    def peer(self) -> str:
        return "null"

    @property
    def closed(self) -> bool:
        return False


class _NullTransport(Transport):
    """Answers E2 setup on the spot so an ``Agent`` comes up READY."""

    name = "null"

    def listen(self, address, events):
        raise NotImplementedError("the null transport only connects")

    def connect(self, address, events):
        endpoint = _NullEndpoint()
        events.on_connected(endpoint)
        response = E2SetupResponse(ric_id=1, accepted_functions=[MAC_ID])
        events.on_message(endpoint, encode_message(response, get_codec("fb")))
        return endpoint


def _flood_frame(sequence: int) -> bytes:
    """The message ingest_flood replays: 64 B opaque payload, FB."""
    return encode_message(
        RicIndication(RicRequestId(1, 1), 1, action_id=1, sequence=sequence, payload=b"\x5a" * 64),
        get_codec("fb"),
    )


def _codec_rungs(rungs: Dict[str, float], time_call: Timer) -> None:
    fb, asn = get_codec("fb"), get_codec("asn")
    provider = mac_stats.synthetic_provider(32)
    tree = provider(None)
    schema = mac_stats.INFO.payload_schema
    payload = encode_payload(tree, "fb", schema=schema)
    rungs["sm.provider_us"] = time_call(lambda: provider(None))
    rungs["sm.encode_us"] = time_call(lambda: encode_payload(tree, "fb", schema=schema))
    rungs["sm.decode_us"] = time_call(
        lambda: materialize(decode_payload(payload, "fb", schema=schema))
    )

    request = RicRequestId(1, 1)
    sequence = itertools.count()

    def mac_indication() -> RicIndication:
        return RicIndication(
            request=request,
            ran_function_id=MAC_ID,
            action_id=1,
            sequence=next(sequence),
            payload=payload,
        )

    wire = encode_message(mac_indication(), fb)
    rungs["e2ap.encode_ind_us.fb"] = time_call(lambda: encode_message(mac_indication(), fb))
    rungs["e2ap.decode_ind_us.fb"] = time_call(lambda: decode_message(wire, fb))
    rungs["codec.decode_route_us.fb"] = time_call(lambda: fb.decode_route(wire))

    data = bytes(range(256)) * 6
    data = data[:1500]
    ping = hw.build_ping(1, data, "asn")

    def control() -> RicControlRequest:
        # A fresh request id each time, as every real ping has: the
        # encode cache is consulted and misses.
        return RicControlRequest(
            request=RicRequestId(1, next(sequence)),
            ran_function_id=hw.INFO.default_function_id,
            payload=ping,
            ack_requested=False,
        )

    def pong() -> RicIndication:
        return RicIndication(
            request=request,
            ran_function_id=hw.INFO.default_function_id,
            action_id=1,
            sequence=next(sequence),
            payload=ping,
        )

    control_wire = encode_message(control(), asn)
    pong_wire = encode_message(pong(), asn)
    rungs["e2ap.encode_ctrl_us.asn"] = time_call(lambda: encode_message(control(), asn))
    rungs["e2ap.decode_ctrl_us.asn"] = time_call(lambda: decode_message(control_wire, asn))
    rungs["e2ap.encode_ind_us.asn"] = time_call(lambda: encode_message(pong(), asn))
    rungs["e2ap.decode_ind_us.asn"] = time_call(lambda: decode_message(pong_wire, asn))

    def hw_round() -> None:
        seq, echoed = hw.parse_ping(hw.build_ping(7, data, "asn"), "asn")
        hw.parse_pong(hw.build_pong(seq, bytes(echoed), "asn"), "asn")

    rungs["sm.hw_ping_us.asn"] = time_call(hw_round)

    agent = Agent(
        AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB), e2ap_codec="fb"),
        _NullTransport(),
    )
    agent.register_function(mac_stats.MacStatsFunction(provider, sm_codec="fb"))
    origin = agent.connect("null")
    rungs["agent.emit_us"] = time_call(lambda: agent.send_indications(origin, [mac_indication()]))

    frames = [_flood_frame(index) for index in range(BURST)]
    framed = frame_messages(frames)
    framer = Framer()
    rungs["transport.frame_us"] = time_call(lambda: frame_messages(frames), BURST)
    rungs["transport.deframe_us"] = time_call(lambda: framer.feed(framed), BURST)


def _socket_rungs(rungs: Dict[str, float], time_call: Timer) -> None:
    """Loopback ``TcpTransport`` driven inline: no codec, no server."""
    payload = encode_payload(mac_stats.synthetic_provider(32)(None), "fb")
    frame = encode_message(
        RicIndication(RicRequestId(1, 1), MAC_ID, action_id=1, sequence=0, payload=payload),
        get_codec("fb"),
    )
    transport = TcpTransport()
    try:
        seen = [0]
        ponged = [False]

        def sink(endpoint, data) -> None:
            seen[0] += 1
            if echo[0]:
                endpoint.send(data)

        echo = [False]
        listener = transport.listen("127.0.0.1:0", TransportEvents(on_message=sink))
        client = transport.connect(
            listener.address,
            TransportEvents(on_message=lambda endpoint, data: ponged.__setitem__(0, True)),
        )
        transport.step(0.05)
        batch = [_flood_frame(index) for index in range(BURST)]

        def burst() -> None:
            target = seen[0] + BURST
            client.send_many(batch)
            while seen[0] < target:
                transport.step(0.05)

        def round_trip() -> None:
            ponged[0] = False
            client.send(frame)
            while not ponged[0]:
                transport.step(0.05)

        rungs["transport.socket_us"] = time_call(burst, BURST)
        echo[0] = True
        rungs["transport.socket_rtt_us"] = time_call(round_trip)
    finally:
        transport.stop()


class _EndpointCatcher(Transport):
    """Sits under ``Server.listen`` to learn the accepted endpoint."""

    name = "tcp"

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.events = None
        self.endpoint = None

    def listen(self, address, events):
        self.events = events
        connected = events.on_connected

        def on_connected(endpoint) -> None:
            self.endpoint = endpoint
            connected(endpoint)

        events.on_connected = on_connected
        return self.inner.listen(address, events)

    def connect(self, address, events):
        return self.inner.connect(address, events)


def _server_rungs(rungs: Dict[str, float], time_call: Timer) -> None:
    """The server's ingest callbacks called directly with framed-off messages."""
    fb = get_codec("fb")
    provider = mac_stats.synthetic_provider(32)
    payload = encode_payload(provider(None), "fb", schema=mac_stats.INFO.payload_schema)
    transport = TcpTransport()
    try:
        server = Server(ServerConfig(e2ap_codec="fb"))
        catcher = _EndpointCatcher(transport)
        listener = server.listen(catcher, "127.0.0.1:0")
        monitor = StatsMonitorIApp(oids=[mac_stats.INFO.oid], period_ms=1.0, sm_codec="fb")
        server.add_iapp(monitor)
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB), e2ap_codec="fb"),
            transport,
        )
        agent.register_function(mac_stats.MacStatsFunction(provider, sm_codec="fb"))
        agent.connect_async(listener.address)
        for _ in range(200):
            if monitor.subscriptions_confirmed:
                break
            transport.step(0.05)
        else:
            raise TimeoutError("ladder fixture: subscription was not confirmed")
        (record,) = server.submgr.active_records()
        store = record.callbacks.on_indication
        batch = [
            encode_message(
                RicIndication(record.request, MAC_ID, action_id=1, sequence=i, payload=payload),
                fb,
            )
            for i in range(BURST)
        ]
        on_messages, endpoint = catcher.events.on_messages, catcher.endpoint
        body = fb.decode_route(batch[0])[2]
        rungs["controllers.store_us"] = time_call(
            lambda: store(IndicationEvent(record.conn_id, body))
        )
        record.callbacks.on_indication = lambda event: None
        ingest = time_call(lambda: on_messages(endpoint, batch), BURST)
        rungs["server.route_us"] = ingest - rungs["codec.decode_route_us.fb"]
    finally:
        transport.stop()


def _submgr_rungs(rungs: Dict[str, float], time_call: Timer) -> None:
    fb = get_codec("fb")
    noop = SubscriptionCallbacks(on_indication=lambda event: None)

    def deliver_rung(fanout: int) -> float:
        manager = SubscriptionManager()
        record = manager.create(conn_id=1, ran_function_id=MAC_ID, callbacks=noop, actions=REPORT)
        for _ in range(fanout - 1):
            manager.attach_sink(record, SubscriptionCallbacks(on_indication=lambda event: None))
        wire = encode_message(
            RicIndication(record.request, MAC_ID, action_id=1, sequence=0, payload=b"x" * 64), fb
        )
        body = fb.decode_route(wire)[2]
        return time_call(lambda: manager.deliver_indication(IndicationEvent(1, body)))

    rungs["submgr.deliver_us.fanout1"] = deliver_rung(1)
    rungs["submgr.deliver_us.fanout16"] = deliver_rung(16)

    manager = SubscriptionManager()
    for index in range(1000):
        manager.create(
            conn_id=1,
            ran_function_id=hw.INFO.default_function_id,
            callbacks=noop,
            actions=REPORT,
            event_trigger=struct.pack(">BIQ", 0, 1, index),
        )
    fresh = struct.pack(">BIQ", 1, 1, 0)
    created: List[float] = []

    def create_then_remove() -> None:
        started = perf_counter()
        record = manager.create(
            conn_id=1,
            ran_function_id=hw.INFO.default_function_id,
            callbacks=noop,
            actions=REPORT,
            event_trigger=fresh,
        )
        created.append(perf_counter() - started)
        manager.remove(record.request)

    time_call(create_then_remove)
    rungs["submgr.create_us.n1000"] = statistics.median(created) * 1e6
    rungs["submgr.find_shared_us.n1000"] = time_call(
        lambda: manager.find_shared(1, hw.INFO.default_function_id, fresh, REPORT, None)
    )


def measure() -> Dict[str, float]:
    """Every rung, microseconds per message at the reference host speed."""
    rungs: Dict[str, float] = {}
    timer = Timer()
    _codec_rungs(rungs, timer)
    _socket_rungs(rungs, timer)
    _server_rungs(rungs, timer)
    _submgr_rungs(rungs, timer)
    scale = timer.probe.speed() / REFERENCE_SPEED
    return {name: value * scale for name, value in rungs.items()}


#: Rungs on each workload's per-message path, RAN side then RIC side.
#: ``transport.socket_rtt_us`` is two one-way trips of one message.
PATHS: Dict[str, Dict[str, float]] = {
    "mon_e2e": {
        "sm.provider_us": 1,
        "sm.encode_us": 1,
        "agent.emit_us": 1,
        "transport.socket_rtt_us": 0.5,
        "codec.decode_route_us.fb": 1,
        "server.route_us": 1,
        "controllers.store_us": 1,
    },
    "ingest_flood": {
        "transport.socket_us": 1,
        "codec.decode_route_us.fb": 1,
        "server.route_us": 1,
    },
    "hw_ping": {
        "sm.hw_ping_us.asn": 1,
        "e2ap.encode_ctrl_us.asn": 1,
        "e2ap.decode_ctrl_us.asn": 1,
        "e2ap.encode_ind_us.asn": 1,
        "e2ap.decode_ind_us.asn": 1,
        "transport.socket_rtt_us": 1,
        "submgr.deliver_us.fanout1": 1,
    },
    "sub_churn": {
        "submgr.create_us.n1000": 2,  # create and remove both republish the snapshot
        "submgr.find_shared_us.n1000": 1,
        "transport.socket_rtt_us": 2,
    },
}


def path_sum(workload: str, rungs: Dict[str, float]) -> float:
    return sum(rungs[name] * weight for name, weight in PATHS[workload].items())
