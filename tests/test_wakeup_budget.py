"""What one message costs the event loop, as counts that cannot flake.

§4.4 / Fig. 7 of the paper are about a single loop turning one E2
message around; the workloads that matter (``mon_e2e`` at 2 000 ind/s,
``hw_ping``, ``sub_churn``) all run at one message per wake-up, where
batching buys nothing and every Python call on the path is paid per
message.  Wall-clock gates on a shared host flake; ``sys.setprofile``
counts of ``call`` + ``c_call`` events do not, so the wake-up is pinned
the way PR 20 pinned ``pump()``.
"""

import contextlib
import os
import struct
import sys
import time

import pytest

from repro.controllers.monitoring import StatsMonitorIApp
from repro.core.agent import Agent, AgentConfig
from repro.core.codec import codegen, get_codec
from repro.core.codec.base import CodecError
from repro.core.codec import flat as flat_mod
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RanFunctionItem,
    RicActionDefinition,
    RicActionKind,
    RicRequestId,
)
from repro.core.e2ap.messages import (
    E2SetupRequest,
    RicIndication,
    RicIndicationKind,
    RicSubscriptionRequest,
    decode_message,
    encode_message,
)
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
from repro.core.server.server import IndicationEvent
from repro.core.transport import TcpTransport
from repro.core.transport.inproc import InProcTransport
from repro.experiments.common import HwPingerIApp
from repro.metrics.counters import counter_values
from repro.sm import hw, mac_stats
from repro.sm.base import encode_payload

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_ANALYSIS", "") in ("1", "true", "yes"),
    reason="tracked locks add calls; the budgets describe the production path",
)

#: profiled calls per one-message wake-up (82 before the rewrite, 55
#: before lock-free counters, 53 before indications were routed as
#: rows, 45 (46 with liveness) before each codec's router was bound
#: once; 44 now, 45 with liveness).
WAKEUP_BUDGET = 50
#: profiled calls per inline asn/asn 1 500 B HW ping (668 before the
#: rewrite, 390 before lock-free counters and inline meters, 345 before
#: rows, 342 before messages were encoded and routed as objects; 319
#: now).
PING_BUDGET = 337
#: profiled calls per inline fb subscribe → confirm → unsubscribe →
#: deleted cycle beside 1 000 standing subscriptions, both sides (503
#: before lock-free counters, inline meters, table dispatch and one
#: share key per record, 418 before the route table, 408 before
#: messages were encoded and routed as objects; 347 before a slow-path
#: message checked its connection is still routed; 343 before each
#: codec's router was bound once; 340 now).
CYCLE_BUDGET = 364
#: profiled calls per 64-frame ``_on_messages`` batch of fb MAC reports
#: into a ``StatsMonitorIApp`` (1 547, 24.2 per frame, before indications
#: were routed as rows; 1 035 before a cell's tag and length were read
#: with the run before it and each codec's router was bound once; 971,
#: 15.2 per frame, now), and the per-frame ceiling: ~5 % over each.
BATCH_BUDGET = 1020
BATCH_FRAMES = 64
BATCH_PER_FRAME = 16
#: a generated kernel's round trip (``encode_message`` +
#: ``decode_message``) costs at most this share of the walker's
#: profiled calls (worst measured: ``fb`` ``ric_indication``, 34 vs 170).
KERNEL_SHARE = 0.5


def count_calls(fn, *args, **kwargs) -> int:
    """``call`` + ``c_call`` events raised while ``fn(*args, **kwargs)`` runs."""
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls[0]


def unpack_reads(fn, *args, **kwargs) -> int:
    """``Struct.unpack_from`` calls made while ``fn(*args, **kwargs)`` runs."""
    reads = [0]

    def profiler(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "unpack_from":
            reads[0] += 1

    sys.setprofile(profiler)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return reads[0]


def modules_loaded_since(before: set) -> list:
    """Modules imported since ``before`` was taken from ``sys.modules``:
    a module first loaded on a measured path is compiled inside the
    measurement (``PYTHONDONTWRITEBYTECODE=1`` in the benchmark's RIC)."""
    return sorted(set(sys.modules) - before)


#: the value-tree converters: no frame of them on an object-lane path.
TREE_CONVERTERS = {"to_value", "from_value"}


def frames_run(fn, *args, **kwargs) -> set:
    """Names of the Python functions that ran while ``fn(*args, **kwargs)`` ran."""
    names = set()

    def profiler(frame, event, arg):
        if event == "call":
            names.add(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return names


def _node() -> GlobalE2NodeId:
    return GlobalE2NodeId("00101", 1, NodeKind.GNB)


def _step_until(transports, done, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not done():
        for transport in transports:
            transport.step(0.01)
        assert time.monotonic() < deadline, "fixture did not settle"


class TestWakeupBudget:
    @pytest.mark.parametrize(
        "config",
        [ServerConfig(), ServerConfig(keepalive_interval_s=30, stale_grace_s=30)],
        ids=["default", "liveness"],
    )
    def test_one_mac_report_wakeup_stays_within_its_call_budget(self, config):
        """select → recv → deframe → route → submgr → store, once.  A
        RIC with liveness configured pays one clock read per wake-up
        while no pass is due; a default one pays nothing."""
        ric_loop, ran_loop = TcpTransport(), TcpTransport()
        try:
            server = Server(config)
            listener = server.listen(ric_loop, "127.0.0.1:0")
            monitor = StatsMonitorIApp(oids=[mac_stats.INFO.oid], period_ms=1.0, sm_codec="fb")
            server.add_iapp(monitor)
            agent = Agent(AgentConfig(node_id=_node(), e2ap_codec="fb"), ran_loop)
            function = mac_stats.MacStatsFunction(mac_stats.synthetic_provider(32), sm_codec="fb")
            agent.register_function(function)
            agent.connect_async(listener.address)
            _step_until((ric_loop, ran_loop), lambda: monitor.subscriptions_confirmed)

            def one_wakeup() -> int:
                seen = monitor.indications_received
                assert function.pump() == 1
                time.sleep(0.005)  # loopback delivery; the step must not wait
                calls = count_calls(ric_loop.step, 1.0)
                assert monitor.indications_received == seen + 1
                return calls

            for _ in range(5):  # kernels built, counters resolved
                one_wakeup()
            stored = monitor.store.total_stored
            loaded = set(sys.modules)
            counts = [one_wakeup() for _ in range(5)]
            assert modules_loaded_since(loaded) == []
            assert monitor.store.total_stored == stored + 5
            assert min(counts) <= WAKEUP_BUDGET, counts
            item = monitor.store.latest(1, mac_stats.INFO.oid)
            assert item.sequence >= 9
            assert len(item.payload) > 32 * 197
        finally:
            ric_loop.stop()
            ran_loop.stop()

    def test_one_asn_hw_ping_stays_within_its_call_budget(self):
        """build_ping + control() → agent step → server step → parse_pong."""
        transport = TcpTransport()
        try:
            server = Server(ServerConfig(e2ap_codec="asn"))
            listener = server.listen(transport, "127.0.0.1:0")
            pinger = HwPingerIApp(sm_codec="asn")
            server.add_iapp(pinger)
            agent = Agent(AgentConfig(node_id=_node(), e2ap_codec="asn"), transport)
            agent.register_function(hw.HwRanFunction(sm_codec="asn"))
            agent.connect_async(listener.address)
            _step_until((transport,), pinger.subscribed.is_set)
            data = b"p" * 1500
            pump = lambda: transport.step(1.0)
            for _ in range(5):
                pinger.ping(data, pump=pump)
            loaded = set(sys.modules)
            counts = [count_calls(pinger.ping, data, pump=pump) for _ in range(5)]
            assert len(pinger.rtts_us) == 10
            assert min(counts) <= PING_BUDGET, counts
            assert not frames_run(pinger.ping, data, pump=pump) & TREE_CONVERTERS
            assert modules_loaded_since(loaded) == []
        finally:
            transport.stop()

    def test_one_subscription_cycle_stays_within_its_call_budget(self):
        """subscribe → agent admits → confirm → unsubscribe → agent deletes → deleted."""
        transport = TcpTransport()
        report = [RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)]
        try:
            server = Server(ServerConfig())
            listener = server.listen(transport, "127.0.0.1:0")
            agent = Agent(AgentConfig(node_id=_node(), e2ap_codec="fb"), transport)
            function = hw.HwRanFunction(sm_codec="fb")
            agent.register_function(function)
            agent.connect_async(listener.address)
            _step_until((transport,), lambda: server.agents())
            conn_id = server.agents()[0].conn_id
            standing = SubscriptionCallbacks()
            for n in range(1000):
                trigger = struct.pack(">BIQ", 0, 1, n)
                server.subscribe(conn_id, function.ran_function_id, trigger, report, standing)
            _step_until((transport,), lambda: len(function.subscriptions) == 1000)
            fresh = iter(range(1, 1 << 30))
            deleted = []

            def cycle() -> None:
                callbacks = SubscriptionCallbacks(
                    on_success=lambda response: server.unsubscribe(record),
                    on_deleted=deleted.append,
                )
                record = server.subscribe(
                    conn_id, function.ran_function_id,
                    struct.pack(">BIQ", 1, 1, next(fresh)), report, callbacks,
                )
                while not deleted:
                    transport.step(1.0)
                del deleted[:]

            for _ in range(5):  # kernels built, counters resolved
                cycle()
            loaded = set(sys.modules)
            counts = [count_calls(cycle) for _ in range(5)]
            assert len(server.submgr) == 1000 and len(function.subscriptions) == 1000
            assert min(counts) <= CYCLE_BUDGET, counts
            assert not frames_run(cycle) & TREE_CONVERTERS
            assert modules_loaded_since(loaded) == []
        finally:
            transport.stop()

    def test_a_batched_indication_stays_within_its_call_budget(self):
        """One drained batch: route each frame → event → submgr → store."""
        transport = InProcTransport()
        server = Server(ServerConfig())
        server.listen(transport, "ric")
        monitor = StatsMonitorIApp(oids=[mac_stats.INFO.oid], period_ms=1.0, sm_codec="fb")
        server.add_iapp(monitor)
        provider = mac_stats.synthetic_provider(32)
        agent = Agent(AgentConfig(node_id=_node(), e2ap_codec="fb"), transport)
        agent.register_function(mac_stats.MacStatsFunction(provider, sm_codec="fb"))
        agent.connect("ric")
        assert monitor.subscriptions_confirmed
        (record,) = server.submgr.active_records()
        payload = encode_payload(provider(None), "fb", schema=mac_stats.INFO.payload_schema)
        batch = [
            encode_message(RicIndication(record.request, record.ran_function_id, 1, seq, payload=payload), server.codec)
            for seq in range(BATCH_FRAMES)
        ]
        (state,) = server._conns.values()
        for _ in range(3):  # kernels built, counters resolved
            server._on_messages(state.endpoint, batch)
        seen = monitor.indications_received
        counts = [count_calls(server._on_messages, state.endpoint, batch) for _ in range(5)]
        assert monitor.indications_received == seen + 5 * BATCH_FRAMES
        assert monitor.store.latest(record.conn_id, mac_stats.INFO.oid).sequence == BATCH_FRAMES - 1
        assert min(counts) <= BATCH_BUDGET, counts
        assert min(counts) <= BATCH_PER_FRAME * BATCH_FRAMES, counts


def _indication_row(message: RicIndication) -> tuple:
    """``(r, i, f, a, s, k, h, m)``: the row ``decode_route`` returns."""
    return (
        message.request.requestor_id, message.request.instance_id, message.ran_function_id,
        message.action_id, message.sequence, int(message.kind), message.header, message.payload,
    )


class TestRouteLane:
    def test_routing_a_kernel_decodable_indication_asks_the_kernel_first(self, monkeypatch):
        """No window slice, no LRU lookup, no dict: the route kernel's row."""
        fb = get_codec("fb")
        message = RicIndication(RicRequestId(1, 7), 142, action_id=1, sequence=3, payload=b"x" * 64)
        wire = encode_message(message, fb)
        lookups = []
        original = flat_mod._LruCache.get
        monkeypatch.setattr(
            flat_mod._LruCache, "get", lambda self, key: lookups.append(key) or original(self, key)
        )
        fb.decode_route(wire)  # kernel built
        del lookups[:]
        before = counter_values().get("codec.kernel.decode_hits", 0)
        procedure, msg_class, row = fb.decode_route(wire)
        assert (procedure, msg_class) == codegen.ROW_ROUTED == (5, 0)
        assert row == _indication_row(message) and type(row) is tuple
        assert lookups == []
        assert counter_values()["codec.kernel.decode_hits"] == before + 1
        assert codegen.envelope_kernel("fb", 5, 0).route(wire) == row

    def test_an_indication_route_reads_each_fixed_run_once(self):
        """The header cell's tag and length word are read with the
        187 B prefix, the payload's with nothing but themselves: two
        ``unpack_from``, each after its end is compared with the frame's."""
        fb = get_codec("fb")
        message = RicIndication(
            RicRequestId(1, 7), 142, action_id=1, sequence=3, header=b"hdr", payload=b"x" * 64
        )
        wire = encode_message(message, fb)
        fb.decode_route(wire)  # kernel built
        before = counter_values().get("codec.kernel.decode_hits", 0)
        assert unpack_reads(fb.decode_route, wire) == 2
        assert counter_values()["codec.kernel.decode_hits"] == before + 1
        assert fb.decode_route(wire) == (5, 0, _indication_row(message))

    def test_the_lazy_lane_still_serves_what_the_kernel_declines(self):
        fb = get_codec("fb")
        message = RicIndication(RicRequestId(1, 7), 142, action_id=1, sequence=3, payload=b"x" * 64)
        wire = encode_message(message, fb)
        with codegen.interpretive():
            assert fb.decode_route(wire) == (5, 0, _indication_row(message))
        odd = fb.encode({"p": 63, "c": 1, "v": {"zz": 1}})  # unregistered pair
        assert fb.decode_route(odd)[2]["zz"] == 1
        # A body that does not fit its class — the indication's row, or
        # any other message's dataclass — fails in the route, where the
        # ingest loop contains it.
        for pair in ((5, 0), (8, 0)):
            with pytest.raises(CodecError):
                fb.decode_route(fb.encode({"p": pair[0], "c": pair[1], "v": {"zz": 1}}))

    @pytest.mark.parametrize("codec_name", ["asn", "fb"])
    def test_decode_route_matches_decode(self, codec_name):
        codec = get_codec(codec_name)
        message = RicIndication(RicRequestId(2, 9), 100, action_id=1, sequence=5, payload=b"y" * 1500)
        wire = encode_message(message, codec)
        tree = codec.decode(wire)
        v = tree["v"]
        leaves = (v["q"]["r"], v["q"]["i"], v["f"], v["a"], v["s"], v["k"], v["h"], v["m"])
        assert codec.decode_route(wire) == (tree["p"], tree["c"], leaves) == (5, 0, _indication_row(message))
        assert codec.decode_route(bytearray(wire))[2] == leaves
        with codegen.interpretive():
            assert codec.decode_route(wire)[2] == leaves


class TestIndicationEventParity:
    def test_every_body_shape_exposes_the_same_event(self):
        """The kernel row, the interpretive (lazy ``FlatView``) row and
        the ``pb`` row build one event."""
        message = RicIndication(
            RicRequestId(3, 11), 142, action_id=2, sequence=77,
            kind=RicIndicationKind.INSERT, header=b"hdr", payload=b"z" * 300,
        )
        fb, pb = get_codec("fb"), get_codec("pb")
        kernel_row = fb.decode_route(encode_message(message, fb))[2]
        with codegen.interpretive():
            lazy_row = fb.decode_route(encode_message(message, fb))[2]
        pb_server = Server(ServerConfig(e2ap_codec="pb"))
        pb_row = pb_server._decode_route(encode_message(message, pb))[2]
        assert kernel_row == lazy_row == pb_row == _indication_row(message)
        seen = []
        for row in (kernel_row, lazy_row, pb_row):
            event = IndicationEvent(4, row)
            seen.append((
                event.conn_id, event.requestor_id, event.instance_id, event.ran_function_id,
                event.action_id, event.sequence, event.kind, bytes(event.header),
                bytes(event.payload), event.request, event.full(),
            ))
        assert seen[0] == seen[1] == seen[2]
        assert seen[0][:8] == (4, 3, 11, 142, 2, 77, RicIndicationKind.INSERT, b"hdr")
        assert type(seen[0][6]) is RicIndicationKind
        assert seen[0][10] == message

    @pytest.mark.parametrize("kind", [2, 7, -1, -2])
    def test_a_kind_outside_the_enum_fails_at_construction(self, kind):
        row = (3, 11, 142, 2, 77, kind, b"", b"")
        with pytest.raises(CodecError):
            IndicationEvent(4, row)


#: the messages whose encode and decode dominate RIC workloads.
HOT_MESSAGES = {
    "ric_indication": RicIndication(
        RicRequestId(5, 11), 2, action_id=1, sequence=7, header=b"hdr",
        payload=(bytes(range(256)) * 6)[:1500],
    ),
    "ric_subscription_request": RicSubscriptionRequest(
        request=RicRequestId(5, 11),
        ran_function_id=2,
        event_trigger=b"\x00\x05trig",
        actions=[RicActionDefinition(1, RicActionKind.REPORT, b"act")],
    ),
    "e2_setup_request": E2SetupRequest(
        node_id=GlobalE2NodeId("00101", 42, NodeKind.GNB),
        ran_functions=[
            RanFunctionItem(2, b"\x01\x02kpm-def", 1, "1.3.6.1"),
            RanFunctionItem(3, b"slice", 2, "1.3.6.2"),
        ],
    ),
}


class TestKernelLane:
    @pytest.mark.parametrize("codec_name", codegen.CODECS)
    @pytest.mark.parametrize("name", list(HOT_MESSAGES))
    def test_a_kernel_round_trip_costs_at_most_half_the_walkers_calls(self, name, codec_name):
        """The generated lane's point, as a count: the same message
        encoded and decoded whole with kernels on and off."""
        message, codec = HOT_MESSAGES[name], get_codec(codec_name)

        def round_trip():
            return decode_message(encode_message(message, codec), codec)

        calls = {}
        for lane, mode in (("kernel", contextlib.nullcontext), ("walker", codegen.interpretive)):
            with mode():
                assert round_trip() == message  # kernels built, counters resolved
                calls[lane] = count_calls(round_trip)
        assert calls["kernel"] <= KERNEL_SHARE * calls["walker"], calls

    @pytest.mark.parametrize("codec_name", codegen.CODECS)
    def test_sm_payloads_on_the_hot_paths_take_only_kernels(self, codec_name):
        """A 1 500 B HW ping/pong and a 32-UE MAC report, built and
        read under their schemas: every encode and decode a kernel hit,
        no decline — the walker lane's schema check costs them nothing."""
        from repro.metrics import counters
        from repro.sm.base import decode_payload

        counters.reset_counters("codec.kernel.")
        seq, data = hw.parse_ping(hw.build_ping(7, b"p" * 1500, codec_name), codec_name)
        assert hw.parse_pong(hw.build_pong(seq, data, codec_name), codec_name) == (7, data)
        schema = mac_stats.INFO.payload_schema
        report = mac_stats.synthetic_provider(32)(None)
        wire = encode_payload(report, codec_name, schema)
        assert decode_payload(wire, codec_name, schema) == report
        kernel = {k: v for k, v in counter_values().items() if k.startswith("codec.kernel.")}
        assert kernel == {
            "codec.kernel.encode_hits": 3,
            "codec.kernel.decode_hits": 3,
            "codec.kernel.encode_fallbacks": 0,
            "codec.kernel.decode_fallbacks": 0,
        }
