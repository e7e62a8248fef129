"""What one message costs the event loop, as counts that cannot flake.

§4.4 / Fig. 7 of the paper are about a single loop turning one E2
message around; the workloads that matter (``mon_e2e`` at 2 000 ind/s,
``hw_ping``, ``sub_churn``) all run at one message per wake-up, where
batching buys nothing and every Python call on the path is paid per
message.  Wall-clock gates on a shared host flake; ``sys.setprofile``
counts of ``call`` + ``c_call`` events do not, so the wake-up is pinned
the way PR 20 pinned ``pump()``.
"""

import os
import sys
import time

import pytest

from repro.controllers.monitoring import StatsMonitorIApp
from repro.core.agent import Agent, AgentConfig
from repro.core.codec import codegen, get_codec
from repro.core.codec import flat as flat_mod
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind, RicRequestId
from repro.core.e2ap.messages import RicIndication, RicIndicationKind, encode_message
from repro.core.server import Server, ServerConfig
from repro.core.server.server import IndicationEvent
from repro.core.transport import TcpTransport
from repro.experiments.common import HwPingerIApp
from repro.metrics.counters import counter_values
from repro.sm import hw, mac_stats

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_ANALYSIS", "") in ("1", "true", "yes"),
    reason="tracked locks add calls; the budgets describe the production path",
)

#: profiled calls per one-message wake-up (82 before the rewrite).
WAKEUP_BUDGET = 60
#: profiled calls per inline asn/asn 1 500 B HW ping (668 before).
PING_BUDGET = 420


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


def _node() -> GlobalE2NodeId:
    return GlobalE2NodeId("00101", 1, NodeKind.GNB)


def _step_until(transports, done, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not done():
        for transport in transports:
            transport.step(0.01)
        assert time.monotonic() < deadline, "fixture did not settle"


class TestWakeupBudget:
    def test_one_mac_report_wakeup_stays_within_its_call_budget(self):
        """select → recv → deframe → route → submgr → store, once."""
        ric_loop, ran_loop = TcpTransport(), TcpTransport()
        try:
            server = Server(ServerConfig())
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
            counts = [one_wakeup() for _ in range(5)]
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
            counts = [count_calls(pinger.ping, data, pump=pump) for _ in range(5)]
            assert len(pinger.rtts_us) == 10
            assert min(counts) <= PING_BUDGET, counts
        finally:
            transport.stop()


class TestRouteLane:
    def test_routing_a_kernel_decodable_indication_asks_the_kernel_first(self, monkeypatch):
        """No window slice, no LRU miss: one kernel decode and nothing else."""
        fb = get_codec("fb")
        wire = encode_message(
            RicIndication(RicRequestId(1, 7), 142, action_id=1, sequence=3, payload=b"x" * 64), fb
        )
        lookups = []
        original = flat_mod._LruCache.get
        monkeypatch.setattr(
            flat_mod._LruCache, "get", lambda self, key: lookups.append(key) or original(self, key)
        )
        fb.decode_route(wire)  # kernel built
        del lookups[:]
        before = counter_values().get("codec.kernel.decode_hits", 0)
        procedure, msg_class, body = fb.decode_route(wire)
        assert (procedure, msg_class) == (5, 0)
        assert type(body) is dict and body["q"] == {"r": 1, "i": 7} and body["s"] == 3
        assert lookups == []
        assert counter_values()["codec.kernel.decode_hits"] == before + 1

    def test_the_lazy_lane_still_serves_what_the_kernel_declines(self):
        fb = get_codec("fb")
        wire = encode_message(
            RicIndication(RicRequestId(1, 7), 142, action_id=1, sequence=3, payload=b"x" * 64), fb
        )
        with codegen.interpretive():
            procedure, msg_class, body = fb.decode_route(wire)
        assert (procedure, msg_class) == (5, 0)
        assert isinstance(body, flat_mod.FlatView) and body["s"] == 3
        odd = fb.encode({"p": 5, "c": 0, "v": {"zz": 1}})  # unknown layout
        assert fb.decode_route(odd)[2]["zz"] == 1

    @pytest.mark.parametrize("codec_name", ["asn", "fb"])
    def test_decode_route_matches_decode(self, codec_name):
        codec = get_codec(codec_name)
        wire = encode_message(
            RicIndication(RicRequestId(2, 9), 100, action_id=1, sequence=5, payload=b"y" * 1500),
            codec,
        )
        tree = codec.decode(wire)
        assert codec.decode_route(wire) == (tree["p"], tree["c"], tree["v"])
        assert codec.decode_route(bytearray(wire))[0] == 5
        with codegen.interpretive():
            assert codec.decode_route(wire)[2]["m"] == b"y" * 1500


class TestIndicationEventParity:
    def test_every_body_shape_exposes_the_same_event(self):
        """Kernel dict, lazy ``FlatView`` and a ``pb`` dict read alike."""
        message = RicIndication(
            RicRequestId(3, 11), 142, action_id=2, sequence=77,
            kind=RicIndicationKind.INSERT, header=b"hdr", payload=b"z" * 300,
        )
        fb, pb = get_codec("fb"), get_codec("pb")
        kernel_body = fb.decode_route(encode_message(message, fb))[2]
        with codegen.interpretive():
            lazy_body = fb.decode_route(encode_message(message, fb))[2]
        pb_body = pb.decode(encode_message(message, pb))["v"]
        assert type(kernel_body) is dict and isinstance(lazy_body, flat_mod.FlatView)
        seen = []
        for body in (kernel_body, lazy_body, pb_body):
            event = IndicationEvent(4, body)
            seen.append((
                event.conn_id, event.requestor_id, event.instance_id, event.ran_function_id,
                event.action_id, event.sequence, event.kind, bytes(event.header),
                bytes(event.payload), event.request, event.full(),
            ))
        assert seen[0] == seen[1] == seen[2]
        assert seen[0][:8] == (4, 3, 11, 142, 2, 77, RicIndicationKind.INSERT, b"hdr")
        assert seen[0][10] == message
