"""E2AP procedure tracing: spans, correlation, histograms (DESIGN §9)."""

import threading
import time

import pytest

from repro.core.agent import Agent, AgentConfig
from repro.core.agent.multi_controller import LinkState
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RicActionDefinition,
    RicActionKind,
)
from repro.core.codec import get_codec
from repro.core.e2ap.messages import E2SetupRequest, RicIndication, encode_message
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
from repro.core.transport import InProcTransport, TransportEvents
from repro.core.transport.tcp import TcpTransport
from repro.metrics import counters
from repro.metrics import trace as trace_mod
from repro.metrics.counters import Histogram, get_counter, get_gauge
from repro.northbound import RestClient, RestServer, attach_metrics_routes
from repro.sm.base import PeriodicTrigger
from repro.sm.hw import HwRanFunction, INFO as HW


@pytest.fixture(autouse=True)
def clean_tracer():
    """Tracing is process-global: every test starts and ends dark."""
    trace_mod.disable()
    trace_mod.reset()
    yield
    trace_mod.disable()
    trace_mod.reset()


def make_node(nb_id=1):
    return GlobalE2NodeId(plmn="00101", nb_id=nb_id, kind=NodeKind.GNB)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def wire_inproc(codec="fb"):
    transport = InProcTransport()
    server = Server(ServerConfig(e2ap_codec=codec))
    server.listen(transport, "ric")
    agent = Agent(AgentConfig(node_id=make_node(), e2ap_codec=codec), transport)
    agent.register_function(HwRanFunction(sm_codec=codec))
    return transport, server, agent


class TestHistogram:
    def test_bucket_edges_are_upper_inclusive(self):
        h = Histogram("h", edges=(1, 10, 100))
        for value in (0.5, 1.0, 1.1, 10.0, 99.9, 100.0, 1000.0):
            h.observe(value)
        snap = h.snapshot()
        buckets = dict(snap["buckets"])
        assert buckets[1] == 2      # 0.5, 1.0
        assert buckets[10] == 2     # 1.1, 10.0
        assert buckets[100] == 2    # 99.9, 100.0
        assert snap["overflow"] == 1  # 1000.0
        assert snap["count"] == 7

    def test_mean_and_sum(self):
        h = Histogram("h", edges=(10, 20))
        h.observe(5)
        h.observe(15)
        snap = h.snapshot()
        assert snap["sum"] == pytest.approx(20.0)
        assert snap["mean"] == pytest.approx(10.0)

    def test_quantiles_monotonic(self):
        h = Histogram("h", edges=(1, 2, 5, 10, 20, 50))
        for value in range(1, 50):
            h.observe(value)
        snap = h.snapshot()
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
        assert snap["p50"] == pytest.approx(25, abs=10)

    def test_overflow_quantile_clamps_to_last_edge(self):
        h = Histogram("h", edges=(1, 2))
        for _ in range(10):
            h.observe(1e9)
        assert h.quantile(0.99) == 2

    def test_reset(self):
        h = Histogram("h", edges=(1,))
        h.observe(0.5)
        h.reset()
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["sum"] == 0

    def test_registry_keeps_edges_on_refetch(self):
        h = counters.get_histogram("test.edges", edges=(7, 8))
        again = counters.get_histogram("test.edges", edges=(1, 2, 3))
        assert again is h
        assert again.edges == (7, 8)


class TestDisabledModeIsNoop:
    def test_no_spans_recorded(self):
        _t, server, agent = wire_inproc()
        agent.connect("ric")
        done = threading.Event()
        server.subscribe(
            conn_id=server.agents()[0].conn_id,
            ran_function_id=HW.default_function_id,
            event_trigger=PeriodicTrigger(0.0).to_bytes("fb"),
            actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(on_success=lambda r: done.set()),
        )
        assert done.is_set()
        assert trace_mod.TRACER.spans() == []
        assert trace_mod.TRACER.stage_breakdown() == {}

    def test_stage_helper_returns_shared_noop(self):
        assert trace_mod.stage("encode") is trace_mod.stage("decode")


def full_round_trip(server, agent, address="ric", pump=None):
    """subscription -> indication -> control, returning the sub corr."""
    subscribed = threading.Event()
    indications = []

    def wait(check):
        if pump is None:
            assert check(), "synchronous transport should already be done"
            return
        for _ in range(2000):
            if check():
                return
            pump()
        raise TimeoutError("round trip stalled")

    agent.connect_async(address)
    wait(lambda: len(server.agents()) == 1)
    record = server.subscribe(
        conn_id=server.agents()[0].conn_id,
        ran_function_id=HW.default_function_id,
        event_trigger=PeriodicTrigger(0.0).to_bytes("fb"),
        actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
        callbacks=SubscriptionCallbacks(
            on_success=lambda response: subscribed.set(),
            on_indication=lambda event: indications.append(event),
        ),
    )
    wait(subscribed.is_set)
    from repro.sm import hw as hw_mod

    server.control(
        conn_id=record.conn_id,
        ran_function_id=HW.default_function_id,
        header=b"",
        payload=hw_mod.build_ping(1, b"payload", "fb"),
        ack_requested=False,
    )
    wait(lambda: len(indications) >= 1)
    return record.request.as_tuple()


class TestRoundTripInproc:
    def test_stitched_trace(self):
        trace_mod.enable()
        _t, server, agent = wire_inproc()
        corr = full_round_trip(server, agent)
        tracer = trace_mod.TRACER
        assert corr in tracer.corr_ids()
        stitched = tracer.stitch(corr)
        stages = [span.stage for span in stitched]
        # Subscription request and response both encode/decode/dispatch
        # under the subscription's request id.
        assert "encode" in stages and "decode" in stages and "dispatch" in stages
        starts = [span.start_s for span in stitched]
        assert starts == sorted(starts)
        # Both sides contributed: the agent label and the RIC label.
        nodes = {span.node for span in stitched if span.node}
        assert any(node.startswith("ric") for node in nodes)
        assert make_node().label in nodes

    def test_indication_spans_carry_request_corr(self):
        trace_mod.enable()
        _t, server, agent = wire_inproc()
        corr = full_round_trip(server, agent)
        tracer = trace_mod.TRACER
        indication_spans = [
            span
            for span in tracer.spans()
            if span.procedure == "ric_indication" and span.corr == corr
        ]
        kinds = {span.stage for span in indication_spans}
        # agent encode -> server decode -> submgr dispatch, all under
        # the indication's request id.
        assert {"encode", "decode", "dispatch"} <= kinds
        # The transport send span adopts the encoded message's corr
        # (it cannot name the procedure — the bytes are opaque to it).
        send_corrs = {span.corr for span in tracer.spans("send")}
        assert corr in send_corrs

    def test_breakdown_histograms_populated(self):
        trace_mod.enable()
        _t, server, agent = wire_inproc()
        full_round_trip(server, agent)
        breakdown = trace_mod.TRACER.stage_breakdown()
        for stage in ("encode", "send", "decode", "dispatch"):
            assert breakdown[stage]["count"] > 0
            assert breakdown[stage]["sum"] >= 0


class TestRoundTripTcp:
    def test_stitched_trace_over_sockets(self):
        trace_mod.enable()
        transport = TcpTransport()
        try:
            server = Server(ServerConfig(e2ap_codec="fb"))
            listener = server.listen(transport, "127.0.0.1:0")
            agent = Agent(AgentConfig(node_id=make_node(), e2ap_codec="fb"), transport)
            agent.register_function(HwRanFunction(sm_codec="fb"))
            pump = lambda: transport.step(0.01)
            corr = full_round_trip(
                server, agent, address=listener.address, pump=pump
            )
        finally:
            transport.stop()
        tracer = trace_mod.TRACER
        stitched = tracer.stitch(corr)
        stages = {span.stage for span in stitched}
        # TCP adds the framing and socket stages to the stitched trace.
        assert {"encode", "frame", "send", "decode", "dispatch"} <= stages
        assert "recv" in {span.stage for span in tracer.spans()}
        indication_corrs = {
            span.corr
            for span in tracer.spans()
            if span.procedure == "ric_indication" and span.corr
        }
        assert indication_corrs, "indication path produced no correlated spans"

    def test_traced_burst_stays_batched_with_spans_per_message(self):
        """Tracing observes the batched ingest; it does not reroute it."""
        trace_mod.enable()
        codec = get_codec("fb")
        server = Server(ServerConfig(e2ap_codec="fb"))
        ingest, batches = server._on_messages, []

        def counted(endpoint, batch):
            batches.append(len(batch))
            ingest(endpoint, batch)

        server._on_messages = counted
        transport = TcpTransport()
        seen = []
        burst = 200
        try:
            listener = server.listen(transport, "127.0.0.1:0")
            transport.start()
            node = transport.connect(listener.address, TransportEvents())
            node.send(encode_message(E2SetupRequest(make_node(), []), codec))
            assert wait_for(lambda: len(server.agents()) == 1)
            record = server.subscribe(
                conn_id=server.agents()[0].conn_id,
                ran_function_id=HW.default_function_id,
                event_trigger=b"",
                actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(on_indication=seen.append),
            )
            del batches[:]
            sections = server.cpu.sections
            node.send_many(
                [
                    encode_message(
                        RicIndication(record.request, HW.default_function_id, 1, sequence),
                        codec,
                    )
                    for sequence in range(burst)
                ]
            )
            assert wait_for(lambda: len(seen) == burst)
        finally:
            transport.stop()
            server.close()
        assert sum(batches) == burst
        assert 1 <= len(batches) < burst
        # ... and one metered section per batch, not one per message.
        assert server.cpu.sections - sections == len(batches)
        corr = record.request.as_tuple()
        stitched = [
            span.stage
            for span in trace_mod.TRACER.stitch(corr, include_uncorrelated=False)
            if span.procedure == "ric_indication"
        ]
        # One round trip per message: encoded by the node, then decoded
        # and dispatched inline, message by message, inside the batch.
        assert stitched.count("encode") == burst
        assert [s for s in stitched if s != "encode"] == ["decode", "dispatch"] * burst
        # The started loop records the whole stage vocabulary.
        assert set(trace_mod.STAGES) <= {s.stage for s in trace_mod.TRACER.spans()}

    def test_recv_spans_are_uncorrelated_but_stitched_by_window(self):
        trace_mod.enable()
        transport = TcpTransport()
        try:
            server = Server(ServerConfig(e2ap_codec="fb"))
            listener = server.listen(transport, "127.0.0.1:0")
            agent = Agent(AgentConfig(node_id=make_node(), e2ap_codec="fb"), transport)
            agent.register_function(HwRanFunction(sm_codec="fb"))
            pump = lambda: transport.step(0.01)
            corr = full_round_trip(
                server, agent, address=listener.address, pump=pump
            )
        finally:
            transport.stop()
        tracer = trace_mod.TRACER
        for span in tracer.spans("recv"):
            assert span.corr is None
        without = tracer.stitch(corr, include_uncorrelated=False)
        with_window = tracer.stitch(corr)
        assert len(with_window) >= len(without)


class TestResetSemantics:
    def test_reset_all_resets_gauges_and_histograms(self):
        get_counter("t.count").incr(3)
        get_gauge("t.gauge").set(7)
        counters.get_histogram("t.hist").observe(5.0)
        counters.reset_all()
        snap = counters.snapshot()
        assert snap["counters"].get("t.count", 0) == 0
        assert snap["gauges"].get("t.gauge", 0) == 0
        assert snap["histograms"]["t.hist"]["count"] == 0

    def test_dead_link_gauge_discarded(self):
        _t, server, agent = wire_inproc()
        agent.connect("ric")
        name = f"agent.{make_node().label}.link.0.state"
        assert counters.gauge_values().get(name) == int(LinkState.READY)
        agent.disconnect(0)
        assert name not in counters.gauge_values()

    def test_trace_reset_clears_spans_and_histograms(self):
        trace_mod.enable()
        trace_mod.TRACER.record("encode", 0.0, end_s=0.001)
        assert trace_mod.TRACER.spans()
        trace_mod.reset()
        assert trace_mod.TRACER.spans() == []
        assert trace_mod.TRACER.stage_breakdown()["encode"]["count"] == 0


class TestDecodeContainment:
    def test_agent_counts_contained_garbage(self):
        _t, server, agent = wire_inproc()
        agent.connect("ric")
        before = counters.counter_values().get("decode.contained", 0)
        endpoint = agent._endpoints[0]
        # Deliver garbage straight into the agent's message callback.
        agent._handle(0, endpoint, b"\xff\xfe garbage")
        after = counters.counter_values().get("decode.contained", 0)
        assert after == before + 1

    def test_sm_trigger_garbage_counted(self):
        from repro.core.agent.ran_function import SubscriptionHandle
        from repro.core.e2ap.ies import RicRequestId
        from repro.sm.kpm import KpmFunction

        function = KpmFunction(provider=lambda visible: {"cells": []})
        before = counters.counter_values().get("decode.contained", 0)
        handle = SubscriptionHandle(
            origin=0, request=RicRequestId(1, 1), ran_function_id=2
        )
        admitted, rejected = function.on_subscription(
            handle, b"\x00not-a-trigger", [
                RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)
            ],
        )
        assert admitted == []
        assert rejected
        after = counters.counter_values().get("decode.contained", 0)
        assert after == before + 1


class TestNorthboundMetricsApi:
    def test_rest_roundtrip(self):
        rest = RestServer()
        attach_metrics_routes(rest)
        rest.start()
        try:
            client = RestClient("127.0.0.1", rest.port)
            assert client.post("/metrics/trace/enable") == {"enabled": True}
            _t, server, agent = wire_inproc()
            full_round_trip(server, agent)
            stages = client.get("/metrics/trace/stages")
            assert stages["encode"]["count"] > 0
            trace = client.get("/metrics/trace")
            assert trace["enabled"] is True
            assert trace["span_count"] == len(trace["spans"]) > 0
            snap = client.get("/metrics")
            assert "counters" in snap and "histograms" in snap
            assert client.post("/metrics/trace/disable") == {"enabled": False}
            assert client.post("/metrics/reset") == {"reset": "all"}
            assert client.get("/metrics/trace")["span_count"] == 0
        finally:
            rest.stop()
