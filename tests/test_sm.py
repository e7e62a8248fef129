"""Unit tests for the service models."""

import pytest

from repro.core.agent.ran_function import SubscriptionHandle
from repro.core.codec import codegen
from repro.core.codec.base import CodecError, get_codec, materialize
from repro.core.e2ap.ies import RicActionDefinition, RicActionKind, RicRequestId
from repro.sm import hw, mac_stats, pdcp_stats, rlc_stats, rrc_conf, slice_ctrl, traffic_ctrl
from repro.sm.base import (
    PeriodicReportFunction,
    PeriodicTrigger,
    SmInfo,
    decode_payload,
    encode_payload,
)


def handle(origin=0, requestor=1, instance=1, function_id=142):
    return SubscriptionHandle(origin, RicRequestId(requestor, instance), function_id)


class RecordingSink:
    def __init__(self):
        self.sent = []

    def send_indication(self, origin, indication):
        self.sent.append((origin, indication))


class TestPeriodicTrigger:
    @pytest.mark.parametrize("codec", ["asn", "fb", "pb"])
    def test_roundtrip(self, codec):
        trigger = PeriodicTrigger(period_ms=2.5)
        assert PeriodicTrigger.from_bytes(trigger.to_bytes(codec), codec) == trigger


class TestPeriodicReportFunction:
    def _function(self, clock=None, visibility=None):
        function = PeriodicReportFunction(
            info=SmInfo("T", "oid.t", 200),
            provider=lambda visible: {"visible": sorted(visible) if visible else None},
            sm_codec="fb",
            clock=clock,
            visibility=visibility,
        )
        sink = RecordingSink()
        function.bind(sink)
        return function, sink

    def test_admits_report_rejects_others(self):
        function, _sink = self._function()
        admitted, rejected = function.on_subscription(
            handle(),
            PeriodicTrigger(1.0).to_bytes("fb"),
            [
                RicActionDefinition(1, RicActionKind.REPORT),
                RicActionDefinition(2, RicActionKind.POLICY),
            ],
        )
        assert [a.action_id for a in admitted] == [1]
        assert [a.action_id for a in rejected] == [2]
        assert function.active_subscriptions == 1

    def test_bad_trigger_rejects_everything(self):
        function, _sink = self._function()
        admitted, rejected = function.on_subscription(
            handle(), b"\xff\xff", [RicActionDefinition(1, RicActionKind.REPORT)]
        )
        assert admitted == [] and len(rejected) == 1
        assert function.active_subscriptions == 0

    def test_pump_emits_per_subscription(self):
        function, sink = self._function()
        function.on_subscription(
            handle(instance=1),
            PeriodicTrigger(1.0).to_bytes("fb"),
            [RicActionDefinition(1, RicActionKind.REPORT)],
        )
        function.on_subscription(
            handle(instance=2),
            PeriodicTrigger(1.0).to_bytes("fb"),
            [RicActionDefinition(1, RicActionKind.REPORT)],
        )
        assert function.pump() == 2
        assert len(sink.sent) == 2

    def test_clock_driven_reports(self):
        from repro.core.simclock import SimClock

        clock = SimClock()
        function, sink = self._function(clock=clock)
        function.on_subscription(
            handle(),
            PeriodicTrigger(10.0).to_bytes("fb"),
            [RicActionDefinition(1, RicActionKind.REPORT)],
        )
        clock.run_until(0.1)
        assert len(sink.sent) in (10, 11)

    def test_delete_stops_clock_task(self):
        from repro.core.simclock import SimClock

        clock = SimClock()
        function, sink = self._function(clock=clock)
        sub = handle()
        function.on_subscription(
            sub,
            PeriodicTrigger(10.0).to_bytes("fb"),
            [RicActionDefinition(1, RicActionKind.REPORT)],
        )
        clock.run_until(0.05)
        assert function.on_subscription_delete(sub)
        count = len(sink.sent)
        clock.run_until(0.2)
        assert len(sink.sent) == count

    def test_visibility_filters_provider_arg(self):
        function, sink = self._function(visibility=lambda origin: {origin * 10})
        function.on_subscription(
            handle(origin=3),
            PeriodicTrigger(1.0).to_bytes("fb"),
            [RicActionDefinition(1, RicActionKind.REPORT)],
        )
        function.pump()
        _origin, indication = sink.sent[0]
        # This SM declares no report schema: its reports are bare walker trees.
        tree = materialize(get_codec("fb").decode(indication.payload))
        assert tree["visible"] == [30]

    def test_sequence_numbers_increment(self):
        function, sink = self._function()
        function.on_subscription(
            handle(),
            PeriodicTrigger(1.0).to_bytes("fb"),
            [RicActionDefinition(1, RicActionKind.REPORT)],
        )
        function.pump()
        function.pump()
        assert [ind.sequence for _o, ind in sink.sent] == [0, 1]


class TestReportPathBudget:
    """What one periodic report costs, as a count that cannot flake."""

    def test_pump_of_a_32_ue_report_stays_within_its_call_budget(self):
        import cProfile
        import pstats

        from repro.core.agent.agent import Agent, AgentConfig
        from repro.core.codec.base import get_codec
        from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
        from repro.core.e2ap.messages import E2SetupResponse, RicSubscriptionRequest, encode_message
        from repro.core.transport.base import Endpoint, Transport

        sent = []

        class NullEndpoint(Endpoint):
            peer, closed = "null", False

            def send(self, data):
                sent.append(len(data))

            def close(self):
                pass

        class NullTransport(Transport):
            """Answers E2 setup and subscribes on the spot."""

            name = "null"

            def listen(self, address, events):
                raise NotImplementedError

            def connect(self, address, events):
                endpoint, fb = NullEndpoint(), get_codec("fb")
                events.on_connected(endpoint)
                for message in (
                    E2SetupResponse(ric_id=1, accepted_functions=[mac_stats.INFO.default_function_id]),
                    RicSubscriptionRequest(
                        RicRequestId(1, 1),
                        mac_stats.INFO.default_function_id,
                        PeriodicTrigger(1.0).to_bytes("fb"),
                        [RicActionDefinition(1, RicActionKind.REPORT)],
                    ),
                ):
                    events.on_message(endpoint, encode_message(message, fb))
                return endpoint

        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB), e2ap_codec="fb"),
            NullTransport(),
        )
        function = mac_stats.MacStatsFunction(mac_stats.synthetic_provider(32), sm_codec="fb")
        agent.register_function(function)
        agent.connect("null")
        for _ in range(10):  # kernels built, header cached
            assert function.pump() == 1
        del sent[:]
        pumps = 300
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(pumps):
            function.pump()
        profile.disable()
        assert len(sent) == pumps and min(sent) > 32 * 197
        # A dataclass and a to_value() per UE, a parts list, append and
        # join per element made 370 calls here; a dict per UE through
        # the fixed-layout element encoder (a pack per element) 187.
        # The provider now writes Rows the kernel packs in one call: 121,
        # 32 of them the provider's own per-UE extend.
        assert pstats.Stats(profile).total_calls / pumps <= 140


class TestStatsSchemas:
    def test_mac_roundtrip(self):
        ue = mac_stats.MacUeStats(rnti=5, cqi=11, bytes_dl=1000)
        tree = mac_stats.report_to_value([ue], 12.5)
        for codec in ("asn", "fb"):
            data = encode_payload(tree, codec, "mac_stats_report")
            ues, tstamp = mac_stats.report_from_value(
                decode_payload(data, codec, "mac_stats_report")
            )
            assert ues == [ue] and tstamp == 12.5

    def test_rlc_roundtrip(self):
        bearer = rlc_stats.RlcBearerStats(rnti=1, bearer_id=2, sojourn_ms=3.5, dropped=4)
        tree = rlc_stats.report_to_value([bearer], 1.0)
        data = encode_payload(tree, "fb", "rlc_stats_report")
        bearers, _ = rlc_stats.report_from_value(decode_payload(data, "fb", "rlc_stats_report"))
        assert bearers == [bearer]

    def test_pdcp_roundtrip(self):
        bearer = pdcp_stats.PdcpBearerStats(rnti=1, bearer_id=1, tx_pkts=9, tx_bytes=900)
        tree = pdcp_stats.report_to_value([bearer], 0.0)
        data = encode_payload(tree, "asn", "pdcp_stats_report")
        bearers, _ = pdcp_stats.report_from_value(decode_payload(data, "asn", "pdcp_stats_report"))
        assert bearers == [bearer]

    def test_synthetic_provider_respects_visibility(self):
        provider = mac_stats.synthetic_provider(8)
        tree = provider({1, 3})
        assert [ue["rnti"] for ue in tree["ues"]] == [1, 3]

    @pytest.mark.parametrize("num_ues", [0, 1, 32])
    @pytest.mark.parametrize("visible", [None, {0, 3, 31, 99}, set()])
    def test_synthetic_provider_equals_the_dataclass_lowering(self, num_ues, visible):
        """The provider writes wire dicts directly; the ``MacUeStats``
        lowering stays here as the reference it must keep equal to."""
        provider = mac_stats.synthetic_provider(num_ues, bearer_bytes=9_000)
        for tick in (1, 2, 3):
            want = mac_stats.report_to_value(
                [
                    mac_stats.MacUeStats(
                        rnti=rnti,
                        cqi=7 + (rnti + tick) % 9,
                        mcs_dl=10 + (rnti + tick) % 18,
                        mcs_ul=10 + (rnti * 3 + tick) % 18,
                        prbs_dl=(rnti * 7 + tick) % 106,
                        prbs_ul=(rnti * 5 + tick) % 106,
                        bytes_dl=9_000 + rnti * 100 + tick,
                        bytes_ul=9_000 // 4 + rnti * 25 + tick,
                        slice_id=0,
                    )
                    for rnti in range(num_ues)
                    if visible is None or rnti in visible
                ],
                float(tick),
            )
            tree = provider(visible)
            assert tree == want
            assert list(tree) == ["ues", "tstamp_ms"] and type(tree["tstamp_ms"]) is float
            for ue in tree["ues"]:
                assert tuple(ue) == mac_stats.MacUeStats.wire_schema.keys
                assert all(type(value) is int for value in ue.values())

    @pytest.mark.parametrize("codec", ["fb", "pb", "asn"])
    @pytest.mark.parametrize(
        "sm, elements",
        [
            (mac_stats, [mac_stats.MacUeStats(rnti=r, cqi=r) for r in range(3)]),
            (rlc_stats, [rlc_stats.RlcBearerStats(rnti=r, bearer_id=1, sojourn_ms=0.5) for r in range(3)]),
            (pdcp_stats, [pdcp_stats.PdcpBearerStats(rnti=r, bearer_id=1) for r in range(3)]),
        ],
        ids=["mac", "rlc", "pdcp"],
    )
    def test_materialize_leaves_no_lazy_view_at_any_depth(self, codec, sm, elements):
        from repro.core.codec.flat import FlatListView, FlatView

        def check_plain(value):
            assert not isinstance(value, (FlatView, FlatListView, memoryview, bytearray))
            assert type(value) in (dict, list, int, float, str, bytes, bool, type(None))
            if type(value) is dict:
                value = list(value.values())
            if type(value) is list:
                for child in value:
                    check_plain(child)

        tree = sm.report_to_value(elements, 4.5)
        wire = encode_payload(tree, codec, schema=sm.INFO.payload_schema)
        decodes = [
            get_codec(codec).decode(wire),  # the codec's own (fb: lazy) decode
            decode_payload(wire, codec, schema=sm.INFO.payload_schema),
            decode_payload(memoryview(bytearray(wire)), codec, schema=sm.INFO.payload_schema),
        ]
        with codegen.interpretive():  # the walker lane's materialized tree
            decodes.append(decode_payload(wire, codec, schema=sm.INFO.payload_schema))
        for decoded in decodes:
            plain = materialize(decoded)
            check_plain(plain)
            assert plain == tree

    def test_unique_oids_and_function_ids(self):
        infos = [
            hw.INFO,
            mac_stats.INFO,
            rlc_stats.INFO,
            pdcp_stats.INFO,
            rrc_conf.INFO,
            slice_ctrl.INFO,
            traffic_ctrl.INFO,
        ]
        assert len({info.oid for info in infos}) == len(infos)
        assert len({info.default_function_id for info in infos}) == len(infos)


class TestHwSm:
    def test_ping_pong_schema(self):
        for codec in ("asn", "fb", "pb"):
            data = hw.build_ping(7, b"abc", codec)
            assert hw.parse_ping(data, codec) == (7, b"abc")
            data = hw.build_pong(8, b"xyz", codec)
            assert hw.parse_pong(data, codec) == (8, b"xyz")

    def test_control_without_subscription_fails(self):
        function = hw.HwRanFunction(sm_codec="fb")
        function.bind(RecordingSink())
        outcome = function.on_control(0, b"", hw.build_ping(1, b"x", "fb"))
        assert not outcome.success

    def test_echo_only_to_same_origin(self):
        function = hw.HwRanFunction(sm_codec="fb")
        sink = RecordingSink()
        function.bind(sink)
        function.on_subscription(
            handle(origin=0), b"", [RicActionDefinition(1, RicActionKind.REPORT)]
        )
        function.on_subscription(
            handle(origin=1, instance=2), b"", [RicActionDefinition(1, RicActionKind.REPORT)]
        )
        outcome = function.on_control(1, b"", hw.build_ping(1, b"x", "fb"))
        assert outcome.success
        assert [origin for origin, _ in sink.sent] == [1]


class TestRrcSm:
    def test_event_schema(self):
        event = rrc_conf.RrcUeEvent("attach", 3, "00102", 5, 7.0)
        data = encode_payload(event.to_value(), "fb", "rrc_ue_event")
        assert rrc_conf.parse_event(data, "fb") == event

    def test_notify_broadcasts_to_subscribers(self):
        function = rrc_conf.RrcConfFunction(sm_codec="fb")
        sink = RecordingSink()
        function.bind(sink)
        function.on_subscription(
            handle(), b"", [RicActionDefinition(1, RicActionKind.REPORT)]
        )
        function.notify_attach(1, "00101", 1)
        function.notify_detach(1, "00101", 1)
        assert len(sink.sent) == 2
        events = [
            rrc_conf.parse_event(bytes(ind.payload), "fb") for _o, ind in sink.sent
        ]
        assert [e.event for e in events] == ["attach", "detach"]

    def test_no_subscribers_no_emission(self):
        function = rrc_conf.RrcConfFunction(sm_codec="fb")
        function.bind(RecordingSink())
        function.notify_attach(1, "00101", 1)
        assert function.events_emitted == 0


class FakeSliceApi:
    def __init__(self, fail_admission=False):
        self.calls = []
        self.fail_admission = fail_admission

    def set_slice_algorithm(self, algo):
        self.calls.append(("algo", algo))

    def add_slice(self, config):
        if self.fail_admission:
            raise ValueError("over capacity")
        self.calls.append(("add", config.slice_id, config.cap))

    def delete_slice(self, slice_id):
        self.calls.append(("del", slice_id))

    def associate_ue(self, rnti, slice_id):
        self.calls.append(("assoc", rnti, slice_id))

    def slice_snapshot(self):
        return {"algo": "nvs", "slices": []}


class TestSliceCtrlSm:
    def _function(self, api=None):
        function = slice_ctrl.SliceCtrlFunction(api=api or FakeSliceApi(), sm_codec="fb")
        function.bind(RecordingSink())
        return function

    def test_commands_dispatch(self):
        api = FakeSliceApi()
        function = self._function(api)
        assert function.on_control(0, b"", slice_ctrl.build_set_algo("nvs", "fb")).success
        config = slice_ctrl.SliceConfig(slice_id=1, cap=0.5)
        assert function.on_control(0, b"", slice_ctrl.build_add_slice(config, "fb")).success
        assert function.on_control(0, b"", slice_ctrl.build_assoc_ue(3, 1, "fb")).success
        assert function.on_control(0, b"", slice_ctrl.build_del_slice(1, "fb")).success
        assert [c[0] for c in api.calls] == ["algo", "add", "assoc", "del"]

    def test_admission_failure_maps_to_cause(self):
        from repro.core.e2ap.procedures import Cause

        function = self._function(FakeSliceApi(fail_admission=True))
        config = slice_ctrl.SliceConfig(slice_id=1, cap=0.9)
        outcome = function.on_control(0, b"", slice_ctrl.build_add_slice(config, "fb"))
        assert not outcome.success
        assert outcome.cause.value == Cause.ADMISSION_REFUSED

    def test_unknown_command(self):
        function = self._function()
        payload = get_codec("fb").encode({"cmd": "frobnicate"})
        with pytest.raises(CodecError):  # the agent answers CONTROL_MESSAGE_INVALID
            function.on_control(0, b"", payload)

    def test_malformed_command(self):
        function = self._function()
        payload = get_codec("fb").encode({"cmd": "add_slice"})  # missing slice
        with pytest.raises(CodecError):
            function.on_control(0, b"", payload)

    def test_resource_share_property(self):
        config = slice_ctrl.SliceConfig(slice_id=1, kind=slice_ctrl.KIND_RATE,
                                        rate_mbps=5.0, ref_mbps=50.0)
        assert config.resource_share == pytest.approx(0.1)
        with pytest.raises(ValueError):
            slice_ctrl.SliceConfig(slice_id=1, kind=slice_ctrl.KIND_RATE,
                                   rate_mbps=5.0, ref_mbps=0.0).resource_share


class FakeTcApi:
    def __init__(self):
        self.calls = []

    def add_queue(self, queue_id):
        self.calls.append(("add_queue", queue_id))

    def del_queue(self, queue_id):
        self.calls.append(("del_queue", queue_id))

    def add_filter(self, match, queue_id, prio):
        self.calls.append(("add_filter", queue_id, prio))
        return 42

    def del_filter(self, filter_id):
        self.calls.append(("del_filter", filter_id))

    def set_pacer(self, kind, params):
        self.calls.append(("set_pacer", kind, dict(params)))

    def set_scheduler(self, kind):
        self.calls.append(("set_sched", kind))

    def queue_snapshot(self):
        return {"queues": []}


class TestTrafficCtrlSm:
    def _function(self, pipelines):
        function = traffic_ctrl.TrafficCtrlFunction(
            pipelines=lambda: pipelines, sm_codec="fb"
        )
        function.bind(RecordingSink())
        return function

    def test_target_header_roundtrip(self):
        header = traffic_ctrl.build_target(3, 1, "fb")
        assert traffic_ctrl.parse_target(header, "fb") == (3, 1)
        assert traffic_ctrl.parse_target(b"", "fb") == (0, 0)

    def test_wildcard_fans_out(self):
        apis = {(1, 1): FakeTcApi(), (2, 1): FakeTcApi()}
        function = self._function(apis)
        outcome = function.on_control(
            0, b"", traffic_ctrl.build_add_queue(2, "fb")
        )
        assert outcome.success
        assert apis[(1, 1)].calls and apis[(2, 1)].calls

    def test_targeted_command(self):
        apis = {(1, 1): FakeTcApi(), (2, 1): FakeTcApi()}
        function = self._function(apis)
        header = traffic_ctrl.build_target(2, 1, "fb")
        function.on_control(0, header, traffic_ctrl.build_set_sched("rr", "fb"))
        assert not apis[(1, 1)].calls
        assert apis[(2, 1)].calls == [("set_sched", "rr")]

    def test_no_matching_pipeline(self):
        function = self._function({})
        outcome = function.on_control(0, b"", traffic_ctrl.build_add_queue(2, "fb"))
        assert not outcome.success

    def test_filter_command_returns_id(self):
        apis = {(1, 1): FakeTcApi()}
        function = self._function(apis)
        match = traffic_ctrl.FiveTupleMatch(src_port=2112)
        outcome = function.on_control(
            0, b"", traffic_ctrl.build_add_filter(match, 2, 1, "fb")
        )
        result = decode_payload(outcome.outcome, "fb", "tc_ack")
        assert result["filter_id"] == 42

    def test_all_commands_dispatch(self):
        api = FakeTcApi()
        function = self._function({(1, 1): api})
        commands = [
            traffic_ctrl.build_add_queue(2, "fb"),
            traffic_ctrl.build_set_pacer("bdp", {"target_ms": 4.0}, "fb"),
            traffic_ctrl.build_set_sched("rr", "fb"),
            traffic_ctrl.build_del_filter(42, "fb"),
            traffic_ctrl.build_del_queue(2, "fb"),
        ]
        for command in commands:
            assert function.on_control(0, b"", command).success
        kinds = [c[0] for c in api.calls]
        assert kinds == ["add_queue", "set_pacer", "set_sched", "del_filter", "del_queue"]

    def test_snapshot_labels_bearers(self):
        apis = {(1, 1): FakeTcApi(), (2, 2): FakeTcApi()}
        function = self._function(apis)
        tree = function._snapshot(None)
        assert [(b["rnti"], b["bearer_id"]) for b in tree["bearers"]] == [(1, 1), (2, 2)]

    def test_snapshot_visibility(self):
        apis = {(1, 1): FakeTcApi(), (2, 2): FakeTcApi()}
        function = self._function(apis)
        tree = function._snapshot({2})
        assert [b["rnti"] for b in tree["bearers"]] == [2]

    def test_five_tuple_match_roundtrip(self):
        match = traffic_ctrl.FiveTupleMatch("a", "b", 1, 2, "udp")
        assert traffic_ctrl.FiveTupleMatch.from_value(match.to_value()) == match


def test_every_sm_payload_call_in_src_names_its_schema():
    """``decode_payload`` has no default schema; ``encode_payload``'s
    exists only for the benchmark ladder's bare walker rung.  Every call
    in the package names the schema its tree is declared by."""
    import ast
    from pathlib import Path

    unnamed = []
    for path in sorted((Path(__file__).parents[1] / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("encode_payload", "decode_payload"):
                if len(node.args) < 3 and not any(k.arg == "schema" for k in node.keywords):
                    unnamed.append(f"{path.name}:{node.lineno}")
    assert unnamed == []
