"""Tests for the standardized service models E2SM-KPM and E2SM-NI
(paper Appendix A.4)."""

import pytest

from repro.core.agent.ran_function import SubscriptionHandle
from repro.core.e2ap.ies import RicActionDefinition, RicActionKind, RicRequestId
from repro.core.e2ap.messages import RicIndicationKind
from repro.sm import kpm, ni
from repro.sm.base import PeriodicTrigger, decode_payload


def handle(origin=0, instance=1, function_id=2):
    return SubscriptionHandle(origin, RicRequestId(1, instance), function_id)


class RecordingSink:
    def __init__(self):
        self.sent = []

    def send_indication(self, origin, indication):
        self.sent.append(indication)


def constant_provider(style, wanted, visible):
    return [kpm.KpmMeasurement(name, 42.0) for name in wanted]


class TestKpmSchemas:
    def test_action_definition_roundtrip(self):
        data = kpm.build_action_definition(kpm.STYLE_UE_METRICS, ["DRB.UEThpDl.UE"], "fb")
        assert kpm.parse_action_definition(data, "fb") == (2, ["DRB.UEThpDl.UE"])

    def test_empty_definition_defaults(self):
        style, metrics = kpm.parse_action_definition(b"", "fb")
        assert style == kpm.STYLE_CELL_METRICS and metrics == []

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            kpm.build_action_definition(99, None, "fb")

    def test_report_roundtrip(self):
        tree = kpm.report_to_value(1, [kpm.KpmMeasurement("RRU.PrbTotDl", 106.0)], 10.0, 5.0)
        from repro.sm.base import encode_payload

        data = encode_payload(tree, "asn", "kpm_report")
        style, samples, tstamp = kpm.report_from_value(decode_payload(data, "asn", "kpm_report"))
        assert style == 1
        assert samples == [kpm.KpmMeasurement("RRU.PrbTotDl", 106.0)]


class TestKpmFunction:
    def _function(self):
        function = kpm.KpmFunction(provider=constant_provider, sm_codec="fb")
        function.bind(RecordingSink())
        return function

    def test_admits_valid_styles(self):
        function = self._function()
        admitted, rejected = function.on_subscription(
            handle(),
            PeriodicTrigger(10.0).to_bytes("fb"),
            [
                RicActionDefinition(
                    1, RicActionKind.REPORT,
                    kpm.build_action_definition(kpm.STYLE_CELL_METRICS, None, "fb"),
                ),
                RicActionDefinition(2, RicActionKind.CONTROL),
            ],
        )
        assert [a.action_id for a in admitted] == [1]
        assert [a.action_id for a in rejected] == [2]

    def test_unknown_style_rejected_per_action(self):
        from repro.sm.base import encode_payload

        function = self._function()
        bad = encode_payload({"style": 42, "metrics": []}, "fb", "kpm_action")
        admitted, rejected = function.on_subscription(
            handle(),
            PeriodicTrigger(10.0).to_bytes("fb"),
            [RicActionDefinition(1, RicActionKind.REPORT, bad)],
        )
        assert admitted == [] and len(rejected) == 1

    def test_pump_emits_wanted_metrics(self):
        function = self._function()
        function.on_subscription(
            handle(),
            PeriodicTrigger(10.0).to_bytes("fb"),
            [
                RicActionDefinition(
                    1, RicActionKind.REPORT,
                    kpm.build_action_definition(kpm.STYLE_CELL_LOAD, ["RRC.ConnMean"], "fb"),
                )
            ],
        )
        function.pump()
        sink = function._sink
        indication = sink.sent[0]
        style, samples, _ = kpm.report_from_value(
            decode_payload(indication.payload, "fb", "kpm_report")
        )
        assert style == kpm.STYLE_CELL_LOAD
        assert samples == [kpm.KpmMeasurement("RRC.ConnMean", 42.0)]

    def test_delete_stops_reporting(self):
        from repro.core.simclock import SimClock

        clock = SimClock()
        function = kpm.KpmFunction(provider=constant_provider, sm_codec="fb", clock=clock)
        sink = RecordingSink()
        function.bind(sink)
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

    def test_base_station_provider(self):
        from repro.core.simclock import SimClock
        from repro.ran.base_station import BaseStation, BaseStationConfig
        from repro.traffic.flows import FiveTuple, Packet

        clock = SimClock()
        bs = BaseStation(BaseStationConfig(), clock)
        bs.attach_ue(1, fixed_mcs=20)
        flow = FiveTuple("1.1.1.1", "2.2.2.2", 1, 2, "udp")
        for _ in range(100):
            bs.deliver_downlink(1, Packet(flow=flow, size=1400, created_at=0.0))
        bs.start()
        clock.run_until(0.1)
        provider = kpm.base_station_provider(bs)
        samples = {m.name: m.value for m in provider(1, ["DRB.UEThpDl", "RRU.PrbTotDl"], None)}
        assert samples["RRU.PrbTotDl"] == 106.0
        assert samples["DRB.UEThpDl"] > 0.0
        per_ue = provider(2, ["RRU.PrbUsedDl.UE"], None)
        assert per_ue[0].name == "RRU.PrbUsedDl.UE.1"


class TestNi:
    def _subscribed(self, actions):
        function = ni.NiFunction(sm_codec="fb")
        sink = RecordingSink()
        function.bind(sink)
        admitted, rejected = function.on_subscription(handle(function_id=3), b"", actions)
        return function, sink, admitted, rejected

    def test_report_action(self):
        function, sink, admitted, _ = self._subscribed(
            [
                RicActionDefinition(
                    1, RicActionKind.REPORT,
                    ni.build_action_definition("s1", ["paging"], "fb"),
                )
            ]
        )
        assert len(admitted) == 1
        assert function.observe(ni.InterfaceMessage("s1", "paging", b"pl"))
        assert len(sink.sent) == 1
        message = ni.InterfaceMessage.from_value(
            decode_payload(sink.sent[0].payload, "fb", "ni_message")
        )
        assert message.procedure == "paging" and message.payload == b"pl"

    def test_report_filters_procedures(self):
        function, sink, _, _ = self._subscribed(
            [
                RicActionDefinition(
                    1, RicActionKind.REPORT,
                    ni.build_action_definition("s1", ["paging"], "fb"),
                )
            ]
        )
        function.observe(ni.InterfaceMessage("s1", "handover_request"))
        function.observe(ni.InterfaceMessage("x2", "paging"))
        assert sink.sent == []

    def test_empty_procedure_list_matches_all(self):
        function, sink, _, _ = self._subscribed(
            [
                RicActionDefinition(
                    1, RicActionKind.REPORT, ni.build_action_definition("s1", None, "fb")
                )
            ]
        )
        function.observe(ni.InterfaceMessage("s1", "anything"))
        assert len(sink.sent) == 1

    def test_insert_suspends_until_resume(self):
        function, sink, _, _ = self._subscribed(
            [
                RicActionDefinition(
                    1, RicActionKind.INSERT,
                    ni.build_action_definition("x2", ["handover_request"], "fb"),
                )
            ]
        )
        decisions = []
        proceed = function.observe(
            ni.InterfaceMessage("x2", "handover_request"), resume=decisions.append
        )
        assert proceed is False
        assert function.pending_inserts == 1
        assert sink.sent[0].kind == RicIndicationKind.INSERT
        call_id = ni.parse_insert_header(bytes(sink.sent[0].header), "fb")
        outcome = function.on_control(0, b"", ni.build_resume(call_id, False, "fb"))
        assert outcome.success
        assert decisions == [False]
        assert function.pending_inserts == 0

    def test_resume_unknown_call(self):
        function, _, _, _ = self._subscribed([])
        outcome = function.on_control(0, b"", ni.build_resume(99, True, "fb"))
        assert not outcome.success

    def test_policy_drop(self):
        function, sink, _, _ = self._subscribed(
            [
                RicActionDefinition(
                    1, RicActionKind.POLICY,
                    ni.build_policy_definition("ng", ["pdu_session_setup"], ni.POLICY_DROP, "fb"),
                )
            ]
        )
        assert function.observe(ni.InterfaceMessage("ng", "pdu_session_setup")) is False
        assert function.observe(ni.InterfaceMessage("ng", "paging")) is True
        assert function.policies_applied == 1
        assert sink.sent == []  # policies act locally, no indication

    def test_policy_forward(self):
        function, _, _, _ = self._subscribed(
            [
                RicActionDefinition(
                    1, RicActionKind.POLICY,
                    ni.build_policy_definition("ng", None, ni.POLICY_FORWARD, "fb"),
                )
            ]
        )
        assert function.observe(ni.InterfaceMessage("ng", "x")) is True

    def test_control_injects_message(self):
        injected = []
        function = ni.NiFunction(injector=injected.append, sm_codec="fb")
        function.bind(RecordingSink())
        message = ni.InterfaceMessage("x2", "handover_command", b"cmd", "out")
        outcome = function.on_control(0, b"", ni.build_control(message, "fb"))
        assert outcome.success
        assert injected == [message]

    def test_control_action_kind_rejected_at_subscription(self):
        _, _, admitted, rejected = self._subscribed(
            [RicActionDefinition(1, RicActionKind.CONTROL)]
        )
        assert admitted == [] and len(rejected) == 1

    def test_bad_interface_rejected(self):
        with pytest.raises(ValueError):
            ni.build_action_definition("zz", None, "fb")
        with pytest.raises(ValueError):
            ni.build_policy_definition("s1", None, "maybe", "fb")

    def test_delete_subscription_stops_tap(self):
        function, sink, _, _ = self._subscribed(
            [
                RicActionDefinition(
                    1, RicActionKind.REPORT, ni.build_action_definition("s1", None, "fb")
                )
            ]
        )
        function.on_subscription_delete(handle(function_id=3))
        function.observe(ni.InterfaceMessage("s1", "paging"))
        assert sink.sent == []
