"""Integration tests: agent <-> server over the E2AP stack."""

import pytest

from repro.core.agent import Agent, AgentConfig
from repro.core.agent.ran_function import RanFunction
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RicActionDefinition,
    RicActionKind,
)
from repro.core.e2ap.messages import (
    RicControlAcknowledge,
    RicControlFailure,
    RicSubscriptionDeleteResponse,
    RicSubscriptionFailure,
    RicSubscriptionResponse,
)
from repro.core.e2ap.procedures import Cause
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
from repro.core.server import events as topics
from repro.core.transport import InProcTransport
from repro.sm.base import PeriodicTrigger
from repro.sm.hw import HwRanFunction, INFO as HW
from repro.sm.mac_stats import MacStatsFunction, synthetic_provider, INFO as MAC


def make_node(nb_id=1, kind=NodeKind.GNB):
    return GlobalE2NodeId(plmn="00101", nb_id=nb_id, kind=kind)


def wire(codec="fb", nb_id=1, functions=(), address="ric"):
    transport = InProcTransport()
    server = Server(ServerConfig(e2ap_codec=codec))
    server.listen(transport, address)
    agent = Agent(AgentConfig(node_id=make_node(nb_id), e2ap_codec=codec), transport)
    for function in functions:
        agent.register_function(function)
    return transport, server, agent


class TestSetup:
    @pytest.mark.parametrize("codec", ["asn", "fb"])
    def test_setup_registers_agent(self, codec):
        _t, server, agent = wire(codec, functions=[HwRanFunction(sm_codec=codec)])
        agent.connect("ric")
        records = server.agents()
        assert len(records) == 1
        assert records[0].node_id == make_node()
        assert HW.default_function_id in records[0].functions

    def test_setup_event_published(self):
        transport, server, agent = wire()
        seen = []
        server.events.subscribe(topics.AGENT_CONNECTED, seen.append)
        agent.connect("ric")
        assert len(seen) == 1

    def test_function_oid_advertised(self):
        _t, server, agent = wire(functions=[HwRanFunction()])
        agent.connect("ric")
        item = server.agents()[0].function_by_oid(HW.oid)
        assert item is not None
        assert item.definition.startswith(HW.oid.encode())

    def test_duplicate_function_id_rejected(self):
        agent = Agent(AgentConfig(node_id=make_node()), InProcTransport())
        agent.register_function(HwRanFunction())
        with pytest.raises(ValueError):
            agent.register_function(HwRanFunction())

    def test_connect_to_missing_controller(self):
        _t, _s, agent = wire()
        with pytest.raises(ConnectionError):
            agent.connect("nothing-here")

    def test_disconnect_purges_randb(self):
        transport, server, agent = wire(functions=[HwRanFunction()])
        origin = agent.connect("ric")
        agent.disconnect(origin)
        assert server.agents() == []


class TestSubscription:
    def _subscribe(self, server, conn_id, callbacks, function_id=HW.default_function_id):
        return server.subscribe(
            conn_id=conn_id,
            ran_function_id=function_id,
            event_trigger=PeriodicTrigger(0.0).to_bytes("fb"),
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=callbacks,
        )

    def test_success_callback(self):
        _t, server, agent = wire(functions=[HwRanFunction()])
        agent.connect("ric")
        outcomes = []
        record = self._subscribe(
            server,
            server.agents()[0].conn_id,
            SubscriptionCallbacks(on_success=outcomes.append),
        )
        assert record.confirmed
        assert isinstance(outcomes[0], RicSubscriptionResponse)
        assert [a.action_id for a in outcomes[0].admitted] == [1]

    def test_unknown_function_fails(self):
        _t, server, agent = wire(functions=[HwRanFunction()])
        agent.connect("ric")
        failures = []
        self._subscribe(
            server,
            server.agents()[0].conn_id,
            SubscriptionCallbacks(on_failure=failures.append),
            function_id=999,
        )
        assert isinstance(failures[0], RicSubscriptionFailure)

    def test_non_report_action_rejected_by_hw(self):
        _t, server, agent = wire(functions=[HwRanFunction()])
        agent.connect("ric")
        outcomes = []
        server.subscribe(
            conn_id=server.agents()[0].conn_id,
            ran_function_id=HW.default_function_id,
            event_trigger=b"",
            actions=[RicActionDefinition(1, RicActionKind.POLICY)],
            callbacks=SubscriptionCallbacks(on_success=outcomes.append),
        )
        assert outcomes[0].admitted == []
        assert [a.action_id for a in outcomes[0].not_admitted] == [1]

    def test_delete_lifecycle(self):
        function = HwRanFunction()
        _t, server, agent = wire(functions=[function])
        agent.connect("ric")
        deletions = []
        record = self._subscribe(
            server,
            server.agents()[0].conn_id,
            SubscriptionCallbacks(on_deleted=deletions.append),
        )
        assert len(function.subscriptions) == 1
        server.unsubscribe(record)
        assert isinstance(deletions[0], RicSubscriptionDeleteResponse)
        assert len(function.subscriptions) == 0
        assert len(server.submgr) == 0

    def test_indication_dispatch(self):
        function = MacStatsFunction(provider=synthetic_provider(4), sm_codec="fb")
        _t, server, agent = wire(functions=[function])
        agent.connect("ric")
        events = []
        server.subscribe(
            conn_id=server.agents()[0].conn_id,
            ran_function_id=MAC.default_function_id,
            event_trigger=PeriodicTrigger(1.0).to_bytes("fb"),
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(on_indication=events.append),
        )
        function.pump()
        function.pump()
        assert len(events) == 2
        assert events[0].ran_function_id == MAC.default_function_id
        assert events[0].sequence == 0
        assert events[1].sequence == 1

    def test_indication_payload_decodes(self):
        from repro.sm.base import decode_payload

        function = MacStatsFunction(provider=synthetic_provider(3), sm_codec="fb")
        _t, server, agent = wire(functions=[function])
        agent.connect("ric")
        events = []
        server.subscribe(
            conn_id=server.agents()[0].conn_id,
            ran_function_id=MAC.default_function_id,
            event_trigger=PeriodicTrigger(1.0).to_bytes("fb"),
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(on_indication=events.append),
        )
        function.pump()
        tree = decode_payload(events[0].payload, "fb", MAC.payload_schema)
        assert len(tree["ues"]) == 3

    def test_orphan_indication_ignored(self):
        """An indication for an unknown request id is dropped silently."""
        function = MacStatsFunction(provider=synthetic_provider(1), sm_codec="fb")
        _t, server, agent = wire(functions=[function])
        agent.connect("ric")
        record = server.subscribe(
            conn_id=server.agents()[0].conn_id,
            ran_function_id=MAC.default_function_id,
            event_trigger=PeriodicTrigger(1.0).to_bytes("fb"),
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(),
        )
        server.submgr.remove(record.request)
        function.pump()  # must not raise


class TestSharedSubscriptions:
    """Single-encode fan-out: several iApps riding one wire subscription."""

    def _wire_mac(self):
        function = MacStatsFunction(provider=synthetic_provider(1), sm_codec="fb")
        _t, server, agent = wire(functions=[function])
        agent.connect("ric")
        return function, server, server.agents()[0].conn_id

    def _subscribe(self, server, conn_id, callbacks):
        return server.subscribe(
            conn_id=conn_id,
            ran_function_id=MAC.default_function_id,
            event_trigger=PeriodicTrigger(1.0).to_bytes("fb"),
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(on_indication=callbacks),
        )

    def test_identical_subscribe_shares_wire_record(self):
        function, server, conn = self._wire_mac()
        a, b = [], []
        record = self._subscribe(server, conn, a.append)
        handle = self._subscribe(server, conn, b.append)
        assert len(function.subscriptions) == 1
        assert len(server.submgr) == 1
        assert handle.request == record.request  # delegates to the record
        function.pump()
        assert len(a) == 1 and len(b) == 1

    def test_unsubscribe_detaches_only_the_caller(self):
        """Regression: with A primary and B attached, A unsubscribing
        must stop A — not silently detach B (the old LIFO pop)."""
        function, server, conn = self._wire_mac()
        a, b = [], []
        record_a = self._subscribe(server, conn, a.append)
        self._subscribe(server, conn, b.append)
        server.unsubscribe(record_a)
        assert len(function.subscriptions) == 1  # wire stays up for B
        function.pump()
        assert a == []
        assert len(b) == 1

    def test_sink_handle_detaches_exactly_that_sink(self):
        function, server, conn = self._wire_mac()
        a, b, c = [], [], []
        self._subscribe(server, conn, a.append)
        handle_b = self._subscribe(server, conn, b.append)
        self._subscribe(server, conn, c.append)
        server.unsubscribe(handle_b)
        function.pump()
        assert len(a) == 1 and len(c) == 1
        assert b == []

    def test_last_subscriber_owns_the_wire_delete(self):
        function, server, conn = self._wire_mac()
        a, b = [], []
        record_a = self._subscribe(server, conn, a.append)
        handle_b = self._subscribe(server, conn, b.append)
        server.unsubscribe(record_a)  # promotes B
        assert len(function.subscriptions) == 1
        server.unsubscribe(handle_b)  # B was promoted: real delete
        assert len(function.subscriptions) == 0
        assert len(server.submgr) == 0

    def test_late_attach_replays_confirm(self):
        _function, server, conn = self._wire_mac()
        confirms = []
        self._subscribe(server, conn, lambda _e: None)
        server.subscribe(
            conn_id=conn,
            ran_function_id=MAC.default_function_id,
            event_trigger=PeriodicTrigger(1.0).to_bytes("fb"),
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(on_success=confirms.append),
        )
        assert len(confirms) == 1
        assert isinstance(confirms[0], RicSubscriptionResponse)


class TestControl:
    def test_control_ack(self):
        function = HwRanFunction(sm_codec="fb")
        _t, server, agent = wire(functions=[function])
        agent.connect("ric")
        conn = server.agents()[0].conn_id
        server.subscribe(
            conn_id=conn,
            ran_function_id=HW.default_function_id,
            event_trigger=b"",
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(),
        )
        outcomes = []
        from repro.sm.hw import build_ping

        server.control(
            conn, HW.default_function_id, b"", build_ping(1, b"x", "fb"),
            on_outcome=outcomes.append,
        )
        assert isinstance(outcomes[0], RicControlAcknowledge)

    def test_control_failure_without_subscription(self):
        function = HwRanFunction(sm_codec="fb")
        _t, server, agent = wire(functions=[function])
        agent.connect("ric")
        conn = server.agents()[0].conn_id
        outcomes = []
        from repro.sm.hw import build_ping

        server.control(
            conn, HW.default_function_id, b"", build_ping(1, b"x", "fb"),
            on_outcome=outcomes.append,
        )
        assert isinstance(outcomes[0], RicControlFailure)

    def test_control_unknown_function(self):
        _t, server, agent = wire(functions=[HwRanFunction()])
        agent.connect("ric")
        outcomes = []
        server.control(
            server.agents()[0].conn_id, 999, b"", b"", on_outcome=outcomes.append
        )
        assert isinstance(outcomes[0], RicControlFailure)
        assert outcomes[0].cause.value == Cause.RAN_FUNCTION_ID_INVALID

    def test_control_to_dead_connection_raises(self):
        _t, server, agent = wire(functions=[HwRanFunction()])
        origin = agent.connect("ric")
        conn = server.agents()[0].conn_id
        agent.disconnect(origin)
        with pytest.raises(ConnectionError):
            server.control(conn, HW.default_function_id, b"", b"")


class TestRanFunctionDefaults:
    def test_default_subscription_rejects_all(self):
        function = RanFunction(1, "custom", "oid.custom")
        from repro.core.agent.ran_function import SubscriptionHandle
        from repro.core.e2ap.ies import RicRequestId

        handle = SubscriptionHandle(0, RicRequestId(1, 1), 1)
        admitted, rejected = function.on_subscription(
            handle, b"", [RicActionDefinition(1, RicActionKind.REPORT)]
        )
        assert admitted == [] and len(rejected) == 1

    def test_default_control_unsupported(self):
        function = RanFunction(1, "custom", "oid.custom")
        outcome = function.on_control(0, b"", b"")
        assert not outcome.success

    def test_emit_without_bind_raises(self):
        from repro.core.agent.ran_function import SubscriptionHandle
        from repro.core.e2ap.ies import RicRequestId

        function = RanFunction(1, "custom", "oid.custom")
        handle = SubscriptionHandle(0, RicRequestId(1, 1), 1)
        with pytest.raises(RuntimeError):
            function.emit(handle, 1, b"", b"")

    def test_definition_bytes_content(self):
        function = RanFunction(7, "name", "oid.v", revision=3)
        assert function.definition_bytes() == b"oid.v;name;rev3"


class TestServiceUpdate:
    def test_runtime_function_addition(self):
        _t, server, agent = wire(functions=[HwRanFunction()])
        origin = agent.connect("ric")
        updates = []
        server.events.subscribe(topics.FUNCTIONS_UPDATED, updates.append)
        late = MacStatsFunction(provider=synthetic_provider(1), sm_codec="fb")
        agent.register_function(late)
        agent.announce_function_update(origin, added=[late])
        assert len(updates) == 1
        record = server.agents()[0]
        assert MAC.default_function_id in record.functions


class TestNodeConfigAndErrors:
    def test_config_update_stored_and_acked(self):
        from repro.core.server import events as topics

        _t, server, agent = wire(functions=[HwRanFunction()])
        origin = agent.connect("ric")
        seen = []
        server.events.subscribe(topics.NODE_CONFIG_UPDATED, seen.append)
        agent.announce_config(origin, {"tac": "42", "band": "n78"})
        record = server.agents()[0]
        assert record.config == {"tac": "42", "band": "n78"}
        assert len(seen) == 1
        # A second update merges rather than replaces.
        agent.announce_config(origin, {"band": "n41"})
        assert record.config == {"tac": "42", "band": "n41"}

    def test_error_indication_recorded(self):
        from repro.core.server import events as topics
        from repro.core.e2ap.messages import ErrorIndication

        _t, server, agent = wire(functions=[HwRanFunction()])
        origin = agent.connect("ric")
        seen = []
        server.events.subscribe(topics.ERROR_INDICATED, seen.append)
        agent.announce_error(origin, Cause.ric_service(Cause.UNSPECIFIED, "oops"))
        assert len(server.errors_seen) == 1
        conn_id, error = server.errors_seen[0]
        assert isinstance(error, ErrorIndication)
        assert error.cause.detail == "oops"
        assert len(seen) == 1

    def test_service_query_resync(self):
        from repro.core.e2ap.messages import RicServiceQuery

        _t, server, agent = wire(functions=[HwRanFunction()])
        agent.connect("ric")
        record = server.agents()[0]
        record.functions.clear()  # controller lost its view
        server.send_to_agent(record.conn_id, RicServiceQuery())
        assert HW.default_function_id in record.functions
