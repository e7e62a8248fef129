"""Unit tests for subscription management and the event bus."""

import pytest

from repro.core.e2ap.ies import RicRequestId
from repro.core.e2ap.messages import (
    RicSubscriptionDeleteResponse,
    RicSubscriptionFailure,
    RicSubscriptionResponse,
)
from repro.core.e2ap.procedures import Cause
from repro.core.server.events import EventBus
from repro.core.server.submgr import SubscriptionCallbacks, SubscriptionManager


class FakeEvent:
    def __init__(self, requestor_id, instance_id):
        self.requestor_id = requestor_id
        self.instance_id = instance_id
        self.route_key = (requestor_id, instance_id)


class TestSubscriptionManager:
    def test_create_mints_unique_ids(self):
        manager = SubscriptionManager()
        records = [manager.create(1, 142, SubscriptionCallbacks()) for _ in range(5)]
        ids = {record.request.as_tuple() for record in records}
        assert len(ids) == 5

    def test_custom_requestor_id(self):
        manager = SubscriptionManager()
        record = manager.create(1, 142, SubscriptionCallbacks(), requestor_id=77)
        assert record.request.requestor_id == 77

    def test_confirm_invokes_callback(self):
        manager = SubscriptionManager()
        seen = []
        record = manager.create(1, 142, SubscriptionCallbacks(on_success=seen.append))
        response = RicSubscriptionResponse(request=record.request, ran_function_id=142)
        assert manager.confirm(response) is record
        assert record.confirmed
        assert seen == [response]

    def test_confirm_unknown_returns_none(self):
        manager = SubscriptionManager()
        response = RicSubscriptionResponse(request=RicRequestId(9, 9), ran_function_id=1)
        assert manager.confirm(response) is None

    def test_failure_removes_record(self):
        manager = SubscriptionManager()
        seen = []
        record = manager.create(1, 142, SubscriptionCallbacks(on_failure=seen.append))
        failure = RicSubscriptionFailure(
            request=record.request, ran_function_id=142, cause=Cause.ric_request(1)
        )
        manager.fail(failure)
        assert len(manager) == 0
        assert seen == [failure]

    def test_indication_routing(self):
        manager = SubscriptionManager()
        seen = []
        record = manager.create(1, 142, SubscriptionCallbacks(on_indication=seen.append))
        event = FakeEvent(*record.request.as_tuple())
        assert manager.deliver_indication(event) is record
        assert record.indications_seen == 1
        assert seen == [event]

    def test_unroutable_indication(self):
        manager = SubscriptionManager()
        assert manager.deliver_indication(FakeEvent(5, 5)) is None

    def test_deleted_invokes_callback_and_removes(self):
        manager = SubscriptionManager()
        seen = []
        record = manager.create(1, 142, SubscriptionCallbacks(on_deleted=seen.append))
        response = RicSubscriptionDeleteResponse(request=record.request, ran_function_id=142)
        manager.deleted(response)
        assert len(manager) == 0
        assert seen == [response]

    def test_drop_conn_purges_only_that_conn(self):
        manager = SubscriptionManager()
        manager.create(1, 142, SubscriptionCallbacks())
        manager.create(1, 143, SubscriptionCallbacks())
        manager.create(2, 142, SubscriptionCallbacks())
        assert manager.drop_conn(1) == 2
        assert len(manager) == 1
        assert manager.records_for_conn(2)

    def test_lookup_is_exact(self):
        manager = SubscriptionManager()
        record = manager.create(1, 142, SubscriptionCallbacks())
        requestor, instance = record.request.as_tuple()
        assert manager.lookup(requestor, instance) is record
        assert manager.lookup(requestor, instance + 1) is None


class TestEventBus:
    def test_publish_to_subscriber(self):
        bus = EventBus()
        seen = []
        bus.subscribe("topic", seen.append)
        assert bus.publish("topic", 42) == 1
        assert seen == [42]

    def test_publish_without_subscribers(self):
        assert EventBus().publish("nobody", None) == 0

    def test_multiple_handlers_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe("t", lambda p: seen.append("a"))
        bus.subscribe("t", lambda p: seen.append("b"))
        bus.publish("t", None)
        assert seen == ["a", "b"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe("t", seen.append)
        unsubscribe()
        bus.publish("t", 1)
        assert seen == []
        unsubscribe()  # idempotent

    def test_handler_count(self):
        bus = EventBus()
        bus.subscribe("t", lambda p: None)
        assert bus.handler_count("t") == 1
        assert bus.handler_count("other") == 0

    def test_handler_exception_propagates(self):
        bus = EventBus()

        def boom(payload):
            raise RuntimeError("handler bug")

        bus.subscribe("t", boom)
        with pytest.raises(RuntimeError):
            bus.publish("t", None)
