"""The subscription manager's indexes against the scan they replaced.

``SubscriptionManager`` answers ``find_shared`` from a share-key index,
node loss from a per-connection index, and routes indications straight
from the one ``_records`` table writers mutate in place (DESIGN.md §10,
§15.2).  The seed answered all three from a linear scan plus a copied
snapshot.  This file keeps that scan as a test-local oracle and drives
random lifecycle sequences against it — the slice of ROADMAP item 2
(model-based conformance) that licenses the rewrite: it covers the
submgr alone, not the ``Server`` API, tiers or the wire.

Beside it: the two races the rewrite closes (unlocked iteration,
duplicate wire subscriptions) and the scaling law that was its point.
"""

import gc
import sys
import threading
import time

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.agent import Agent, AgentConfig
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind, RicActionDefinition, RicActionKind
from repro.core.e2ap.messages import (
    RicSubscriptionDeleteResponse,
    RicSubscriptionFailure,
    RicSubscriptionResponse,
)
from repro.core.e2ap.procedures import Cause
from repro.core.overload import OverloadConfig
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
from repro.core.server.submgr import SinkHandle, SubscriptionManager
from repro.core.transport import InProcTransport
from repro.metrics.counters import counter_values
from repro.sm.hw import HwRanFunction, INFO as HW

REPORT = [RicActionDefinition(1, RicActionKind.REPORT)]
INSERT = REPORT + [RicActionDefinition(2, RicActionKind.INSERT)]

# Few values per dimension, skewed to one: share keys must collide, on
# one connection and (after adopt) across them.
CONNS = st.sampled_from([1, 2, 3])
FUNCTIONS = st.sampled_from([5, 5, 5, 6])
TRIGGERS = st.sampled_from([b"", b"", b"", b"t"])
ACTIONS = st.sampled_from([REPORT, REPORT, REPORT, None, INSERT])
REQUESTORS = st.sampled_from([None, None, None, 7])
PICK = st.integers(min_value=0, max_value=10**6)


def scan_find_shared(manager, conn_id, ran_function_id, event_trigger, actions, requestor_id):
    """The seed's ``find_shared``: first match in table (= creation) order."""
    trigger = bytes(event_trigger)
    wanted_actions = list(actions or ())
    wanted_requestor = manager.requestor_id if requestor_id is None else requestor_id
    for record in manager._records.values():
        if (
            not record.parked
            and record.conn_id == conn_id
            and record.ran_function_id == ran_function_id
            and record.request.requestor_id == wanted_requestor
            and record.event_trigger == trigger
            and record.actions == wanted_actions
        ):
            return record
    return None


def query_of(record):
    """The ``find_shared`` arguments that describe ``record``."""
    return (
        record.conn_id,
        record.ran_function_id,
        record.event_trigger,
        tuple(record.actions),
        record.request.requestor_id,
    )


def _instance(record):
    return record.request.instance_id


class SubmgrMachine(RuleBasedStateMachine):
    """create / confirm / fail / remove / deleted / attach / detach /
    park / adopt / drop / terminal_fail over three connections whose
    share keys collide, checked against the scan after every step."""

    def __init__(self):
        super().__init__()
        self.manager = SubscriptionManager()
        #: request key -> record, as the test believes the table to be.
        self.live = {}
        self.handles = []
        #: what ``park_conn`` returned, kept as the server keeps it: by
        #: the time it is adopted some of it may have been purged.
        self.parked = {}
        self.queries = set()

    def _pick(self, pick, predicate=lambda record: True):
        records = [record for record in self.live.values() if predicate(record)]
        return records[pick % len(records)] if records else None

    def _forget(self, record):
        self.live.pop(record.request.as_tuple(), None)

    @rule(
        conn=CONNS, fn=FUNCTIONS, trigger=TRIGGERS, actions=ACTIONS, requestor=REQUESTORS,
        share=st.booleans(),
    )
    def create(self, conn, fn, trigger, actions, requestor, share):
        self.queries.add((conn, fn, trigger, tuple(actions or ()), requestor))
        expected = scan_find_shared(self.manager, conn, fn, trigger, actions, requestor)
        made = self.manager.create(
            conn, fn, SubscriptionCallbacks(), actions, requestor, trigger, share=share
        )
        if share and expected is not None:
            assert isinstance(made, SinkHandle) and made.record is expected
            self.handles.append(made)
        else:
            assert not isinstance(made, SinkHandle)
            assert made.request.as_tuple() not in self.live
            self.live[made.request.as_tuple()] = made

    @precondition(lambda self: self.live)
    @rule(pick=PICK)
    def confirm(self, pick):
        record = self._pick(pick)
        response = RicSubscriptionResponse(request=record.request, ran_function_id=5)
        assert self.manager.confirm(response) is record
        assert record.confirmed

    @precondition(lambda self: self.live)
    @rule(pick=PICK, how=st.sampled_from(["fail", "remove", "deleted"]))
    def retire(self, pick, how):
        record = self._pick(pick)
        if how == "fail":
            gone = self.manager.fail(
                RicSubscriptionFailure(record.request, 5, Cause.ric_request(Cause.UNSPECIFIED))
            )
        elif how == "remove":
            gone = self.manager.remove(record.request)
        else:
            gone = self.manager.deleted(RicSubscriptionDeleteResponse(record.request, 5))
        assert gone is record
        self._forget(record)

    @precondition(lambda self: self.live)
    @rule(pick=PICK)
    def attach(self, pick):
        record = self._pick(pick)
        self.handles.append(self.manager.attach_sink(record, SubscriptionCallbacks()))

    @precondition(lambda self: self.handles)
    @rule(pick=PICK)
    def detach_handle(self, pick):
        handle = self.handles.pop(pick % len(self.handles))
        if not self.manager.detach_sink(handle):
            # The handle had been promoted to primary and was the last
            # subscriber: the caller owns the wire delete.
            self.manager.remove(handle.record.request)
            self._forget(handle.record)

    @precondition(lambda self: self.live)
    @rule(pick=PICK)
    def detach_primary(self, pick):
        record = self._pick(pick)
        if not self.manager.detach_sink(record):
            self.manager.remove(record.request)
            self._forget(record)

    @rule(conn=CONNS)
    def park_conn(self, conn):
        expected = [r for r in self.live.values() if r.conn_id == conn and not r.parked]
        parked = self.manager.park_conn(conn)
        assert sorted(map(id, parked)) == sorted(map(id, expected))
        assert all(r.parked and not r.confirmed for r in parked)
        self.parked.setdefault(conn, []).extend(parked)

    @precondition(lambda self: self.parked)
    @rule(pick=PICK, new_conn=CONNS)
    def adopt(self, pick, new_conn):
        old_conn = sorted(self.parked)[pick % len(self.parked)]
        records = self.parked.pop(old_conn)
        self.manager.adopt(records, new_conn)
        for record in records:
            if record.request.as_tuple() not in self.live:
                continue  # purged while parked: stays gone
            assert record.conn_id == new_conn and not record.parked
            # A new subscriber shares under the *new* connection id —
            # the adopted record, or an earlier one it now collides with.
            conn, fn, trigger, actions, requestor = query_of(record)
            self.queries.add((conn, fn, trigger, actions, requestor))
            expected = scan_find_shared(self.manager, conn, fn, trigger, actions, requestor)
            handle = self.manager.create(
                conn, fn, SubscriptionCallbacks(), list(actions), requestor, trigger, share=True
            )
            assert isinstance(handle, SinkHandle)
            assert handle.record is expected and expected.conn_id == new_conn
            assert _instance(expected) <= _instance(record)
            self.handles.append(handle)

    @rule(conn=CONNS)
    def drop_conn(self, conn):
        doomed = [r for r in self.live.values() if r.conn_id == conn]
        assert self.manager.drop_conn(conn) == len(doomed)
        for record in doomed:
            self._forget(record)

    @precondition(lambda self: any(r.parked for r in self.live.values()))
    @rule(pick=PICK)
    def terminal_fail(self, pick):
        record = self._pick(pick, lambda r: r.parked)
        self.manager.terminal_fail(
            record, RicSubscriptionFailure(record.request, 5, Cause.ric_request(Cause.UNSPECIFIED))
        )
        self._forget(record)

    @invariant()
    def indexes_agree_with_the_scan(self):
        manager = self.manager
        # The routing table is the record table, and it is what we think.
        assert manager._records == self.live
        assert len(manager) == len(self.live)
        for key, record in self.live.items():
            assert manager.lookup(*key) is record
        # find_shared ≡ the scan, for every key ever asked about.
        for conn, fn, trigger, actions, requestor in self.queries:
            assert manager.find_shared(conn, fn, trigger, list(actions), requestor) is (
                scan_find_shared(manager, conn, fn, trigger, list(actions), requestor)
            )
        # Share index: exactly the live non-parked records, one entry
        # per distinct key, each entry in creation order.
        shareable = [r for r in self.live.values() if not r.parked]
        indexed = [r for peers in manager._by_share.values() for r in peers]
        assert sorted(map(id, indexed)) == sorted(map(id, shareable))
        assert len(manager._by_share) == len({query_of(r) for r in shareable})
        for peers in manager._by_share.values():
            assert peers and len({query_of(r) for r in peers}) == 1
            assert list(peers) == sorted(peers, key=_instance)
        # Per-connection index: a partition of the table, no empty part.
        assert all(manager._by_conn.values())
        parts = [(conn, key) for conn, part in manager._by_conn.items() for key in part]
        assert sorted(parts) == sorted((r.conn_id, key) for key, r in self.live.items())
        for conn in (1, 2, 3):
            expected = [r for r in self.live.values() if r.conn_id == conn]
            assert sorted(map(id, manager.records_for_conn(conn))) == sorted(map(id, expected))
        assert manager.parked_count == len(manager.parked_records())
        assert len(manager) - manager.parked_count == len(manager.active_records())


TestSubmgrAgainstScan = SubmgrMachine.TestCase
TestSubmgrAgainstScan.settings = settings(
    max_examples=200, stateful_step_count=50, deadline=None
)


def test_adopt_rekeys_under_the_new_connection_in_creation_order():
    """The one sequence the machine above reaches only now and then: an
    adopted record lands on a connection that already holds a *newer*
    record with an equal key, and must outrank it as it did in the scan."""
    manager = SubscriptionManager()
    callbacks = SubscriptionCallbacks()
    older = manager.create(1, 5, callbacks, REPORT)
    assert manager.park_conn(1) == [older]
    assert manager.find_shared(1, 5, b"", REPORT, None) is None  # parked: left the index
    newer = manager.create(2, 5, callbacks, REPORT)
    manager.adopt([older], 2)
    assert manager.find_shared(1, 5, b"", REPORT, None) is None
    assert manager.find_shared(2, 5, b"", REPORT, None) is older
    assert manager.create(2, 5, callbacks, REPORT, share=True).record is older
    manager.remove(older.request)
    assert manager.find_shared(2, 5, b"", REPORT, None) is newer


# -- the races the single locked step closes ---------------------------


@pytest.fixture
def fast_switching():
    """Force thread switches every few bytecodes so races actually race."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_accessors_survive_concurrent_churn(fast_switching):
    """``records_for_conn``/``active_records``/``parked_records`` used to
    iterate ``_records`` unlocked while other threads inserted and popped
    (an iApp thread subscribing, the 250 ms stats push, node loss):
    ``RuntimeError: dictionary changed size during iteration``."""
    manager = SubscriptionManager()
    callbacks = SubscriptionCallbacks()
    for index in range(200):
        manager.create(1, 5, callbacks, event_trigger=index.to_bytes(2, "big"))
    deadline = time.monotonic() + 1.0
    errors = []

    def churn():
        try:
            while time.monotonic() < deadline:
                records = [manager.create(1, 5, callbacks, event_trigger=b"x") for _ in range(20)]
                for record in records:
                    manager.remove(record.request)
        except Exception as exc:  # pragma: no cover - the failure being tested
            errors.append(exc)

    def read():
        try:
            while time.monotonic() < deadline:
                assert len(manager.records_for_conn(1)) >= 200
                assert len(manager.active_records()) >= 200
                assert manager.parked_records() == []
        except Exception as exc:  # pragma: no cover - the failure being tested
            errors.append(exc)

    threads = [threading.Thread(target=churn), threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(manager) == 200 and manager.parked_count == 0


def _wire_hw(nodes=1, config=None):
    """Inline inproc server with ``nodes`` HW-SM agents; returns conn ids too."""
    transport = InProcTransport()
    server = Server(config or ServerConfig())
    server.listen(transport, "ric")
    for nb_id in range(1, nodes + 1):
        node_id = GlobalE2NodeId(plmn="00101", nb_id=nb_id, kind=NodeKind.GNB)
        agent = Agent(AgentConfig(node_id=node_id), transport)
        agent.register_function(HwRanFunction())
        agent.connect("ric")
    return transport, server, [record.conn_id for record in server.agents()]


def test_concurrent_equal_subscribes_put_one_request_on_the_wire(fast_switching):
    """``find_shared`` then ``create`` used to be two critical sections:
    iApps on different threads subscribing the same (node, SM, trigger,
    actions) at once could all miss and all go to the wire."""
    subscribers = 8
    transport, server, (conn,) = _wire_hw()
    barrier = threading.Barrier(subscribers)
    confirms = [[] for _ in range(subscribers)]
    results = [None] * subscribers
    before = counter_values()

    def subscribe(slot):
        barrier.wait(timeout=10.0)
        results[slot] = server.subscribe(
            conn, HW.default_function_id, b"same", REPORT,
            SubscriptionCallbacks(on_success=confirms[slot].append),
        )

    threads = [threading.Thread(target=subscribe, args=(slot,)) for slot in range(subscribers)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        after = counter_values()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        # One RicSubscriptionRequest out, one RicSubscriptionResponse back.
        assert delta("e2ap.encode.messages") == 2
        assert delta("server.subscription.shared") == subscribers - 1
        assert len(server.submgr) == 1
        assert sum(isinstance(result, SinkHandle) for result in results) == subscribers - 1
        assert len({result.request for result in results}) == 1
        assert [len(seen) for seen in confirms] == [1] * subscribers
    finally:
        transport.stop()
        server.close()


# -- each subscriber unsubscribes once ------------------------------------


def _wire_traffic(before):
    """E2AP messages encoded since ``before`` (both sides of the inproc wire)."""
    return counter_values().get("e2ap.encode.messages", 0) - before.get("e2ap.encode.messages", 0)


def test_a_repeated_unsubscribe_leaves_the_promoted_subscriber_alone():
    """A creates, B attaches, A unsubscribes (B is promoted), A unsubscribes
    again: the repeat used to find no extra sink left and send the wire
    delete from under B."""
    transport = InProcTransport()
    server = Server(ServerConfig())
    server.listen(transport, "ric")
    agent = Agent(AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), transport)
    function = HwRanFunction()
    agent.register_function(function)
    agent.connect("ric")
    (conn,) = [record.conn_id for record in server.agents()]
    try:
        a_deleted, b_deleted = [], []
        a = server.subscribe(
            conn, HW.default_function_id, b"shared", REPORT,
            SubscriptionCallbacks(on_deleted=a_deleted.append),
        )
        b = server.subscribe(
            conn, HW.default_function_id, b"shared", REPORT,
            SubscriptionCallbacks(on_deleted=b_deleted.append),
        )
        assert isinstance(b, SinkHandle) and b.record is a
        before = counter_values()
        server.unsubscribe(a)
        server.unsubscribe(a)
        assert _wire_traffic(before) == 0
        assert server.submgr.lookup(*a.request.as_tuple()) is a
        assert len(function.subscriptions) == 1 and b_deleted == []
        server.unsubscribe(b)  # the last subscriber: now the wire delete goes out
        assert _wire_traffic(before) == 2
        assert len(server.submgr) == 0 and not function.subscriptions
        assert len(b_deleted) == 1 and a_deleted == []
        server.unsubscribe(b)
        server.unsubscribe(a)
        assert _wire_traffic(before) == 2
    finally:
        transport.stop()
        server.close()


def test_unsubscribing_a_refused_subscription_sends_nothing():
    """A request admission refused never reached the wire; unsubscribing
    it used to send a delete for a request id the agent never saw."""
    config = ServerConfig(overload=OverloadConfig(max_pending_subscriptions=0))
    transport, server, (conn,) = _wire_hw(config=config)
    try:
        failures = []
        record = server.subscribe(
            conn, HW.default_function_id, b"refused", REPORT,
            SubscriptionCallbacks(on_failure=failures.append),
        )
        assert len(failures) == 1 and len(server.submgr) == 0
        before = counter_values()
        server.unsubscribe(record)
        assert _wire_traffic(before) == 0
    finally:
        transport.stop()
        server.close()


# -- the scaling law -----------------------------------------------------


def _best_cycle_time(server, conns, cycles=500, repeats=5):
    """Best-of-``repeats`` CPU seconds for ``cycles`` wire subscribe →
    confirm → unsubscribe → deleted cycles, spread over ``conns``."""
    deleted = []
    callbacks = SubscriptionCallbacks(on_deleted=deleted.append)
    best = float("inf")
    for repeat in range(repeats):
        started = time.process_time()
        for cycle in range(cycles):
            trigger = b"fresh" + (repeat * cycles + cycle).to_bytes(4, "big")
            record = server.subscribe(
                conns[cycle % len(conns)], HW.default_function_id, trigger, REPORT, callbacks
            )
            assert record.confirmed and not isinstance(record, SinkHandle)
            server.unsubscribe(record)
        best = min(best, time.process_time() - started)
    assert len(deleted) == cycles * repeats
    return best


def _build_standing(server, conns, start, stop):
    """CPU seconds to add standing subscriptions ``start..stop`` on each of ``conns``."""
    callbacks = SubscriptionCallbacks()
    started = time.process_time()
    for conn in conns:
        for index in range(start, stop):
            trigger = b"standing" + index.to_bytes(4, "big")
            server.subscribe(conn, HW.default_function_id, trigger, REPORT, callbacks)
    return time.process_time() - started


def test_subscription_writes_do_not_scale_with_the_standing_population():
    """A subscribe/unsubscribe cycle costs the same beside 20 standing
    subscriptions as beside 8 000 (seed: ≈11-13× — a table copy per
    write and a scan per subscribe), and building the population is
    linear (seed: quadratic).  ``sub_churn --standing`` would be the e2e row;
    the harness could not grow the flag in the PR that made this true."""
    # Timed in process CPU time (the transport is inline, so that is all
    # the work), with the heap earlier tests leave behind frozen: else
    # one full collection over it, landing in the 8 000 build and not
    # the 800, reads as superlinear set-up.
    gc.collect()
    gc.freeze()
    small_transport, small, small_conns = _wire_hw(nodes=2)
    large_transport, large, large_conns = _wire_hw(nodes=2)
    try:
        _build_standing(small, small_conns, 0, 10)
        build_800 = _build_standing(large, large_conns, 0, 400)
        build_8000 = build_800 + _build_standing(large, large_conns, 400, 4000)
        assert len(small.submgr) == 20 and len(large.submgr) == 8000
        cycle_small = _best_cycle_time(small, small_conns)
        cycle_large = _best_cycle_time(large, large_conns)
        assert len(small.submgr) == 20 and len(large.submgr) == 8000
    finally:
        small_transport.stop()
        large_transport.stop()
        small.close()
        large.close()
        gc.unfreeze()
    assert cycle_large / cycle_small <= 2.0, (cycle_small, cycle_large)
    # Linear is 10x, measured 7.5-8.5x (the first 800 pay the warm-up);
    # the seed's quadratic set-up measures 53x.
    assert build_8000 < 20 * build_800, (build_800, build_8000)
