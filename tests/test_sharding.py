"""Ingest loops: ordering, routing tables, fd hygiene, worker processes.

Covers the one-loop TCP transport's drain, the lock-free routing
tables under churn, ``MultiProcServer`` and the satellite fixes
(socketpair fd leak on ``stop()``, bounded connect timeout).  The
churn tests honour ``CHAOS_SEED`` like the resilience suite so CI can
sweep schedules.
"""

import os
import socket
import sys
import threading
import time

import pytest

from repro.core.agent import Agent, AgentConfig
from repro.core.codec import get_codec
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RanFunctionItem,
    RicActionAdmitted,
    RicActionDefinition,
    RicActionKind,
)
from repro.core.e2ap.messages import (
    E2SetupRequest,
    E2SetupResponse,
    RicIndication,
    RicServiceUpdate,
    RicServiceUpdateAcknowledge,
    RicSubscriptionDeleteRequest,
    RicSubscriptionDeleteResponse,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
    decode_message,
    encode_message,
)
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
from repro.core.server import events as topics
from repro.core.server.submgr import SubscriptionManager
from repro.core.server.workers import (
    MultiProcServer,
    SubscriptionPolicy,
    _PolicyManager,
)
from repro.core.transport import tcp as tcp_mod
from repro.core.transport.framing import frame_messages
from repro.core.transport import (
    ConnectTimeout,
    InProcTransport,
    TcpTransport,
    TransportEvents,
)
from repro.metrics.counters import (
    counter_values,
    gauge_values,
    get_counter,
    reset_all,
)
from repro.sm.hw import HwRanFunction, INFO as HW
from repro.sm.mac_stats import MacStatsFunction, synthetic_provider, INFO as MAC
from repro.sm.base import PeriodicTrigger

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def make_node(nb_id=1):
    return GlobalE2NodeId(plmn="00101", nb_id=nb_id, kind=NodeKind.GNB)


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _step_until(transport, predicate, timeout=5.0):
    """Drive an inline (not started) transport until ``predicate`` holds."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        transport.step(0.01)
    return predicate()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


# -- the drain's receive cost ------------------------------------


class TestShardBalance:
    def test_one_small_frame_per_wakeup_costs_one_recv(self):
        """The drain leaves on a short read: no trailing EAGAIN recv."""

        class CountingSocket:
            def __init__(self, sock):
                self._sock = sock
                self.recvs = 0

            def recv_into(self, window):
                self.recvs += 1
                return self._sock.recv_into(window)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        transport = TcpTransport()
        accepted, got = [], []
        try:
            listener = transport.listen(
                "127.0.0.1:0",
                TransportEvents(
                    on_connected=accepted.append,
                    on_messages=lambda e, batch: got.extend(batch),
                ),
            )
            client = transport.connect(listener.address, TransportEvents())
            assert _step_until(transport, lambda: accepted)
            proxy = accepted[0]._sock = CountingSocket(accepted[0]._sock)
            for index in range(5):
                client.send(b"ping%d" % index)
                assert _step_until(transport, lambda: len(got) > index)
            assert got == [b"ping%d" % index for index in range(5)]
            assert proxy.recvs == 5
        finally:
            transport.stop()


# -- per-connection ordering -----------------------------------------


class TestOrdering:
    def test_tcp_batched_ordering(self):
        transport = TcpTransport()
        got = []
        batches = []

        def on_messages(endpoint, batch):
            batches.append(len(batch))
            got.extend(batch)

        try:
            listener = transport.listen(
                "127.0.0.1:0", TransportEvents(on_messages=on_messages)
            )
            transport.start()
            client = transport.connect(
                f"127.0.0.1:{listener.port}", TransportEvents()
            )
            client.send_many([b"m%04d" % index for index in range(500)])
            assert _wait(lambda: len(got) == 500)
            assert got == [b"m%04d" % index for index in range(500)]
            # The drain actually coalesced: fewer callbacks than frames.
            assert len(batches) < 500
        finally:
            transport.stop()

    def test_first_frame_never_precedes_on_connected(self):
        """An accepted connection is announced before the loop can read
        it, however slow ``on_connected`` is and although the peer's
        first frame is already in the socket."""
        for _ in range(10):
            transport = TcpTransport()
            known, early, got = set(), [], []

            def on_connected(endpoint):
                time.sleep(0.001)
                known.add(id(endpoint))

            def on_messages(endpoint, batch):
                (got if id(endpoint) in known else early).extend(batch)

            try:
                listener = transport.listen(
                    "127.0.0.1:0",
                    TransportEvents(on_connected=on_connected, on_messages=on_messages),
                )
                transport.start()
                transport.connect(listener.address, TransportEvents()).send(b"setup")
                assert _wait(lambda: got or early)
                assert not early
            finally:
                transport.stop()

    @pytest.mark.parametrize(
        "tail, code",
        [(b"", "eof"), (b"\xff\xff\xff\xff", "protocol")],
        ids=["eof", "framing-error"],
    )
    def test_tcp_frames_precede_the_terminal_event(self, tail, code):
        """Frames completed before an EOF / a corrupt length prefix are
        delivered first, also when one drain finds both."""
        # 64 B reads: the 128 B of frames fill two whole reads and the
        # terminal condition is met by the third, inside the same drain.
        self._frames_then_terminal(tail, code, recv_size=64)

    @pytest.mark.parametrize(
        "tail, code",
        [(b"", "eof"), (b"\xff\xff\xff\xff", "protocol")],
        ids=["eof", "framing-error"],
    )
    def test_tcp_frames_precede_the_terminal_event_in_one_chunk(self, tail, code):
        """The same promise at the default ``RECV_SIZE``: the frames and
        the corrupt prefix arrive in *one* read, so ``Framer.feed`` meets
        the violation with eight completed frames in hand (it used to
        unwind past them and the receiver saw ``protocol`` alone)."""
        self._frames_then_terminal(tail, code, recv_size=None)

    @staticmethod
    def _frames_then_terminal(tail, code, recv_size):
        transport = TcpTransport()
        if recv_size is not None:
            transport.RECV_SIZE = recv_size
        accepted, log = [], []
        try:
            listener = transport.listen(
                "127.0.0.1:0",
                TransportEvents(
                    on_connected=accepted.append,
                    on_messages=lambda e, batch: log.append(list(batch)),
                    on_disconnected=lambda e, reason: log.append(reason.code),
                ),
            )
            frames = [b"frame-%06d" % index for index in range(8)]
            raw = socket.create_connection(("127.0.0.1", listener.port))
            assert _step_until(transport, lambda: accepted)
            raw.sendall(frame_messages(frames) + tail)
            raw.close()
            time.sleep(0.05)  # everything is in the socket before the first read
            assert _step_until(transport, lambda: code in log)
            assert log == [frames, code]
        finally:
            transport.stop()


# -- routing table consistency under churn ---------------------------


class TestSnapshotChurn:
    @pytest.mark.parametrize("seed", [CHAOS_SEED, CHAOS_SEED + 1])
    def test_submgr_table_consistent_under_churn(self, seed):
        import random

        rng = random.Random(seed)
        submgr = SubscriptionManager()
        stop = threading.Event()
        errors = []
        live = []
        live_lock = threading.Lock()

        def mutator():
            try:
                for _ in range(400):
                    if rng.random() < 0.6 or not live:
                        record = submgr.create(
                            conn_id=1, ran_function_id=1,
                            callbacks=SubscriptionCallbacks(),
                        )
                        with live_lock:
                            live.append(record)
                    else:
                        with live_lock:
                            record = live.pop(rng.randrange(len(live)))
                        submgr.remove(record.request)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    with live_lock:
                        record = live[-1] if live else None
                    if record is not None:
                        # A lookup may miss a *removed* record but must
                        # never crash or return a foreign record.
                        found = submgr.lookup(
                            record.request.requestor_id,
                            record.request.instance_id,
                        )
                        if found is not None:
                            assert found.request == record.request
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=mutator)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        # Quiescent: the routing table and the per-connection index
        # hold exactly the records that were created and not removed.
        assert set(submgr._records) == {r.request.as_tuple() for r in live}
        assert submgr._by_conn == ({1: submgr._records} if live else {})

    def test_server_routes_rebuilt_on_connect_and_disconnect(self):
        transport = InProcTransport()
        server = Server(ServerConfig())
        server.listen(transport, "ric")
        agent = Agent(AgentConfig(node_id=make_node()), transport)
        agent.register_function(HwRanFunction())
        origin = agent.connect("ric")
        (state,) = server._conns.values()
        assert server._by_endpoint == {id(state.endpoint): state}
        agent.disconnect(origin)
        assert server._conns == {}
        assert server._by_endpoint == {}


class TestSingleWriterTables:
    """The connection tables are written in place under ``_slow_lock``
    and read with one bare ``get``.  Under ``REPRO_ANALYSIS=1`` the
    conftest guard also fails the run on any lock-order inversion."""

    CHURNERS = 2
    AGENTS_PER_CHURNER = 100

    def test_tcp_connect_churn_beside_a_routing_node(self):
        """Two threads connect and disconnect 200 agents while a steady
        node's indications keep routing and, because
        ``keepalive_interval_s`` is set, the RIC loop's liveness pass
        walks the tables every tick."""
        ric, ran = TcpTransport(), TcpTransport()
        server = Server(ServerConfig(keepalive_interval_s=0.002, keepalive_misses=10**6))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # many more thread switches per write
        errors, connected, lost = [], [], []
        server.events.subscribe(topics.AGENT_CONNECTED, connected.append)
        server.events.subscribe(topics.AGENT_DISCONNECTED, lost.append)
        before = counter_values()
        try:
            listener = server.listen(ric, "127.0.0.1:0")
            ric.start()
            ran.start()
            steady = Agent(AgentConfig(node_id=make_node(1)), ran)
            function = MacStatsFunction(provider=synthetic_provider(2), sm_codec="fb")
            steady.register_function(function)
            steady.connect(listener.address)
            (steady_conn,) = server._conns
            sequences = []
            record = server.subscribe(
                conn_id=steady_conn,
                ran_function_id=MAC.default_function_id,
                event_trigger=PeriodicTrigger(0.0).to_bytes("fb"),
                actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(
                    on_indication=lambda event: sequences.append(event.sequence)
                ),
            )
            assert _wait(lambda: record.confirmed)

            def churn(index):
                try:
                    for n in range(self.AGENTS_PER_CHURNER):
                        nb_id = 2 + index * self.AGENTS_PER_CHURNER + n
                        agent = Agent(AgentConfig(node_id=make_node(nb_id)), ran)
                        agent.register_function(HwRanFunction())
                        agent.disconnect(agent.connect(listener.address))
                except Exception as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=churn, args=(index,)) for index in range(self.CHURNERS)
            ]
            for thread in threads:
                thread.start()
            pumped = 0
            deadline = time.monotonic() + 60.0
            while any(thread.is_alive() for thread in threads) and time.monotonic() < deadline:
                function.pump()
                pumped += 1
                time.sleep(0.001)
            for thread in threads:
                thread.join(timeout=5.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            churned = self.CHURNERS * self.AGENTS_PER_CHURNER
            # The server answers the setup before it publishes
            # AGENT_CONNECTED, so the last connect can return first.
            assert _wait(lambda: len(connected) == 1 + churned, timeout=10.0)
            assert _wait(lambda: len(lost) == churned, timeout=10.0)
            assert pumped > 0
            assert _wait(lambda: len(sequences) == pumped, timeout=10.0)
            assert sequences == list(range(sequences[0], sequences[0] + pumped))
            # Quiescent: both tables agree and hold the steady node only.
            assert _wait(lambda: len(server._conns) == 1, timeout=10.0)
            (state,) = server._conns.values()
            assert state.conn_id == steady_conn
            assert server._by_endpoint == {id(state.endpoint): state}
            assert [agent.conn_id for agent in server.agents()] == [steady_conn]
            after = counter_values()
            for name in ("server.liveness.errors", "server.iapp.callback_error"):
                assert after.get(name, 0) == before.get(name, 0), name
        finally:
            sys.setswitchinterval(switch)
            ran.stop()
            ric.stop()
            server.close()


# -- satellite fixes: fd hygiene, stop idempotence, connect timeout --


class TestLifecycleHygiene:
    def test_stop_releases_wake_socketpair_fds(self):
        # Warm up any lazily-created fds (selectors, counters).
        warmup = TcpTransport()
        warmup.listen("127.0.0.1:0", TransportEvents())
        warmup.start()
        warmup.stop()
        before = _open_fds()
        for _ in range(5):
            transport = TcpTransport()
            transport.listen("127.0.0.1:0", TransportEvents())
            transport.start()
            transport.stop()
        assert _open_fds() <= before

    def test_stop_is_idempotent(self):
        transport = TcpTransport()
        transport.listen("127.0.0.1:0", TransportEvents())
        transport.start()
        transport.stop()
        transport.stop()  # second call must be a no-op, not an error
        inproc = InProcTransport()
        inproc.stop()
        inproc.stop()

    def test_connect_timeout_raises_typed_error(self, monkeypatch):
        def slow_connect(self, addr):
            raise socket.timeout("timed out")

        monkeypatch.setattr(socket.socket, "connect", slow_connect)
        transport = TcpTransport(connect_timeout_s=0.05)
        before = counter_values().get("tcp.connect.timeout", 0)
        try:
            with pytest.raises(ConnectTimeout) as excinfo:
                transport.connect("127.0.0.1:9", TransportEvents())
            assert isinstance(excinfo.value, ConnectionError)
            assert counter_values()["tcp.connect.timeout"] == before + 1
        finally:
            transport.stop()


# -- runtime analysis integration (REPRO_ANALYSIS=1) -----------------


class TestAnalysisIntegration:
    """Live-server check for the CI race-detect job: with the
    instrumentation installed, the server's locks feed the global
    lock-order graph (the autouse conftest guard fails any test that
    records an inversion)."""

    pytestmark = pytest.mark.skipif(
        os.environ.get("REPRO_ANALYSIS", "") not in ("1", "true", "yes"),
        reason="requires REPRO_ANALYSIS=1 instrumentation",
    )

    def test_server_locks_are_tracked(self):
        from repro.analysis.locks import TrackedRLock

        server = Server(ServerConfig())
        try:
            # One lock orders every connection-state write.
            assert not hasattr(server, "_lock")
            assert isinstance(server._slow_lock, TrackedRLock)
            assert isinstance(server.submgr._lock, TrackedRLock)
        finally:
            server.close()


# -- multiprocess ingest tier (DESIGN.md §14) ------------------------


WORKER_FN = 1


class TcpMiniAgent:
    """Raw-wire E2 node for multiprocess tests.

    Answers the setup handshake, admits policy-driven subscription
    requests and confirms their deletion, recording the RIC request id
    so the test can blast pre-encoded indications at whichever worker
    owns the connection.  ``with_worker_fn=False`` sets up without
    ``WORKER_FN``; :meth:`add_worker_fn` adds it at runtime.
    """

    def __init__(
        self, transport, address: str, nb_id: int, with_worker_fn: bool = True
    ) -> None:
        self.codec = get_codec("fb")
        self.ready = threading.Event()
        self.subscribed = threading.Event()
        self.deleted = threading.Event()
        self.updated = threading.Event()
        self.sub_request = None
        self.endpoint = transport.connect(
            address, TransportEvents(on_message=self._on_message)
        )
        setup = E2SetupRequest(
            node_id=make_node(nb_id),
            ran_functions=[_worker_fn_item()] if with_worker_fn else [],
        )
        self.endpoint.send(encode_message(setup, self.codec))

    def add_worker_fn(self) -> None:
        update = RicServiceUpdate(added=[_worker_fn_item()])
        self.endpoint.send(encode_message(update, self.codec))

    def _on_message(self, endpoint, data: bytes) -> None:
        message = decode_message(data, self.codec)
        if isinstance(message, E2SetupResponse):
            self.ready.set()
        elif isinstance(message, RicServiceUpdateAcknowledge):
            self.updated.set()
        elif isinstance(message, RicSubscriptionDeleteRequest):
            endpoint.send(
                encode_message(
                    RicSubscriptionDeleteResponse(
                        request=message.request,
                        ran_function_id=message.ran_function_id,
                    ),
                    self.codec,
                )
            )
            self.deleted.set()
        elif isinstance(message, RicSubscriptionRequest):
            self.sub_request = message.request
            endpoint.send(
                encode_message(
                    RicSubscriptionResponse(
                        request=message.request,
                        ran_function_id=message.ran_function_id,
                        admitted=[
                            RicActionAdmitted(action.action_id)
                            for action in message.actions
                        ],
                    ),
                    self.codec,
                )
            )
            self.subscribed.set()

    def blast(self, count: int, payload: bytes = b"p" * 32) -> None:
        frames = [
            encode_message(
                RicIndication(
                    request=self.sub_request,
                    ran_function_id=WORKER_FN,
                    action_id=1,
                    sequence=sequence,
                    header=b"",
                    payload=payload,
                ),
                self.codec,
            )
            for sequence in range(count)
        ]
        self.endpoint.send_many(frames)


def _worker_fn_item() -> RanFunctionItem:
    return RanFunctionItem(ran_function_id=WORKER_FN, definition=b"mp", oid="mp")


def _worker_policy() -> SubscriptionPolicy:
    return SubscriptionPolicy(
        ran_function_id=WORKER_FN,
        event_trigger=b"t",
        actions=(RicActionDefinition(1, RicActionKind.REPORT),),
    )


def _settled_agents(client, address, count):
    agents = [
        TcpMiniAgent(client, address, nb_id=index + 1) for index in range(count)
    ]
    for agent in agents:
        assert agent.ready.wait(10.0), "E2 setup timed out"
        assert agent.subscribed.wait(10.0), "policy subscription timed out"
    return agents


class TestMultiProcServer:
    def test_workers_ingest_merge_stats_and_stop(self):
        reset_all()
        mp = MultiProcServer(ServerConfig(), workers=2, port=0)
        client = TcpTransport()
        try:
            mp.start()
            client.start()
            mp.subscribe_all(_worker_policy())
            agents = _settled_agents(client, mp.address, 4)
            assert mp.agents_total() == 4
            for agent in agents:
                agent.blast(100)
            assert _wait(lambda: mp.total_indications() >= 400, timeout=15.0)

            merged = mp.merged_counters(refresh=False)
            assert merged.get("server.policy.indications", 0) >= 400
            state = mp.overload_state(refresh=False)
            assert state["workers"] == 2
            snapshot = mp.metrics_snapshot(refresh=False)
            assert snapshot["counters"]["server.policy.indications"] >= 400
            # Parent-side registry: spawn accounting, alive gauges and
            # the pickled policy snapshots the pipes carried.
            assert counter_values().get("server.worker.spawned") == 2
            assert gauge_values().get("server.workers") == 2
            assert counter_values().get("server.policy.pickle_bytes", 0) > 0
        finally:
            client.stop()
            mp.stop()
        # Loud lifecycle: per-worker gauges are discarded at stop and a
        # second stop() is a no-op, not a double-teardown.
        assert "server.workers" not in gauge_values()
        assert "server.worker.0.alive" not in gauge_values()
        mp.stop()

    def test_worker_crash_respawn_republishes_policies(self):
        reset_all()
        mp = MultiProcServer(ServerConfig(), workers=2, port=0)
        client = TcpTransport()
        try:
            mp.start()
            client.start()
            mp.subscribe_all(_worker_policy())
            _settled_agents(client, mp.address, 2)

            mp.kill_worker(0)
            assert _wait(lambda: mp.restarts >= 1, timeout=15.0)
            assert _wait(
                lambda: all(
                    handle.ready.is_set() and handle.process.is_alive()
                    for handle in mp._handles.values()
                ),
                timeout=15.0,
            ), "respawned worker never came up"
            assert counter_values().get("server.worker.restarts") == 1

            # The respawned worker received the policy snapshot: a new
            # agent (landing on either worker) still gets subscribed.
            late = TcpMiniAgent(client, mp.address, nb_id=77)
            assert late.ready.wait(10.0)
            assert late.subscribed.wait(
                10.0
            ), "policy was not republished to the respawned worker"
            late.blast(50)
            assert _wait(lambda: mp.total_indications() >= 50, timeout=15.0)

            # Zero control-class loss across the crash/restart cycle.
            merged = mp.merged_counters()
            for name, value in merged.items():
                if name.startswith("overload.drop.control"):
                    assert value == 0, f"{name}={value}"
        finally:
            client.stop()
            mp.stop()

    def test_unsubscribe_all_deletes_every_worker_subscription(self):
        reset_all()
        mp = MultiProcServer(ServerConfig(), workers=1, port=0)
        client = TcpTransport()
        try:
            mp.start()
            client.start()
            policy = mp.subscribe_all(_worker_policy())
            (agent,) = _settled_agents(client, mp.address, 1)
            agent.blast(100)
            assert _wait(lambda: mp.total_indications() >= 100, timeout=15.0)
            assert mp.stats()[0]["subscriptions"] == 1

            mp.unsubscribe_all(policy.policy_id)
            assert agent.deleted.wait(10.0), "no RicSubscriptionDeleteRequest"
            assert _wait(lambda: mp.stats()[0]["subscriptions"] == 0, timeout=10.0)
            agent.blast(100)
            time.sleep(0.5)
            assert mp.total_indications() == 100
        finally:
            client.stop()
            mp.stop()

    def test_ran_function_added_at_runtime_gets_its_policy(self):
        reset_all()
        mp = MultiProcServer(ServerConfig(), workers=1, port=0)
        client = TcpTransport()
        try:
            mp.start()
            client.start()
            mp.subscribe_all(_worker_policy())
            agent = TcpMiniAgent(client, mp.address, nb_id=1, with_worker_fn=False)
            assert agent.ready.wait(10.0), "E2 setup timed out"
            assert not agent.subscribed.wait(0.3)

            agent.add_worker_fn()
            assert agent.updated.wait(10.0), "no RicServiceUpdateAcknowledge"
            assert agent.subscribed.wait(10.0), "no RicSubscriptionRequest"
            agent.blast(50)
            assert _wait(lambda: mp.total_indications() >= 50, timeout=15.0)
            assert mp.stats()[0]["subscriptions"] == 1
        finally:
            client.stop()
            mp.stop()

    def test_policy_withdrawn_while_node_stale_is_not_adopted(self):
        """The worker-side manager, in process: a policy that leaves the
        snapshot while its node is stale takes the parked record with
        it, so the node's recovery re-issues nothing."""
        server = Server(ServerConfig(stale_grace_s=60.0))
        transport = InProcTransport()
        server.listen(transport, "ric")
        agent = Agent(AgentConfig(node_id=make_node(1)), transport)
        agent.register_function(
            MacStatsFunction(provider=synthetic_provider(2), sm_codec="fb")
        )
        origin = agent.connect("ric")
        manager = _PolicyManager(server)
        manager.set_policies(
            [
                SubscriptionPolicy(
                    ran_function_id=MAC.default_function_id,
                    event_trigger=PeriodicTrigger(1).to_bytes("fb"),
                    actions=(RicActionDefinition(1, RicActionKind.REPORT),),
                    policy_id=1,
                )
            ]
        )
        assert len(server.submgr) == 1
        agent.disconnect(origin)
        assert server.submgr.parked_count == 1

        manager.set_policies([])
        assert len(server.submgr) == 0
        agent.connect("ric")
        assert [r.node_id.nb_id for r in server.agents()] == [1]
        assert len(server.submgr) == 0

    def test_start_without_reuseport_refuses_before_forking(self, monkeypatch):
        reset_all()
        monkeypatch.setattr(tcp_mod, "_HAS_REUSEPORT", False)
        mp = MultiProcServer(ServerConfig(), workers=2, port=0)
        with pytest.raises(RuntimeError, match="SO_REUSEPORT"):
            mp.start()
        assert not mp._handles
        assert counter_values().get("server.worker.spawned", 0) == 0
        assert "server.workers" not in gauge_values()
        with pytest.raises(RuntimeError, match="not started"):
            mp.port  # no port is held
        mp.stop()
        mp.stop()


# -- loud bounded teardown (lifecycle bugfix sweep) ------------------


class TestLoudTeardown:
    def test_stuck_tcp_loop_thread_raises_and_counts(self):
        reset_all()
        transport = TcpTransport()
        blocker = threading.Event()
        entered = threading.Event()

        def wedge(endpoint, data):
            entered.set()
            blocker.wait()

        before = set(threading.enumerate())
        transport.start()
        (loop,) = set(threading.enumerate()) - before
        try:
            listener = transport.listen("127.0.0.1:0", TransportEvents(on_message=wedge))
            transport.connect(listener.address, TransportEvents()).send(b"frame")
            assert entered.wait(5.0), "handler never ran on the loop"
            with pytest.raises(RuntimeError, match="stuck"):
                transport.stop(timeout_s=0.2)
            assert counter_values().get("transport.stop.stuck", 0) == 1
        finally:
            blocker.set()
            loop.join(timeout=5.0)
        assert not loop.is_alive()

    def test_conn_scoped_drop_counter_discarded_on_close(self):
        reset_all()
        transport = InProcTransport()
        try:
            transport.listen("ric", TransportEvents())
            conn = transport.connect("ric", TransportEvents())
            name = f"overload.conn.{conn.conn_label}.drops"
            get_counter(name).incr(3)
            assert counter_values().get(name) == 3
            conn.close()
            # Link death unregisters the per-connection counter so the
            # registry does not grow with connection churn; the class
            # aggregate (overload.drop.*) is the durable record.
            assert name not in counter_values()
        finally:
            transport.stop()
