"""Chaos suite: lifecycle resilience under injected transport faults.

Exercises the full stack — FaultyTransport fault injection, agent
reconnect with backoff + journal replay, server-side stale/park/resync,
grace-window expiry, and keepalive liveness probing — over the
deterministic in-process transport with seeded randomness and virtual
clocks, so every run (and every CI seed) replays bit-identically.

The seed is taken from ``CHAOS_SEED`` (default 0); CI runs the suite
across several seeds.
"""

import os

import pytest

from repro.core.agent import Agent, AgentConfig, LinkState, ManualScheduler, ReconnectPolicy
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RicActionDefinition,
    RicActionKind,
)
from repro.core.server import Server, ServerConfig
from repro.core.server import events as topics
from repro.core.transport import (
    FaultSpec,
    FaultyTransport,
    InProcTransport,
    TransportEvents,
)
from repro.core.transport.framing import Framer, FramingError, frame_message
from repro.controllers.monitoring import StatsMonitorIApp
from repro.sm.hw import HwRanFunction
from repro.sm.mac_stats import MacStatsFunction, synthetic_provider, INFO as MAC

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
#: REPRO_OVERLOAD=1 runs the whole chaos suite with the overload
#: discipline enabled (bounded queues, admission control): every
#: lifecycle guarantee must hold under the shedding/admission layer.
CHAOS_OVERLOAD = os.environ.get("REPRO_OVERLOAD", "") == "1"


def make_node(nb_id=1, kind=NodeKind.GNB):
    return GlobalE2NodeId(plmn="00101", nb_id=nb_id, kind=kind)


class FakeClock:
    """Injectable monotonic time source for grace/keepalive deadlines."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def chaos_wire(
    spec=None,
    seed=CHAOS_SEED,
    stale_grace_s=30.0,
    functions=(),
    clock=None,
):
    """Agent + server over FaultyTransport(InProc), reconnect armed."""
    chaos = FaultyTransport(InProcTransport(), spec or FaultSpec(), seed=seed)
    overload = None
    if CHAOS_OVERLOAD:
        from repro.core.overload import OverloadConfig

        overload = OverloadConfig()
    server = Server(
        ServerConfig(
            stale_grace_s=stale_grace_s, keepalive_misses=2, overload=overload
        ),
        time_fn=clock or FakeClock(),
    )
    server.listen(chaos, "ric")
    agent = Agent(AgentConfig(node_id=make_node()), chaos)
    for function in functions:
        agent.register_function(function)
    scheduler = ManualScheduler()
    agent.enable_reconnect(
        ReconnectPolicy(base_delay_s=0.1, max_delay_s=1.0, max_attempts=0, seed=seed),
        scheduler=scheduler,
    )
    return chaos, server, agent, scheduler


# ---------------------------------------------------------------------------
# FaultSpec / FaultyTransport unit matrices
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=1.5).validate()
        with pytest.raises(ValueError):
            FaultSpec(corrupt_rate=-0.1).validate()
        with pytest.raises(ValueError):
            FaultSpec(disconnect_every=-1).validate()

    def test_default_spec_is_transparent(self):
        got = []
        chaos = FaultyTransport(InProcTransport(), seed=CHAOS_SEED)
        chaos.listen("x", TransportEvents(on_message=lambda e, d: got.append(d)))
        conn = chaos.connect("x", TransportEvents())
        for i in range(50):
            conn.send(bytes([i]))
        assert got == [bytes([i]) for i in range(50)]


def _run_matrix(spec, seed, n=200):
    """Send ``n`` numbered frames through a faulty link; return arrivals."""
    got = []
    chaos = FaultyTransport(InProcTransport(), spec, seed=seed)
    chaos.listen("x", TransportEvents(on_message=lambda e, d: got.append(d)))
    conn = chaos.connect("x", TransportEvents())
    sent = [i.to_bytes(4, "big") * 8 for i in range(n)]
    for data in sent:
        conn.send(data)
    chaos.flush_delayed()
    return sent, got


class TestFaultyTransport:
    @pytest.mark.parametrize("seed", [CHAOS_SEED, CHAOS_SEED + 1, CHAOS_SEED + 2])
    def test_drop_matrix_is_deterministic(self, seed):
        spec = FaultSpec(drop_rate=0.3)
        sent, first = _run_matrix(spec, seed)
        _, second = _run_matrix(spec, seed)
        assert first == second                     # bit-identical replay
        assert 0 < len(first) < len(sent)          # some but not all dropped
        survivors = set(first)
        assert all(data in sent for data in survivors)

    @pytest.mark.parametrize("seed", [CHAOS_SEED, CHAOS_SEED + 1])
    def test_dup_matrix(self, seed):
        sent, got = _run_matrix(FaultSpec(dup_rate=0.5), seed)
        assert len(got) > len(sent)                # duplicates happened
        assert set(got) == set(sent)               # nothing lost or mangled

    @pytest.mark.parametrize("seed", [CHAOS_SEED, CHAOS_SEED + 1])
    def test_reorder_matrix(self, seed):
        sent, got = _run_matrix(FaultSpec(reorder_rate=0.5), seed)
        assert sorted(got) == sorted(sent)         # permutation only
        assert got != sent                         # and genuinely reordered

    def test_reorder_rate_one_swaps_pairs(self):
        sent, got = _run_matrix(FaultSpec(reorder_rate=1.0), CHAOS_SEED, n=4)
        assert got == [sent[1], sent[0], sent[3], sent[2]]

    @pytest.mark.parametrize("seed", [CHAOS_SEED, CHAOS_SEED + 1])
    def test_corrupt_matrix(self, seed):
        sent, got = _run_matrix(FaultSpec(corrupt_rate=0.5), seed)
        assert len(got) == len(sent)               # corruption never drops
        mangled = [pair for pair in zip(sent, got) if pair[0] != pair[1]]
        assert mangled
        for original, corrupted in mangled:
            assert len(corrupted) == len(original)  # single byte flip

    @pytest.mark.parametrize("seed", [CHAOS_SEED, CHAOS_SEED + 1])
    def test_truncate_matrix(self, seed):
        sent, got = _run_matrix(FaultSpec(truncate_rate=0.5), seed)
        assert len(got) == len(sent)
        assert any(len(g) < len(s) for s, g in zip(sent, got))
        assert all(s.startswith(g) for s, g in zip(sent, got))

    def test_delay_parks_until_flush(self):
        got = []
        chaos = FaultyTransport(
            InProcTransport(), FaultSpec(delay_rate=1.0), seed=CHAOS_SEED
        )
        chaos.listen("x", TransportEvents(on_message=lambda e, d: got.append(d)))
        conn = chaos.connect("x", TransportEvents())
        conn.send(b"a")
        conn.send(b"b")
        assert got == []
        assert chaos.flush_delayed() == 2
        assert got == [b"a", b"b"]

    def test_disconnect_every_cuts_both_sides(self):
        drops = {"server": None, "client": None}
        chaos = FaultyTransport(
            InProcTransport(), FaultSpec(disconnect_every=3), seed=CHAOS_SEED
        )
        chaos.listen(
            "x",
            TransportEvents(
                on_disconnected=lambda e, r=None: drops.__setitem__("server", r)
            ),
        )
        conn = chaos.connect(
            "x",
            TransportEvents(
                on_disconnected=lambda e, r=None: drops.__setitem__("client", r)
            ),
        )
        conn.send(b"1")
        conn.send(b"2")
        assert drops == {"server": None, "client": None}
        conn.send(b"3")                            # killing message delivered, then cut
        assert chaos.kills == 1
        assert conn.closed
        assert drops["client"] is not None and drops["client"].code == "injected"
        assert drops["server"] is not None        # peer saw the cut too


# ---------------------------------------------------------------------------
# Framing cap satellite
# ---------------------------------------------------------------------------


class TestFramingCap:
    def test_oversize_frame_rejected(self):
        framer = Framer(max_frame_len=64)
        with pytest.raises(FramingError, match="exceeds cap"):
            framer.feed((1000).to_bytes(4, "big"))

    def test_frames_under_cap_pass(self):
        framer = Framer(max_frame_len=64)
        frames = framer.feed(frame_message(b"x" * 64))
        assert frames == [b"x" * 64]

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            Framer(max_frame_len=0)


# ---------------------------------------------------------------------------
# Agent connect rollback satellite
# ---------------------------------------------------------------------------


class TestConnectRollback:
    def test_failed_connect_leaves_no_state(self):
        agent = Agent(AgentConfig(node_id=make_node()), InProcTransport())
        with pytest.raises(ConnectionError):
            agent.connect("nowhere")
        assert len(agent.controllers) == 0
        assert agent._endpoints == {}
        assert agent._setup_done == {}
        assert agent._setup_ok == {}

    def test_connect_retry_after_failure(self):
        transport = InProcTransport()
        server = Server(ServerConfig())
        agent = Agent(AgentConfig(node_id=make_node()), transport)
        with pytest.raises(ConnectionError):
            agent.connect("ric")
        server.listen(transport, "ric")
        origin = agent.connect("ric")              # clean retry succeeds
        assert agent.controllers.get(origin).state == LinkState.READY
        assert len(server.agents()) == 1


# ---------------------------------------------------------------------------
# Reconnect + resync integration
# ---------------------------------------------------------------------------


def _attach_monitor(server, period_ms=1.0):
    monitor = StatsMonitorIApp(oids=[MAC.oid], period_ms=period_ms)
    server.add_iapp(monitor)
    return monitor


class TestReconnectResync:
    def test_kill_then_recover_resumes_stream(self):
        mac = MacStatsFunction(synthetic_provider(num_ues=2))
        chaos, server, agent, scheduler = chaos_wire(functions=[mac])
        monitor = _attach_monitor(server)
        recovered = []
        server.events.subscribe(topics.NODE_RECOVERED, recovered.append)

        agent.connect("ric")
        assert mac.active_subscriptions == 1
        mac.pump()
        before = monitor.indications_received
        assert before > 0

        # Cut the agent's link mid-subscription.
        agent_endpoint = agent._endpoints[0]
        agent_endpoint.kill()
        assert server.randb.stale_agents()         # parked, not purged
        assert server.submgr.parked_records()
        assert monitor.nodes_stale == 1

        mac.pump()                                 # link down: dropped, no raise
        assert agent.indications_dropped > 0

        scheduler.advance(5.0)                     # walk the backoff ladder
        assert agent.reconnects == 1
        assert agent.controllers.get(0).state == LinkState.READY
        assert len(recovered) == 1
        assert monitor.nodes_recovered == 1
        assert not server.randb.stale_agents()
        assert not server.submgr.parked_records()

        mac.pump()
        assert monitor.indications_received > before  # stream resumed
        # The iApp never observed a disconnect/reconnect cycle.
        assert monitor.subscription_failures == 0

    def test_recovery_keeps_request_ids(self):
        mac = MacStatsFunction(synthetic_provider(num_ues=1))
        chaos, server, agent, scheduler = chaos_wire(functions=[mac])
        _attach_monitor(server)
        agent.connect("ric")
        (record,) = server.submgr.active_records()
        request_before = record.request

        agent._endpoints[0].kill()
        scheduler.advance(5.0)

        (after,) = server.submgr.active_records()
        assert after is record                     # same record object survived
        assert after.request == request_before     # same RIC request id
        assert after.resyncs == 1
        assert not after.parked

    def test_no_iapp_reconnect_duplication(self):
        """Recovery must not re-run on_agent_connected (no dup subs)."""
        mac = MacStatsFunction(synthetic_provider(num_ues=1))
        chaos, server, agent, scheduler = chaos_wire(functions=[mac])
        _attach_monitor(server)
        agent.connect("ric")
        for _ in range(3):
            agent._endpoints[0].kill()
            scheduler.advance(5.0)
        assert agent.reconnects == 3
        assert len(server.submgr.active_records()) == 1
        assert mac.active_subscriptions == 1

    def test_give_up_after_max_attempts(self):
        chaos, server, agent, scheduler = chaos_wire(functions=[HwRanFunction()])
        gave_up = []
        agent.enable_reconnect(
            ReconnectPolicy(base_delay_s=0.1, max_delay_s=0.1, max_attempts=2, seed=0),
            scheduler=scheduler,
            on_give_up=gave_up.append,
        )
        agent.connect("ric")
        # Controller gone for good: close() cuts the link, and every
        # subsequent reconnect attempt finds nothing listening.
        server.close()
        for _ in range(5):                         # one advance per ladder rung
            scheduler.advance(60.0)
        assert gave_up == [0]
        assert agent.controllers.get(0) is None
        assert agent.reconnects == 0


# ---------------------------------------------------------------------------
# The acceptance invariant: sustained chaos run
# ---------------------------------------------------------------------------


class TestChaosInvariant:
    @pytest.mark.parametrize("seed", [CHAOS_SEED, CHAOS_SEED + 17, CHAOS_SEED + 42])
    def test_stream_survives_sustained_chaos(self, seed):
        """10% drop + kill every 200 frames: the monitoring stream must
        resume after every kill, with no unhandled exceptions, no
        duplicate active subscriptions, and reconnects == kills."""
        mac = MacStatsFunction(synthetic_provider(num_ues=2))
        chaos, server, agent, scheduler = chaos_wire(
            spec=FaultSpec(), seed=seed, functions=[mac]
        )
        monitor = _attach_monitor(server)
        agent.connect("ric")
        assert mac.active_subscriptions == 1

        # Weather starts *after* the clean bootstrap (specs are live).
        chaos.spec.drop_rate = 0.10
        chaos.spec.disconnect_every = 200

        resumed_after_kill = 0
        kills_seen = 0
        for _ in range(2000):
            mac.pump()
            if chaos.kills > kills_seen:
                kills_seen = chaos.kills
                received_at_kill = monitor.indications_received
                # Ride the backoff ladder until the link is READY again
                # (setup frames are themselves subject to the 10% drop,
                # so an attempt may need its timeout-and-retry cycle).
                for _ in range(50):
                    link = agent.controllers.get(0)
                    assert link is not None, "link declared dead"
                    if link.state == LinkState.READY:
                        break
                    scheduler.advance(10.0)
                assert agent.controllers.get(0).state == LinkState.READY
                # Pump until the stream demonstrably resumes (drops may
                # still eat individual frames at 10%).
                for _ in range(100):
                    mac.pump()
                    if monitor.indications_received > received_at_kill:
                        break
                assert monitor.indications_received > received_at_kill, (
                    f"stream did not resume after kill #{kills_seen}"
                )
                resumed_after_kill += 1

        assert kills_seen >= 3                     # the weather actually blew
        assert resumed_after_kill == kills_seen    # resumed after every kill
        assert agent.reconnects == chaos.kills     # invariant from the issue
        # No duplicate active subscriptions for the single stream.
        active = server.submgr.active_records()
        assert len(active) == 1
        assert mac.active_subscriptions == 1
        # The iApp never saw a terminal failure.
        assert monitor.subscription_failures == 0


# ---------------------------------------------------------------------------
# Grace expiry + terminal failure GC
# ---------------------------------------------------------------------------


class TestGraceExpiry:
    def test_expiry_purges_and_fails_terminally(self):
        clock = FakeClock()
        mac = MacStatsFunction(synthetic_provider(num_ues=1))
        chaos, server, agent, scheduler = chaos_wire(
            functions=[mac], stale_grace_s=30.0, clock=clock
        )
        monitor = _attach_monitor(server)
        expired = []
        disconnected = []
        server.events.subscribe(topics.NODE_EXPIRED, expired.append)
        server.events.subscribe(topics.AGENT_DISCONNECTED, disconnected.append)

        agent.connect("ric")
        agent._reconnect_policy = None             # this node never returns
        agent._endpoints[0].kill()
        assert server.randb.stale_agents()

        clock.advance(29.0)
        assert server.expire_stale() == 0          # still inside the window
        clock.advance(2.0)
        assert server.expire_stale() == 1

        assert expired and disconnected
        assert server.agents() == []
        assert len(server.submgr) == 0             # records GC'd
        assert monitor.subscription_failures == 1  # terminal callback fired
        assert monitor._oid_by_request == {}       # iApp routing released

    def test_reattach_after_expiry_is_a_fresh_node(self):
        clock = FakeClock()
        chaos, server, agent, scheduler = chaos_wire(
            functions=[HwRanFunction()], stale_grace_s=10.0, clock=clock
        )
        connected = []
        server.events.subscribe(topics.AGENT_CONNECTED, connected.append)
        agent.connect("ric")
        agent._reconnect_policy = None
        agent._endpoints[0].kill()
        clock.advance(11.0)
        server.expire_stale()

        agent.enable_reconnect(scheduler=ManualScheduler())
        agent.disconnect(0)
        agent.connect("ric")                       # brand new lifecycle
        assert len(connected) == 2                 # full on_agent_connected again
        assert not server.randb.stale_agents()


# ---------------------------------------------------------------------------
# Keepalive liveness probing
# ---------------------------------------------------------------------------


class TestKeepalive:
    def _wire_keepalive(self, clock):
        chaos = FaultyTransport(InProcTransport(), FaultSpec(), seed=CHAOS_SEED)
        server = Server(
            ServerConfig(
                stale_grace_s=30.0, keepalive_interval_s=5.0, keepalive_misses=2
            ),
            time_fn=clock,
        )
        server.listen(chaos, "ric")
        agent = Agent(AgentConfig(node_id=make_node()), chaos)
        agent.register_function(HwRanFunction())
        agent.enable_reconnect(scheduler=ManualScheduler())
        return chaos, server, agent

    def test_healthy_agent_answers_queries(self):
        clock = FakeClock()
        chaos, server, agent = self._wire_keepalive(clock)
        agent.connect("ric")
        clock.advance(6.0)
        assert server.keepalive_tick() == 1        # idle -> probed
        (state,) = server._conns.values()
        # The agent answered with a service update inline, which reset
        # the miss counter and refreshed last_seen.
        assert state.pending_queries == 0
        assert clock.now - state.last_seen < 1.0
        assert server.randb.stale_agents() == []

    def test_silent_death_detected_and_staled(self):
        clock = FakeClock()
        chaos, server, agent = self._wire_keepalive(clock)
        stale = []
        server.events.subscribe(topics.NODE_STALE, stale.append)
        agent.connect("ric")

        # Silent death: the link stays "up" but every frame vanishes.
        chaos.spec.drop_rate = 1.0
        for _ in range(2):                         # two unanswered probes
            clock.advance(6.0)
            assert server.keepalive_tick() == 1
        clock.advance(6.0)
        server.keepalive_tick()                    # misses exhausted -> dead

        assert len(stale) == 1
        assert server.randb.stale_agents()
        assert server._conns == {}                 # conn torn down

    def test_tick_also_expires_stale_nodes(self):
        clock = FakeClock()
        chaos, server, agent = self._wire_keepalive(clock)
        expired = []
        server.events.subscribe(topics.NODE_EXPIRED, expired.append)
        agent.connect("ric")
        chaos.spec.drop_rate = 1.0
        for _ in range(3):
            clock.advance(6.0)
            server.keepalive_tick()
        assert server.randb.stale_agents()
        clock.advance(31.0)                        # grace runs out
        server.keepalive_tick()
        assert len(expired) == 1
        assert server.agents() == []


# -- multiprocess worker chaos (DESIGN.md §14) -----------------------


class TestWorkerChaos:
    """Seeded kill/respawn chaos against the multiprocess ingest tier.

    Indications are best-effort under the overload discipline, but the
    control class must never shed: across worker crashes, respawns and
    policy republication the merged ``overload.drop.control*`` counters
    stay at zero, and the tier keeps serving new agents afterwards.
    """

    @pytest.mark.parametrize("seed", [CHAOS_SEED, CHAOS_SEED + 7])
    def test_worker_kill_respawn_zero_control_drops(self, seed):
        import random
        import threading
        import time

        from repro.core.codec import get_codec
        from repro.core.e2ap.ies import RanFunctionItem, RicActionAdmitted
        from repro.core.e2ap.messages import (
            E2SetupRequest,
            E2SetupResponse,
            RicIndication,
            RicSubscriptionRequest,
            RicSubscriptionResponse,
            decode_message,
            encode_message,
        )
        from repro.core.server.workers import MultiProcServer, SubscriptionPolicy
        from repro.core.transport.tcp import TcpTransport

        rng = random.Random(seed)
        codec = get_codec("fb")

        class ChaosAgent:
            def __init__(self, transport, address, nb_id):
                self.ready = threading.Event()
                self.subscribed = threading.Event()
                self.sub_request = None
                self.endpoint = transport.connect(
                    address, TransportEvents(on_message=self._on_message)
                )
                self.endpoint.send(
                    encode_message(
                        E2SetupRequest(
                            node_id=make_node(nb_id),
                            ran_functions=[
                                RanFunctionItem(
                                    ran_function_id=1, definition=b"c", oid="c"
                                )
                            ],
                        ),
                        codec,
                    )
                )

            def _on_message(self, endpoint, data):
                message = decode_message(data, codec)
                if isinstance(message, E2SetupResponse):
                    self.ready.set()
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
                            codec,
                        )
                    )
                    self.subscribed.set()

        mp = MultiProcServer(ServerConfig(), workers=2, port=0)
        client = TcpTransport()
        try:
            mp.start()
            client.start()
            mp.subscribe_all(
                SubscriptionPolicy(
                    ran_function_id=1,
                    event_trigger=b"t",
                    actions=(RicActionDefinition(1, RicActionKind.REPORT),),
                )
            )
            agents = [ChaosAgent(client, mp.address, i + 1) for i in range(3)]
            for agent in agents:
                assert agent.ready.wait(10.0)
                assert agent.subscribed.wait(10.0)

            # Blast while the chaos schedule kills a seeded choice of
            # worker; a severed link only loses best-effort indications.
            def blast(agent):
                frame = encode_message(
                    RicIndication(
                        request=agent.sub_request,
                        ran_function_id=1,
                        action_id=1,
                        sequence=0,
                        header=b"",
                        payload=b"x" * 24,
                    ),
                    codec,
                )
                for _ in range(300):
                    try:
                        agent.endpoint.send(frame)
                    except (ConnectionError, OSError):
                        return  # our worker died mid-blast: expected

            threads = [
                threading.Thread(target=blast, args=(agent,)) for agent in agents
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.05 + rng.random() * 0.1)
            mp.kill_worker(rng.randrange(2))
            for thread in threads:
                thread.join(timeout=10.0)

            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if mp.restarts >= 1 and all(
                    handle.ready.is_set() and handle.process.is_alive()
                    for handle in mp._handles.values()
                ):
                    break
                time.sleep(0.05)
            assert mp.restarts >= 1, "supervisor never respawned the worker"

            # Post-chaos: a fresh agent still connects and the
            # republished policy still subscribes it.
            late = ChaosAgent(client, mp.address, nb_id=99)
            assert late.ready.wait(10.0)
            assert late.subscribed.wait(10.0)

            merged = mp.merged_counters()
            control_drops = {
                name: value
                for name, value in merged.items()
                if name.startswith("overload.drop.control") and value
            }
            assert not control_drops, f"control-class loss: {control_drops}"
        finally:
            client.stop()
            mp.stop()
