"""Tests for the overload discipline (DESIGN.md §13).

Covers the primitives in :mod:`repro.core.overload` (token buckets,
traffic classification, queue pressure / shed policy, bounded worker
pool, admission control, per-tenant fair shares), their wiring into
the server and transports, and the two regression scenarios the
discipline exists for:

* a RIC service-query keepalive must round-trip through a transport
  queue saturated by an indication flood (control class is never
  shed), and
* connection drops racing park/adopt subscription replay must neither
  leak parked records nor corrupt the admission pending count.
"""

import threading
import time

import pytest

from repro.core.agent import Agent, AgentConfig
from repro.core.codec.base import get_codec
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RicActionDefinition,
    RicActionKind,
    RicRequestId,
)
from repro.core.e2ap.messages import (
    E2SetupRequest,
    RicIndication,
    RicServiceQuery,
    RicSubscriptionFailure,
    encode_message,
)
from repro.core.e2ap.procedures import Cause
from repro.core.overload import (
    AdmissionController,
    FairShareLimiter,
    OverloadConfig,
    QueuePressure,
    TokenBucket,
    TrafficClass,
    classify_procedure,
    frame_classifier,
)
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
from repro.core.server import events as topics
from repro.core.server.submgr import SubscriptionManager
from repro.core.server.workers import MultiProcServer
from repro.core.transport import InProcTransport, TcpTransport, TransportEvents
from repro.metrics.counters import (
    counter_values,
    gauge_values,
    get_counter,
    reset_all,
)
from repro.sm.base import PeriodicTrigger
from repro.sm.hw import HwRanFunction, INFO as HW
from repro.sm.mac_stats import MacStatsFunction, synthetic_provider, INFO as MAC


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Overload assertions read process-global counters; isolate them."""
    reset_all()
    yield
    reset_all()


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_node(nb_id=1):
    return GlobalE2NodeId(plmn="00101", nb_id=nb_id, kind=NodeKind.GNB)


def make_agent(transport, nb_id=1, functions=(), codec="fb"):
    agent = Agent(AgentConfig(node_id=make_node(nb_id), e2ap_codec=codec), transport)
    for function in functions:
        agent.register_function(function)
    return agent


# -- token bucket ----------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, time_fn=clock)
        assert all(bucket.try_acquire() for _ in range(5))
        assert not bucket.try_acquire()
        clock.advance(0.15)  # 1.5 tokens at 10/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, time_fn=clock)
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(3.0)

    def test_rate_scale_throttles_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=10.0, time_fn=clock)
        assert all(bucket.try_acquire(rate_scale=0.1) for _ in range(10))
        clock.advance(1.0)  # 10 tokens nominally, 1 at scale 0.1
        assert bucket.available(rate_scale=0.1) == pytest.approx(1.0)

    def test_time_to_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=2.0, time_fn=clock)
        assert bucket.time_to_tokens(1.0) == 0.0
        bucket.try_acquire(2.0)
        assert bucket.time_to_tokens(1.0) == pytest.approx(0.25)

    def test_zero_rate_never_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, burst=1.0, time_fn=clock)
        assert bucket.try_acquire()
        clock.advance(1e6)
        assert not bucket.try_acquire()
        assert bucket.time_to_tokens(1.0) == float("inf")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


# -- traffic classification ------------------------------------------


class TestClassification:
    def test_indication_is_droppable(self):
        from repro.core.e2ap.procedures import ProcedureCode

        assert classify_procedure(int(ProcedureCode.RIC_INDICATION)) is (
            TrafficClass.INDICATION
        )

    def test_everything_else_is_control(self):
        from repro.core.e2ap.procedures import ProcedureCode

        for code in ProcedureCode:
            if code is ProcedureCode.RIC_INDICATION:
                continue
            assert classify_procedure(int(code)) is TrafficClass.CONTROL

    @pytest.mark.parametrize("codec_name", ["asn", "fb"])
    def test_frame_classifier_on_wire_bytes(self, codec_name):
        codec = get_codec(codec_name)
        classify = frame_classifier(codec)
        indication = encode_message(
            RicIndication(
                request=RicRequestId(1, 1),
                ran_function_id=2,
                action_id=1,
                sequence=0,
                payload=b"stats",
            ),
            codec,
        )
        setup = encode_message(E2SetupRequest(node_id=make_node()), codec)
        keepalive = encode_message(RicServiceQuery(), codec)
        assert classify(indication) is TrafficClass.INDICATION
        assert classify(setup) is TrafficClass.CONTROL
        assert classify(keepalive) is TrafficClass.CONTROL

    def test_undecodable_frames_are_control(self):
        """Never shed a frame the classifier cannot understand."""
        classify = frame_classifier(get_codec("fb"))
        assert classify(b"") is TrafficClass.CONTROL
        assert classify(b"\xff\xfe garbage") is TrafficClass.CONTROL

    def test_classifying_decodes_nothing(self, monkeypatch):
        """The procedure code comes off the envelope prefix: no kernel
        decode, no octet-string walk — the server decodes survivors once."""
        from repro.core.codec import codegen
        from repro.core.e2ap.messages import RicControlRequest

        asn, fb = get_codec("asn"), get_codec("fb")
        control = encode_message(
            RicControlRequest(RicRequestId(1, 1), 100, payload=b"p" * 1500), asn
        )
        flood = encode_message(
            RicIndication(RicRequestId(1, 1), 2, action_id=1, sequence=0, payload=b"x" * 64), fb
        )
        asn.decode(control), fb.decode(flood)  # kernels built before the spies go in
        touched = []
        for codec_name, frame in (("asn", control), ("fb", flood)):
            kernel = codegen.envelope_kernel(codec_name, *codegen._PROBES[codec_name](frame))
            monkeypatch.setattr(kernel, "decode", lambda data: touched.append("kernel"))
        for codec in (asn, fb):
            monkeypatch.setattr(codec, "decode", lambda data: touched.append("decode"))
        monkeypatch.setattr(codegen, "_dfrag", lambda *args: touched.append("_dfrag"))
        assert frame_classifier(asn)(control) is TrafficClass.CONTROL
        assert frame_classifier(fb)(flood) is TrafficClass.INDICATION
        assert touched == []

    @pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
    def test_an_unprobeable_frame_is_decoded_and_unclassifiable_is_control(self, codec_name):
        codec = get_codec(codec_name)
        classify = frame_classifier(codec)
        # An envelope the probe declines (keys out of order) still classifies
        # through the decode; pb has no probe at all.
        odd = codec.encode({"c": 0, "p": 5, "v": {}})
        assert codec.probe(odd) is None
        assert classify(odd) is TrafficClass.INDICATION
        assert classify(codec.encode({"x": 1})) is TrafficClass.CONTROL
        assert classify(codec.encode([1, 2])) is TrafficClass.CONTROL

    def test_an_indication_envelope_is_sheddable_whatever_its_body(self):
        """What is not shed is still contained by the server."""
        fb = get_codec("fb")
        assert frame_classifier(fb)(fb.encode({"p": 5, "c": 0, "v": 5})) is (
            TrafficClass.INDICATION
        )


# -- queue pressure / shed policy ------------------------------------


def _frames(codec, indications=0, control=0):
    out = []
    for sequence in range(indications):
        out.append(
            (
                "ind",
                sequence,
                encode_message(
                    RicIndication(
                        request=RicRequestId(1, 1),
                        ran_function_id=2,
                        action_id=1,
                        sequence=sequence,
                    ),
                    codec,
                ),
            )
        )
    for _ in range(control):
        out.append(("ctl", 0, encode_message(RicServiceQuery(), codec)))
    return out


class TestQueuePressure:
    def test_accounting_mode_publishes_gauges(self):
        pressure = QueuePressure("unit.acct")
        assert not pressure.bounded
        pressure.note_depth(7)
        pressure.note_depth(3)
        gauges = gauge_values()
        assert gauges["queue.unit.acct.depth"] == 3
        assert gauges["queue.unit.acct.hwm"] == 7
        assert gauges["queue.unit.acct.degraded"] == 0
        # admit is the identity in accounting mode.
        frames = [b"x", b"y"]
        assert pressure.admit(frames, 0, "conn") is frames

    def test_bounded_requires_classifier(self):
        with pytest.raises(ValueError):
            QueuePressure("unit.bad", OverloadConfig())

    def _bounded(self, **overrides):
        config = OverloadConfig(
            max_queue_depth=overrides.pop("max_queue_depth", 8),
            high_watermark=overrides.pop("high_watermark", 4),
            burst_coalesce=overrides.pop("burst_coalesce", 2),
            **overrides,
        )
        codec = get_codec("fb")
        return QueuePressure("unit.bound", config, frame_classifier(codec)), codec

    def test_fast_path_below_watermark(self):
        pressure, codec = self._bounded()
        frames = [frame for _, _, frame in _frames(codec, indications=3)]
        assert pressure.admit(frames, 0, "conn") is frames
        assert counter_values().get("overload.drop.indication", 0) == 0

    def test_sheds_oldest_indications_first(self):
        pressure, codec = self._bounded()
        tagged = _frames(codec, indications=10)
        admitted = pressure.admit([f for _, _, f in tagged], 0, "conn-1")
        # Room is max_queue_depth (8): the 2 oldest are shed.
        kept = [seq for (_, seq, frame) in tagged if frame in admitted]
        assert kept == list(range(2, 10))
        counters = counter_values()
        assert counters["overload.drop.indication"] == 2
        assert counters["overload.conn.conn-1.drops"] == 2
        assert counters.get("overload.drop.control", 0) == 0

    def test_control_survives_a_full_queue(self):
        pressure, codec = self._bounded()
        tagged = _frames(codec, indications=12, control=1)
        admitted = pressure.admit(
            [f for _, _, f in tagged], pressure.config.max_queue_depth, "conn"
        )
        # Zero room for indications; the control frame still passes.
        assert len(admitted) == 1
        assert admitted[0] == tagged[-1][2]
        assert counter_values()["overload.drop.indication"] == 12

    def test_degrade_hysteresis(self):
        pressure, _codec = self._bounded(high_watermark=4)
        pressure.note_depth(4)
        assert pressure.degraded
        assert gauge_values()["queue.unit.bound.degraded"] == 1
        assert counter_values()["overload.degrade.enter"] == 1
        # Stays degraded until depth falls to half the watermark.
        pressure.note_depth(3)
        assert pressure.degraded
        pressure.note_depth(2)
        assert not pressure.degraded
        assert gauge_values()["queue.unit.bound.degraded"] == 0
        # Re-entering counts again.
        pressure.note_depth(4)
        assert counter_values()["overload.degrade.enter"] == 2

    def test_degraded_bursts_coalesce_to_newest(self):
        pressure, codec = self._bounded(
            max_queue_depth=100, high_watermark=4, burst_coalesce=2
        )
        pressure.note_depth(4)
        assert pressure.degraded
        tagged = _frames(codec, indications=6)
        admitted = pressure.admit([f for _, _, f in tagged], 4, "conn")
        kept = [seq for (_, seq, frame) in tagged if frame in admitted]
        assert kept == [4, 5]  # newest burst_coalesce frames
        counters = counter_values()
        assert counters["overload.drop.indication"] == 4
        assert counters["overload.coalesced"] == 4

    def test_add_frames_tracks_and_clamps(self):
        pressure, _codec = self._bounded()
        assert pressure.add_frames(5) == 5
        assert pressure.frame_depth == 5
        assert pressure.add_frames(-2) == 3
        assert pressure.add_frames(-10) == 0
        assert gauge_values()["queue.unit.bound.hwm"] == 5


# -- admission control -----------------------------------------------


def admission(clock, **overrides):
    defaults = dict(
        setup_rate_s=10.0,
        setup_burst=2,
        subscription_rate_s=10.0,
        subscription_burst=2,
        max_pending_subscriptions=4,
        slow_start_s=10.0,
        slow_start_floor=0.1,
    )
    defaults.update(overrides)
    return AdmissionController(OverloadConfig(**defaults), time_fn=clock)


class TestAdmissionController:
    def test_setup_burst_then_retry_hint(self):
        clock = FakeClock()
        ctrl = admission(clock)
        assert ctrl.admit_setup() is None
        assert ctrl.admit_setup() is None
        hint = ctrl.admit_setup()
        assert hint is not None and 0.05 <= hint <= 30.0
        assert counter_values()["server.admission.reject.setup"] == 1
        clock.advance(1.0)
        assert ctrl.admit_setup() is None

    def test_subscription_bucket_and_release(self):
        clock = FakeClock()
        ctrl = admission(clock)
        assert ctrl.admit_subscription()
        assert ctrl.admit_subscription()
        assert not ctrl.admit_subscription()
        assert counter_values()["server.admission.reject.subscription"] == 1
        ctrl.release_subscription()
        ctrl.release_subscription()
        assert ctrl.state()["pending_subscriptions"] == 0

    def test_pending_cap_independent_of_bucket(self):
        clock = FakeClock()
        ctrl = admission(clock, max_pending_subscriptions=1, subscription_burst=100)
        assert ctrl.admit_subscription()
        assert not ctrl.admit_subscription()  # cap, not bucket
        ctrl.set_pending(0)
        assert ctrl.admit_subscription()

    def test_slow_start_ramp(self):
        clock = FakeClock()
        ctrl = admission(clock, slow_start_s=10.0, slow_start_floor=0.1)
        assert not ctrl.in_slow_start
        ctrl.note_recovery()
        assert ctrl.in_slow_start
        assert ctrl._rate_scale() == pytest.approx(0.1)
        clock.advance(5.0)
        assert ctrl._rate_scale() == pytest.approx(0.55)
        clock.advance(5.0)
        assert not ctrl.in_slow_start
        assert ctrl._rate_scale() == pytest.approx(1.0)
        assert counter_values()["server.admission.slow_start"] == 1

    def test_slow_start_throttles_setup_refill(self):
        clock = FakeClock()
        ctrl = admission(clock, setup_rate_s=10.0, setup_burst=1, slow_start_s=100.0)
        assert ctrl.admit_setup() is None
        ctrl.note_recovery()
        # Nominal refill would grant a token after 0.1 s; at the 10 %
        # slow-start floor it takes ~1 s.
        clock.advance(0.2)
        assert ctrl.admit_setup() is not None
        clock.advance(1.0)
        assert ctrl.admit_setup() is None

    def test_state_snapshot_shape(self):
        state = admission(FakeClock()).state()
        assert set(state) == {
            "setup_tokens",
            "subscription_tokens",
            "pending_subscriptions",
            "max_pending_subscriptions",
            "slow_start",
            "rate_scale",
        }


# -- per-tenant fair shares ------------------------------------------


class TestFairShareLimiter:
    def test_rates_proportional_to_shares(self):
        clock = FakeClock()
        limiter = FairShareLimiter(
            100.0, {"A": 0.7, "B": 0.3}, burst_window_s=0.25, time_fn=clock
        )
        state = limiter.state()
        assert state["A"]["rate_per_s"] == pytest.approx(70.0)
        assert state["B"]["rate_per_s"] == pytest.approx(30.0)

    def test_greedy_tenant_capped_others_untouched(self):
        clock = FakeClock()
        limiter = FairShareLimiter(
            100.0, {"A": 0.5, "B": 0.5}, burst_window_s=0.1, time_fn=clock
        )
        # A drains its burst (5 tokens at 50/s over 0.1 s) and is cut off.
        grants_a = sum(limiter.try_acquire("A") for _ in range(20))
        assert grants_a == 5
        # B's bucket is unaffected by A's greed.
        assert limiter.try_acquire("B")

    def test_unknown_tenant_unlimited(self):
        limiter = FairShareLimiter(10.0, {"A": 1.0}, time_fn=FakeClock())
        assert all(limiter.try_acquire("ghost") for _ in range(100))

    def test_state_refreshes_gauges(self):
        limiter = FairShareLimiter(100.0, {"A": 0.5}, time_fn=FakeClock())
        limiter.state()
        assert "overload.tenant.A.tokens" in gauge_values()

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            FairShareLimiter(0.0, {"A": 1.0})


# -- server integration: admission gates -----------------------------


class TestServerAdmission:
    def _server(self, overload, **config):
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb", overload=overload, **config))
        server.listen(transport, "ric")
        return transport, server

    def test_setup_storm_refused_with_cause(self):
        overload = OverloadConfig(setup_rate_s=0.0, setup_burst=2)
        transport, server = self._server(overload)
        for nb_id in (1, 2):
            make_agent(transport, nb_id).connect("ric")
        with pytest.raises(ConnectionError, match="refused"):
            make_agent(transport, nb_id=3).connect("ric")
        assert len(server.agents()) == 2
        assert counter_values()["server.admission.reject.setup"] == 1

    def test_subscription_storm_refused_locally(self):
        overload = OverloadConfig(subscription_rate_s=0.0, subscription_burst=1)
        transport, server = self._server(overload)
        make_agent(transport, functions=[HwRanFunction()]).connect("ric")
        conn = server.agents()[0].conn_id
        outcomes, failures = [], []

        def subscribe(callbacks):
            return server.subscribe(
                conn_id=conn,
                ran_function_id=HW.default_function_id,
                event_trigger=PeriodicTrigger(0.0).to_bytes("fb"),
                actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                callbacks=callbacks,
            )

        first = subscribe(SubscriptionCallbacks(on_success=outcomes.append))
        assert first.confirmed and len(outcomes) == 1
        subscribe(SubscriptionCallbacks(on_failure=failures.append))
        assert len(failures) == 1
        assert isinstance(failures[0], RicSubscriptionFailure)
        assert failures[0].cause.value == Cause.ADMISSION_REFUSED
        # The refused record was never registered.
        assert len(server.submgr) == 1
        assert counter_values()["server.admission.reject.subscription"] == 1

    def test_confirmed_subscription_releases_pending_slot(self):
        overload = OverloadConfig(max_pending_subscriptions=1)
        transport, server = self._server(overload)
        make_agent(transport, functions=[HwRanFunction()]).connect("ric")
        conn = server.agents()[0].conn_id
        for _ in range(3):  # would exceed the cap if slots leaked
            record = server.subscribe(
                conn_id=conn,
                ran_function_id=HW.default_function_id,
                event_trigger=PeriodicTrigger(0.0).to_bytes("fb"),
                actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(),
            )
            assert record.confirmed
        assert server.admission.state()["pending_subscriptions"] == 0

    def test_node_loss_resyncs_pending_count(self):
        overload = OverloadConfig(max_pending_subscriptions=2)
        transport, server = self._server(overload, stale_grace_s=5.0)
        agent = make_agent(transport, functions=[HwRanFunction()])
        origin = agent.connect("ric")
        conn = server.agents()[0].conn_id
        record = server.subscribe(
            conn_id=conn,
            ran_function_id=HW.default_function_id,
            event_trigger=PeriodicTrigger(0.0).to_bytes("fb"),
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(),
        )
        assert record.confirmed
        drops_before = {
            name: value
            for name, value in counter_values().items()
            if name.startswith("overload.")
        }
        agent.disconnect(origin)
        # Confirmed records were parked (unconfirmed now) but the
        # admission cap holds slots only for in-flight requests: the
        # recount must land on exactly zero.
        assert server.submgr.parked_records()
        assert server.admission.state()["pending_subscriptions"] == 0
        # Lifecycle transitions are not queue drops: no overload
        # counter moved (satellite 3: no double-counted drop metrics).
        drops_after = {
            name: value
            for name, value in counter_values().items()
            if name.startswith("overload.")
        }
        assert drops_after == drops_before

    def test_recovery_enters_slow_start(self):
        overload = OverloadConfig(slow_start_s=30.0)
        transport, server = self._server(overload, stale_grace_s=30.0)
        agent = make_agent(transport, functions=[HwRanFunction()])
        origin = agent.connect("ric")
        agent.disconnect(origin)
        assert server.agents()[0].stale
        make_agent(transport, nb_id=1).connect("ric")  # same node id: recovery
        assert server.admission.in_slow_start
        assert counter_values()["server.admission.slow_start"] == 1

    def test_overload_state_snapshot(self):
        transport, server = self._server(OverloadConfig())
        make_agent(transport).connect("ric")
        state = server.overload_state()
        assert state["enabled"]
        assert "pending_subscriptions" in state["admission"]["state"]
        legacy = Server(ServerConfig())
        assert not legacy.overload_state()["enabled"]


# -- transport gauges (satellite 1) ----------------------------------


class TestTransportGauges:
    def test_sync_dispatch_queue_gauges(self):
        """The default (unsharded) dispatch queue publishes depth/hwm
        gauges even without overload mode."""
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        make_agent(transport).connect("ric")
        gauges = gauge_values()
        assert gauges["queue.inproc.dispatch.depth"] == 0  # drained
        assert gauges["queue.inproc.dispatch.hwm"] >= 1

    def test_sharded_queue_gauges_without_overload(self):
        transport = InProcTransport(shards=2)
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        make_agent(transport).connect("ric")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.agents():
                break
            time.sleep(0.01)
        # Snapshot while the loops are alive: stop() now discards the
        # queue-scoped gauges with the loops that owned them.
        gauges = gauge_values()
        assert "queue.inproc.shard.0.depth" in gauges
        assert gauges["queue.inproc.shard.0.hwm"] >= 1
        transport.stop()
        assert "queue.inproc.shard.0.depth" not in gauge_values()


# -- shedding over TCP -------------------------------------------------


class TestTcpShedding:
    def test_drained_burst_sheds_oldest_indications_keeps_control(self):
        """One write holding 30 indications with control frames in
        between: the drain admits every control frame and the newest
        indications up to the budget."""
        codec = get_codec("fb")
        overload = OverloadConfig(max_queue_depth=8, high_watermark=4, burst_coalesce=8)
        transport = TcpTransport(overload=overload, classify=frame_classifier(codec))
        inds = [frame for _, _, frame in _frames(codec, indications=30)]
        control = encode_message(RicServiceQuery(), codec)
        burst = inds[:10] + [control] + inds[10:20] + [control] + inds[20:] + [control]
        accepted, got = [], []
        try:
            listener = transport.listen(
                "127.0.0.1:0",
                TransportEvents(
                    on_connected=accepted.append,
                    on_messages=lambda endpoint, batch: got.extend(batch),
                ),
            )
            client = transport.connect(listener.address, TransportEvents())
            deadline = time.monotonic() + 5.0
            while not accepted and time.monotonic() < deadline:
                transport.step(0.01)
            client.send_many(burst)
            while not got and time.monotonic() < deadline:
                transport.step(0.01)
            assert got == [control, control] + inds[22:] + [control]
            counters = counter_values()
            assert counters["overload.drop.indication"] == 22
            assert counters.get("overload.drop.control", 0) == 0
            assert gauge_values()["queue.tcp.shard.0.depth"] == 0
            assert gauge_values()["queue.tcp.shard.0.hwm"] == len(burst)
        finally:
            transport.stop()

    def test_multiproc_single_loop_workers_shed_only_indications(self):
        """Workers (one loop per process) shed a flood's indications
        and never its control frames, fleet-wide."""
        from tests.test_sharding import _settled_agents, _worker_policy

        overload = OverloadConfig(max_queue_depth=16, high_watermark=8)
        mp = MultiProcServer(ServerConfig(workers=2, overload=overload), port=0)
        client = TcpTransport()
        try:
            mp.start()
            client.start()
            mp.subscribe_all(_worker_policy())
            for agent in _settled_agents(client, mp.address, 2):
                agent.blast(2000)
            deadline = time.monotonic() + 15.0
            drops = {}
            while time.monotonic() < deadline:
                drops = mp.overload_state()["drops"]
                if mp.total_indications() + drops.get("overload.drop.indication", 0) >= 4000:
                    break
                time.sleep(0.05)
            assert drops.get("overload.drop.indication", 0) > 0
            assert drops.get("overload.drop.control", 0) == 0
            assert mp.agents_total() == 2
        finally:
            client.stop()
            mp.stop()


# -- keepalive under flood (satellite 2) -----------------------------


class TestKeepaliveUnderFlood:
    def test_service_query_round_trips_through_saturated_queue(self):
        """Flood one in-process ingest shard with indications past the
        queue bound; a RIC service-query keepalive issued mid-flood
        must still round-trip (control class is never shed) while
        indications are dropped."""
        overload = OverloadConfig(
            max_queue_depth=48, high_watermark=16, burst_coalesce=8
        )
        server = Server(
            ServerConfig(e2ap_codec="fb", overload=overload, keepalive_interval_s=0.5)
        )
        transport = InProcTransport(
            shards=2, overload=overload, classify=frame_classifier(server.codec)
        )
        try:
            server.listen(transport, "ric")
            function = MacStatsFunction(
                provider=synthetic_provider(2), sm_codec="fb"
            )
            agent = make_agent(transport, functions=[function])
            agent.connect("ric")
            deadline = time.monotonic() + 5.0
            while not server.agents() and time.monotonic() < deadline:
                time.sleep(0.01)
            conn = server.agents()[0].conn_id
            confirmed = threading.Event()
            server.subscribe(
                conn_id=conn,
                ran_function_id=MAC.default_function_id,
                event_trigger=PeriodicTrigger(1.0).to_bytes("fb"),
                actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(
                    on_success=lambda response: confirmed.set(),
                    # The slow consumer: each indication pins the shard
                    # thread long enough for the producer to win.
                    on_indication=lambda event: time.sleep(0.002),
                ),
            )
            assert confirmed.wait(5.0)
            updated = threading.Event()
            server.events.subscribe(
                topics.FUNCTIONS_UPDATED, lambda record: updated.set()
            )
            for _ in range(400):
                function.pump()
            # Mid-backlog: force a keepalive probe (the agent has been
            # "idle" from the prober's point of view).
            assert server.keepalive_tick(now=server.time_fn() + 10.0) == 1
            # The query and the agent's service-update reply both cross
            # the saturated shard queue — and must survive it.
            assert updated.wait(10.0)
            counters = counter_values()
            assert counters["overload.drop.indication"] > 0
            assert counters.get("overload.drop.control", 0) == 0
            assert counters["overload.degrade.enter"] >= 1
            assert len(server.agents()) == 1  # never declared dead
            # The hard bound held: observed high watermark never ran
            # materially past max_queue_depth (in-flight slack only).
            hwm = gauge_values()["queue.inproc.shard.0.hwm"]
            assert hwm <= overload.max_queue_depth + overload.high_watermark
        finally:
            transport.stop()
            server.close()


# -- drop_conn racing park/adopt (satellite 3) -----------------------


class TestDropAdoptRace:
    def _populated(self, count=8):
        submgr = SubscriptionManager()
        for _ in range(count):
            submgr.create(
                conn_id=1, ran_function_id=2, callbacks=SubscriptionCallbacks()
            )
        return submgr

    @pytest.mark.parametrize("round_", range(8))
    def test_concurrent_drop_and_adopt_leaves_consistent_state(self, round_):
        """drop_conn(old) racing adopt(parked, new) must end in one of
        the two serializable outcomes — records fully re-homed or fully
        purged — never a mix with leaked parked entries."""
        submgr = self._populated()
        parked = submgr.park_conn(1)
        assert len(parked) == 8
        barrier = threading.Barrier(2)

        def adopter():
            barrier.wait()
            submgr.adopt(parked, new_conn_id=2)

        def dropper():
            barrier.wait()
            submgr.drop_conn(1)

        threads = [threading.Thread(target=adopter), threading.Thread(target=dropper)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
        # Invariants, either interleaving: nothing stays parked, and
        # every surviving record lives on the new connection.
        assert submgr.parked_records() == []
        survivors = submgr.active_records()
        assert all(r.conn_id == 2 and not r.parked for r in survivors)
        assert len(submgr) == len(survivors)

    def test_adopt_then_drop_old_conn_is_noop(self):
        submgr = self._populated(count=4)
        parked = submgr.park_conn(1)
        submgr.adopt(parked, new_conn_id=2)
        assert submgr.drop_conn(1) == 0
        assert len(submgr) == 4

    def test_drop_then_adopt_does_not_resurrect(self):
        submgr = self._populated(count=4)
        parked = submgr.park_conn(1)
        assert submgr.drop_conn(1) == 4
        submgr.adopt(parked, new_conn_id=2)  # records already purged
        assert len(submgr) == 0
        assert submgr.active_records() == []


# -- northbound exposure (satellite 6) -------------------------------


class TestNorthboundOverloadRoute:
    def test_metrics_overload_route(self):
        from repro.northbound.metrics_api import attach_metrics_routes
        from repro.northbound.rest import RestClient, RestServer

        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb", overload=OverloadConfig()))
        server.listen(transport, "ric")
        make_agent(transport).connect("ric")
        get_counter("overload.drop.indication").incr(3)
        rest = RestServer()
        rest.start()
        try:
            attach_metrics_routes(rest, overload_state=server.overload_state)
            client = RestClient("127.0.0.1", rest.port)
            snapshot = client.get("/metrics/overload")
            assert snapshot["drops"]["overload.drop.indication"] == 3
            assert snapshot["server"]["enabled"]
            assert "admission_rejects" in snapshot
            assert "queues" in snapshot
            assert "tenants" in snapshot
        finally:
            rest.stop()
