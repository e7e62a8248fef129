"""Tests for the overload discipline (DESIGN.md §13).

Covers the primitives in :mod:`repro.core.overload` (token buckets,
traffic classification, queue pressure / shed policy, admission
control, per-tenant fair shares), their wiring into the server and
transports, the overload gates as invariants of the one TCP drain
(:class:`TestTcpDrainInvariants`, DESIGN.md §13.5), and the two
regression scenarios the discipline exists for:

* a RIC service-query keepalive must round-trip through a TCP loop
  saturated by an indication flood (control class is never shed), and
* connection drops racing park/adopt subscription replay must neither
  leak parked records nor corrupt the admission pending count.
"""

import struct
import threading
import time
from dataclasses import replace

import pytest

from repro.core.agent import Agent, AgentConfig
from repro.core.codec.base import CodecError, get_codec
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
    decode_message,
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
        from repro.core.codec import codegen, kernel_runtime
        from repro.core.e2ap.messages import RicControlRequest

        asn, fb = get_codec("asn"), get_codec("fb")
        control = encode_message(
            RicControlRequest(RicRequestId(1, 1), 100, payload=b"p" * 1500), asn
        )
        flood = encode_message(
            RicIndication(RicRequestId(1, 1), 2, action_id=1, sequence=0, payload=b"x" * 64), fb
        )
        touched = []
        for codec_name, frame in (("asn", control), ("fb", flood)):
            kernel = codegen.envelope_kernel(codec_name, *codegen._PROBES[codec_name](frame))
            monkeypatch.setattr(kernel, "route", lambda data: touched.append("kernel"))
        for codec in (asn, fb):
            monkeypatch.setattr(codec, "decode", lambda data: touched.append("decode"))
        monkeypatch.setattr(kernel_runtime, "_dfrag", lambda *args: touched.append("_dfrag"))
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

    @pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
    def test_a_truncated_procedure_cell_is_control(self, codec_name):
        """The decode path's malformed set, ``struct.error`` included
        (``fb`` reads the cell lazily), never escapes the classifier."""
        codec = get_codec(codec_name)
        frame = _truncated_p(codec)
        with pytest.raises(CodecError):
            decode_message(frame, codec)
        assert frame_classifier(codec)(frame) is TrafficClass.CONTROL

    def test_an_indication_envelope_is_sheddable_whatever_its_body(self):
        """What is not shed is still contained by the server."""
        fb = get_codec("fb")
        assert frame_classifier(fb)(fb.encode({"p": 5, "c": 0, "v": 5})) is (
            TrafficClass.INDICATION
        )


def _truncated_p(codec):
    """A ``{p}`` table whose int cell is cut short; on ``fb`` the root
    size is cut to match (a 29-byte frame), so only reading ``p`` fails."""
    wire = codec.encode({"p": 2**40})
    if codec.name == "fb":
        return struct.pack("<2sBBI8x", b"FR", 1, 0, 13) + wire[16:29]
    return wire[:-2]


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
        # admit is the identity in accounting mode.
        frames = [b"x", b"y"]
        assert pressure.admit(frames, "conn") is frames

    def test_bounded_requires_classifier(self):
        with pytest.raises(ValueError):
            QueuePressure("unit.bad", OverloadConfig())

    def _bounded(self):
        config = OverloadConfig(max_queue_depth=8)
        codec = get_codec("fb")
        return QueuePressure("unit.bound", config, frame_classifier(codec)), codec

    def test_fast_path_below_watermark(self):
        """A batch of at most ``max_queue_depth`` frames is returned as
        is, nothing shed."""
        pressure, codec = self._bounded()
        frames = [frame for _, _, frame in _frames(codec, indications=3)]
        assert pressure.admit(frames, "conn") is frames
        assert counter_values().get("overload.drop.indication", 0) == 0

    def test_sheds_oldest_indications_first(self):
        pressure, codec = self._bounded()
        tagged = _frames(codec, indications=10)
        admitted = pressure.admit([f for _, _, f in tagged], "conn-1")
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
        admitted = pressure.admit([f for _, _, f in tagged], "conn")
        # The indications fill the bound; the control frame passes past it.
        assert len(admitted) == pressure.config.max_queue_depth + 1
        assert admitted[-1] == tagged[-1][2]
        assert counter_values()["overload.drop.indication"] == 4

    def test_shedding_is_monotonic_in_the_drained_batch(self):
        """A bigger drain never delivers fewer indications.  Driven the
        way ``TcpTransport._read`` drives it (depth, admit, depth back
        to 0) at the defaults, a batch of ``n`` indications delivers
        exactly ``min(n, max_queue_depth)`` of them.  The classifier is
        a table lookup of the one frame (``frame_classifier`` is
        ``TestClassification``'s), which keeps all 3 073 batch sizes
        to about 2 s."""
        codec = get_codec("fb")
        frame = _frames(codec, indications=1)[0][2]
        classify = {frame: frame_classifier(codec)(frame)}.__getitem__
        config = OverloadConfig()
        pressure = QueuePressure("unit.mono", config, classify)
        budget = config.max_queue_depth
        delivered = []
        for n in range(3 * budget + 1):
            pressure.note_depth(n)
            delivered.append(len(pressure.admit([frame] * n, "conn")))
            pressure.note_depth(0)
        wrong = [(n, got) for n, got in enumerate(delivered) if got != min(n, budget)]
        assert wrong == []


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
        """The in-process dispatch queue publishes depth/hwm gauges
        even without overload mode."""
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        make_agent(transport).connect("ric")
        gauges = gauge_values()
        assert gauges["queue.inproc.dispatch.depth"] == 0  # drained
        assert gauges["queue.inproc.dispatch.hwm"] >= 1


# -- shedding over TCP -------------------------------------------------


class TestTcpShedding:
    def test_drained_burst_sheds_oldest_indications_keeps_control(self):
        """One write holding 30 indications with control frames in
        between: the drain admits every control frame and the newest
        indications up to the budget."""
        codec = get_codec("fb")
        overload = OverloadConfig(max_queue_depth=8)
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

    def test_a_poison_burst_leaves_the_ingest_thread_serving(self):
        """One write of 1 100 truncated frames under the default policy:
        past ``max_queue_depth`` every frame is classified, none kills
        the one loop, and a fresh E2 setup is still answered."""
        import socket

        from repro.core.transport.framing import frame_message

        server = Server(ServerConfig(e2ap_codec="fb", overload=OverloadConfig()))
        ric, ran = server.create_transport("tcp"), TcpTransport()
        try:
            listener = server.listen(ric, "127.0.0.1:0")
            ric.start()
            ran.start()
            host, port = listener.address.rsplit(":", 1)
            poison = frame_message(_truncated_p(server.codec))
            assert len(poison) == 4 + 29
            with socket.create_connection((host, int(port))) as sock:
                sock.sendall(poison * 1100)
                deadline = time.monotonic() + 10.0
                while (
                    counter_values().get("server.rx.decode_error", 0) < 1100
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert counter_values()["server.rx.decode_error"] == 1100
                assert ric._thread.is_alive()
                make_agent(ran, nb_id=2).connect(listener.address)
                assert [record.node_id.nb_id for record in server.agents()] == [2]
        finally:
            ran.stop()
            ric.stop()

    def test_multiproc_single_loop_workers_shed_only_indications(self):
        """Workers (one loop per process) shed a flood's indications
        and never its control frames, fleet-wide."""
        from tests.test_sharding import _settled_agents, _worker_policy

        overload = OverloadConfig(max_queue_depth=16)
        mp = MultiProcServer(ServerConfig(overload=overload), workers=2, port=0)
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


# -- the overload gates as invariants of the TCP drain -----------------


class _RecordingPressure(QueuePressure):
    """A loop's pressure that logs every (drained, admitted) pair."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.log = []

    def admit(self, frames, conn_label):
        admitted = super().admit(frames, conn_label)
        self.log.append((list(frames), list(admitted)))
        return admitted


class TestTcpDrainInvariants:
    """The overload gates, held as invariants of the one TCP drain.

    A burst is written into one connection of a ``TcpTransport`` under
    an :class:`OverloadConfig` and the loop is driven inline with
    ``step()``.  Bursts are 1x (the largest lossless one), 10x and 100x
    ``max_queue_depth`` frames, every ``CONTROL_EVERY``-th frame
    and the last one a control frame.  However the kernel splits the
    stream across wakeups, every drain keeps each invariant
    (DESIGN.md §13.5).
    """

    OVERLOAD = OverloadConfig(max_queue_depth=4)
    CONTROL_EVERY = 4
    SIZES = {
        "1x": OVERLOAD.max_queue_depth,
        "10x": 10 * OVERLOAD.max_queue_depth,
        "100x": 100 * OVERLOAD.max_queue_depth,
    }

    @classmethod
    def _burst(cls, codec, size):
        """``size`` frames: indications numbered in send order, with a
        numbered control frame at every ``CONTROL_EVERY``-th place and
        at the end."""
        frames = []
        for index in range(size):
            if index % cls.CONTROL_EVERY == cls.CONTROL_EVERY - 1 or index == size - 1:
                message = RicServiceQuery(known_functions=[index])
            else:
                message = RicIndication(
                    request=RicRequestId(1, 1),
                    ran_function_id=2,
                    action_id=1,
                    sequence=index,
                )
            frames.append(encode_message(message, codec))
        return frames

    def _drive(self, size, light=0, overload=OVERLOAD):
        """Write a ``size``-frame burst (and, on a second connection,
        ``light`` indications) and step the loop until all of it is
        in.  Returns (classify, heavy burst, light burst, deliveries
        per connection, the drain's (drained, admitted) log)."""
        import socket

        from repro.core.transport.framing import frame_messages

        codec = get_codec("fb")
        classify = frame_classifier(codec)
        transport = TcpTransport(overload=overload, classify=classify)
        pressure = transport._pressure = _RecordingPressure(
            "tcp.shard.0", overload, classify
        )
        heavy_burst = self._burst(codec, size)
        light_burst = [frame for _, _, frame in _frames(codec, indications=light)]
        deliveries = {}
        heavy = light_sock = None
        try:
            listener = transport.listen(
                "127.0.0.1:0",
                TransportEvents(
                    on_messages=lambda endpoint, batch: deliveries.setdefault(
                        endpoint.peer, []
                    ).append(list(batch))
                ),
            )
            host, port = listener.address.rsplit(":", 1)
            heavy = socket.create_connection((host, int(port)))
            light_sock = socket.create_connection((host, int(port)))
            names = ["%s:%d" % sock.getsockname()[:2] for sock in (heavy, light_sock)]
            # The writer blocks once the kernel buffers are full; the
            # loop, stepped below, is what drains them.
            writer = threading.Thread(
                target=heavy.sendall, args=(frame_messages(heavy_burst),)
            )
            writer.start()
            writer.join(0.2)
            if light_burst:
                light_sock.sendall(frame_messages(light_burst))

            def received(name):
                return [frame for batch in deliveries.get(name, ()) for frame in batch]

            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not (
                received(names[0])[-1:] == heavy_burst[-1:]
                and len(received(names[1])) >= len(light_burst)
            ):
                transport.step(0.01)
            writer.join(5.0)
            assert received(names[0])[-1:] == heavy_burst[-1:], "burst never finished"
            return (
                classify,
                heavy_burst,
                light_burst,
                [deliveries.get(name, []) for name in names],
                pressure.log,
            )
        finally:
            for sock in (heavy, light_sock):
                if sock is not None:
                    sock.close()
            transport.stop()

    @pytest.mark.parametrize("burst", sorted(SIZES))
    def test_lossless_up_to_max_queue_depth(self, burst):
        """1x: a burst of ``max_queue_depth`` frames arrives whole,
        nothing shed; 10x/100x: past it, shedding engages."""
        _classify, sent, _, (got, _), _log = self._drive(self.SIZES[burst])
        drops = counter_values().get("overload.drop.indication", 0)
        if burst == "1x":
            assert [frame for batch in got for frame in batch] == sent
            assert drops == 0
        else:
            assert drops > 0

    @pytest.mark.parametrize("burst", sorted(SIZES))
    def test_every_control_frame_is_delivered_in_send_order(self, burst):
        classify, sent, _, (got, _), _log = self._drive(self.SIZES[burst])
        control = [f for f in sent if classify(f) is TrafficClass.CONTROL]
        delivered = [
            f for batch in got for f in batch if classify(f) is TrafficClass.CONTROL
        ]
        assert delivered == control
        assert counter_values().get("overload.drop.control", 0) == 0

    @pytest.mark.parametrize("depth", [4, 32])
    @pytest.mark.parametrize("burst", sorted(SIZES))
    def test_delivered_batches_are_bounded_and_newest(self, burst, depth):
        """Queue memory is bounded: no delivered batch carries more than
        ``max_queue_depth`` indications, and those it carries are the
        newest of what its wakeup drained, at the class's budget and at
        one eight times larger."""
        overload = replace(self.OVERLOAD, max_queue_depth=depth)
        classify, sent, _, (got, _), log = self._drive(self.SIZES[burst], overload=overload)
        bound = overload.max_queue_depth
        assert [frame for drained, _ in log for frame in drained] == sent
        assert [admitted for _, admitted in log if admitted] == got
        for drained, admitted in log:
            drained_inds = [f for f in drained if classify(f) is TrafficClass.INDICATION]
            kept = [f for f in admitted if classify(f) is TrafficClass.INDICATION]
            assert len(kept) <= bound
            assert kept == drained_inds[len(drained_inds) - len(kept):]

    @pytest.mark.parametrize("burst", sorted(SIZES))
    def test_control_waits_behind_at_most_the_bound(self, burst):
        """The control-delay gate: however large the burst, a control
        frame has at most ``max_queue_depth`` indications ahead of it in
        its delivery, so its delay saturates at the queue bound."""
        classify, _, _, (got, _), _log = self._drive(self.SIZES[burst])
        for batch in got:
            ahead = 0
            for frame in batch:
                if classify(frame) is TrafficClass.INDICATION:
                    ahead += 1
                else:
                    assert ahead <= self.OVERLOAD.max_queue_depth

    @pytest.mark.parametrize("burst", sorted(SIZES))
    def test_a_light_burst_arrives_whole_beside_a_flood(self, burst):
        """Fairness: while one connection floods, a burst of at most
        ``max_queue_depth`` indications from a light connection is
        delivered whole."""
        light = self.OVERLOAD.max_queue_depth
        _, _, light_sent, (_, light_got), _log = self._drive(self.SIZES[burst], light=light)
        assert len(light_sent) == light
        assert [frame for batch in light_got for frame in batch] == light_sent


# -- keepalive under flood (satellite 2) -----------------------------


class TestKeepaliveUnderFlood:
    def test_service_query_round_trips_through_saturated_queue(self):
        """Flood the RIC's TCP loop with indications past the queue
        bound; a RIC service-query keepalive issued mid-flood must
        still round-trip (control class is never shed) while
        indications are dropped."""
        overload = OverloadConfig(max_queue_depth=8)
        server = Server(
            ServerConfig(e2ap_codec="fb", overload=overload, keepalive_interval_s=0.5)
        )
        classify = frame_classifier(server.codec)
        ingest = server.transport_events()
        delivered_inds = []

        def on_messages(endpoint, batch):
            # Log each delivered batch's indication count, then ingest.
            delivered_inds.append(
                sum(classify(frame) is TrafficClass.INDICATION for frame in batch)
            )
            ingest.on_messages(endpoint, batch)

        ric, ran = server.create_transport("tcp"), TcpTransport()
        try:
            listener = ric.listen(
                "127.0.0.1:0",
                TransportEvents(
                    on_connected=ingest.on_connected,
                    on_disconnected=ingest.on_disconnected,
                    on_messages=on_messages,
                ),
            )
            ric.start()
            ran.start()
            function = MacStatsFunction(
                provider=synthetic_provider(2), sm_codec="fb"
            )
            agent = make_agent(ran, functions=[function])
            agent.connect(listener.address)
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
                    # The slow consumer: each indication pins the loop
                    # long enough for the producer to win.
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
            # the flooded loop — and must survive it.
            assert updated.wait(10.0)
            counters = counter_values()
            assert counters["overload.drop.indication"] > 0
            assert counters.get("overload.drop.control", 0) == 0
            assert len(server.agents()) == 1  # never declared dead
            # The hard bound held on every delivery the loop made.
            assert max(delivered_inds) <= overload.max_queue_depth
        finally:
            ran.stop()
            ric.stop()
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
