"""Failure-injection tests: corrupt inputs, dead peers, mid-stream cuts.

The SDK sits on a network boundary; every byte that arrives may be
garbage.  These tests assert the failure envelope: codecs raise
:class:`CodecError` (never crash differently or hang), framing rejects
corrupt prefixes, and connection teardown leaves no dangling state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec.base import CodecError, get_codec, materialize
from repro.core.transport import Framer, InProcTransport, TransportEvents, frame_message
from repro.core.transport.framing import FramingError


class TestCodecFuzz:
    @pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
    @given(junk=st.binary(min_size=1, max_size=300))
    @settings(max_examples=120, deadline=None)
    def test_random_bytes_never_crash(self, codec_name, junk):
        """Decoding garbage either raises CodecError or yields a value
        tree (some byte strings happen to be valid) — never any other
        exception type."""
        codec = get_codec(codec_name)
        try:
            materialize(codec.decode(junk))
        except CodecError:
            pass
        except (EOFError, UnicodeDecodeError, OverflowError, MemoryError) as exc:
            pytest.fail(f"leaked low-level exception: {type(exc).__name__}: {exc}")

    @pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
    @given(
        tree=st.dictionaries(st.text(max_size=8), st.integers(-1000, 1000), max_size=5),
        cut=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncation_never_crashes(self, codec_name, tree, cut):
        codec = get_codec(codec_name)
        data = codec.encode(tree)
        truncated = data[: max(1, int(len(data) * cut))]
        try:
            result = materialize(codec.decode(truncated))
        except CodecError:
            return
        # A prefix may decode to a *different* valid value; it must at
        # least be inside the value model.
        from repro.core.codec.base import validate_tree

        validate_tree(result)

    @pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
    def test_bitflip_detected_or_tolerated(self, codec_name):
        codec = get_codec(codec_name)
        data = bytearray(codec.encode({"key": "value", "n": 12345}))
        for position in range(len(data)):
            corrupted = bytearray(data)
            corrupted[position] ^= 0xFF
            try:
                materialize(codec.decode(bytes(corrupted)))
            except CodecError:
                pass  # detected — fine

    def test_e2ap_decode_of_wrong_codec_bytes(self):
        """ASN bytes fed to the FB decoder (codec mismatch between
        peers) must fail cleanly."""
        from repro.core.e2ap.messages import ResetResponse, decode_message, encode_message

        data = encode_message(ResetResponse(), get_codec("asn"))
        with pytest.raises(CodecError):
            decode_message(data, get_codec("fb"))


class TestFramingCorruption:
    def test_corrupt_length_prefix(self):
        framer = Framer()
        good = frame_message(b"ok")
        evil = b"\xff\xff\xff\xff" + b"boom"
        framer.feed(good)
        with pytest.raises(FramingError):
            framer.feed(evil)

    def test_interleaved_good_frames_survive_until_corruption(self):
        framer = Framer()
        out = framer.feed(frame_message(b"a") + frame_message(b"b"))
        assert out == [b"a", b"b"]


class TestConnectionTeardown:
    def test_server_control_after_agent_gone(self):
        from repro.core.agent import Agent, AgentConfig
        from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
        from repro.core.server import Server, ServerConfig
        from repro.sm.hw import HwRanFunction, INFO as HW

        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), transport
        )
        agent.register_function(HwRanFunction())
        origin = agent.connect("ric")
        conn = server.agents()[0].conn_id
        agent.disconnect(origin)
        outcomes = []
        for _ in range(1000):
            with pytest.raises(ConnectionError):
                server.control(conn, HW.default_function_id, b"", b"", outcomes.append)
        with pytest.raises(ConnectionError):
            server.control(conn, HW.default_function_id, b"", b"")
        # RANDB and submgr are clean, and no outcome callback is kept.
        assert server.agents() == []
        assert len(server.submgr) == 0
        assert server._conns == {}
        assert outcomes == []

    def test_control_outstanding_at_disconnect_gets_one_failure(self):
        from repro.core.e2ap.messages import RicControlFailure
        from repro.core.e2ap.procedures import CauseKind
        from repro.core.server import Server, ServerConfig
        from repro.core.transport.tcp import TcpTransport
        from repro.sm.hw import INFO as HW

        # The agent end is a bare socket that never answers a control.
        server = Server(ServerConfig(e2ap_codec="fb"))
        ric = TcpTransport()
        try:
            listener = server.listen(ric, "127.0.0.1:0")
            ric.start()
            peer = ric.connect(listener.address, TransportEvents())
            assert _wait(lambda: len(server._conns) == 1)
            (conn,) = server._conns
            outcomes = []
            request = server.control(conn, HW.default_function_id, b"", b"x", outcomes.append)
            assert len(server._conns[conn].controls) == 1
            peer.close()
            assert _wait(lambda: outcomes)
            (failure,) = outcomes
            assert isinstance(failure, RicControlFailure)
            assert failure.request == request
            assert failure.ran_function_id == HW.default_function_id
            assert failure.cause.kind == CauseKind.TRANSPORT
            assert server._conns == {}
            time.sleep(0.05)
            assert len(outcomes) == 1
        finally:
            ric.stop()

    def test_subscriptions_purged_on_disconnect(self):
        from repro.core.agent import Agent, AgentConfig
        from repro.core.e2ap.ies import (
            GlobalE2NodeId,
            NodeKind,
            RicActionDefinition,
            RicActionKind,
        )
        from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
        from repro.sm.base import PeriodicTrigger
        from repro.sm.mac_stats import MacStatsFunction, synthetic_provider, INFO as MAC

        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), transport
        )
        function = MacStatsFunction(provider=synthetic_provider(2), sm_codec="fb")
        agent.register_function(function)
        origin = agent.connect("ric")
        server.subscribe(
            conn_id=server.agents()[0].conn_id,
            ran_function_id=MAC.default_function_id,
            event_trigger=PeriodicTrigger(1.0).to_bytes("fb"),
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(),
        )
        assert len(server.submgr) == 1
        agent.disconnect(origin)
        assert len(server.submgr) == 0

    def test_agent_reconnect_gets_fresh_state(self):
        from repro.core.agent import Agent, AgentConfig
        from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
        from repro.core.server import Server, ServerConfig
        from repro.sm.hw import HwRanFunction

        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), transport
        )
        agent.register_function(HwRanFunction())
        origin = agent.connect("ric")
        agent.disconnect(origin)
        agent.connect("ric")  # same node identity reconnects cleanly
        assert len(server.agents()) == 1

    def test_reset_clears_agent_subscriptions(self):
        from repro.core.agent import Agent, AgentConfig
        from repro.core.e2ap.ies import (
            GlobalE2NodeId,
            NodeKind,
            RicActionDefinition,
            RicActionKind,
        )
        from repro.core.e2ap.messages import ResetRequest
        from repro.core.e2ap.procedures import Cause, CauseKind
        from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
        from repro.sm.base import PeriodicTrigger
        from repro.sm.mac_stats import MacStatsFunction, synthetic_provider, INFO as MAC

        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), transport
        )
        function = MacStatsFunction(provider=synthetic_provider(2), sm_codec="fb")
        agent.register_function(function)
        agent.connect("ric")
        conn = server.agents()[0].conn_id
        server.subscribe(
            conn_id=conn,
            ran_function_id=MAC.default_function_id,
            event_trigger=PeriodicTrigger(1.0).to_bytes("fb"),
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(),
        )
        assert len(function.subscriptions) == 1
        server.send_to_agent(
            conn, ResetRequest(cause=Cause(CauseKind.MISC, Cause.UNSPECIFIED))
        )
        assert len(function.subscriptions) == 0


class TestConnectionUpdateProcedure:
    def test_agent_attaches_to_second_controller_on_command(self):
        """E2 connection update end to end (the Fig. 4 bootstrap)."""
        from repro.core.agent import Agent, AgentConfig
        from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind, TnlInformation
        from repro.core.e2ap.messages import E2ConnectionUpdate
        from repro.core.server import Server, ServerConfig
        from repro.sm.hw import HwRanFunction

        transport = InProcTransport()
        primary = Server(ServerConfig(e2ap_codec="fb"))
        primary.listen(transport, "ric-primary")
        secondary = Server(ServerConfig(e2ap_codec="fb"))
        secondary.listen(transport, "ric-secondary")
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.DU)), transport
        )
        agent.register_function(HwRanFunction())
        agent.connect("ric-primary")
        assert secondary.agents() == []
        primary.send_to_agent(
            primary.agents()[0].conn_id,
            E2ConnectionUpdate(add=[TnlInformation("ric-secondary", 0)]),
        )
        assert len(secondary.agents()) == 1
        assert len(agent.controllers) == 2


# ---------------------------------------------------------------------------
# Poison frames: well-framed, decodable envelopes whose body does not fit
# the message class (ISSUE 18).  Before the generated ``from_value`` these
# escaped as ValueError/TypeError and killed the only ingest loop.
# ---------------------------------------------------------------------------

import dataclasses
import threading
import time
import typing
from enum import IntEnum

import tests.test_codec_golden as golden
from repro.core.e2ap.messages import decode_message, encode_message
from repro.metrics import counters


def _poisons(cls, tree):
    """(dotted wire path, poisoned copy of ``tree``) for every enum-typed,
    nested and sequence field of wire dataclass ``cls``, recursively."""
    hints = typing.get_type_hints(cls)
    for f, (key, spec) in zip(dataclasses.fields(cls), cls.wire_schema.fields):
        tp = hints[f.name]
        if spec.kind == "nested":
            yield key, {**tree, key: 7}  # scalar where a struct belongs
            for path, sub in _poisons(tp, tree[key]):
                yield f"{key}.{path}", {**tree, key: sub}
        elif spec.kind == "seq":
            yield key, {**tree, key: 7}  # scalar where a list belongs
            if spec.elem.kind == "nested" and tree[key]:
                first, rest = tree[key][0], tree[key][1:]
                yield key, {**tree, key: [7] + rest}
                for path, sub in _poisons(typing.get_args(tp)[0], first):
                    yield f"{key}.{path}", {**tree, key: [sub] + rest}
        elif isinstance(tp, type) and issubclass(tp, IntEnum):
            yield key, {**tree, key: 99}  # out-of-range enum value


def _poison_cases():
    for name, message in sorted(golden._messages().items()):
        for path, body in _poisons(type(message), message.to_value()):
            yield pytest.param(type(message), path, body, id=f"{name}-{path}")


class TestPoisonBodies:
    @pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
    @pytest.mark.parametrize("cls, path, body", list(_poison_cases()))
    def test_decode_message_raises_codec_error(self, codec_name, cls, path, body):
        codec = get_codec(codec_name)
        wire = codec.encode(
            {"p": int(cls.procedure), "c": int(cls.msg_class), "v": body}
        )
        with pytest.raises(CodecError) as excinfo:
            decode_message(wire, codec)
        assert excinfo.value.message_type == cls.__name__
        assert excinfo.value.field == path

    def test_every_message_with_a_poisonable_field_is_covered(self):
        covered = {case.values[0] for case in _poison_cases()}
        poisonable = {
            cls
            for cls in golden.message_types().values()
            if any(
                spec.kind in ("nested", "seq")
                for _key, spec in cls.wire_schema.fields
            )
        }
        assert poisonable <= covered


def _poison_setup(codec):
    """A valid E2SetupRequest whose NodeKind is 99."""
    return codec.encode(
        {"p": 1, "c": 0, "v": {"n": {"p": "00101", "n": 1, "k": 99}, "f": []}}
    )


def _wait(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


class TestPoisonFrameEndToEnd:
    """One poison frame must cost one counter tick — not the RIC."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        counters.reset_counters("server.rx.")
        counters.reset_counters("agent.rx.")
        counters.reset_counters("decode.")

    def _healthy_agent(self, transport, nb_id=2):
        from repro.core.agent import Agent, AgentConfig
        from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
        from repro.sm.hw import HwRanFunction

        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", nb_id, NodeKind.GNB)), transport
        )
        agent.register_function(HwRanFunction())
        return agent

    def _assert_contained(self):
        assert counters.get_counter("server.rx.decode_error").value == 1
        assert counters.get_counter("decode.contained").value == 1

    def test_server_survives_over_tcp(self):
        import socket

        from repro.core.server import Server
        from repro.core.transport.tcp import TcpTransport

        server = Server()  # default config: one loop is the whole RIC
        ric, ran = TcpTransport(), TcpTransport()
        try:
            listener = server.listen(ric, "127.0.0.1:0")
            ric.start()
            ran.start()
            host, port = listener.address.rsplit(":", 1)
            with socket.create_connection((host, int(port))) as sock:
                sock.sendall(frame_message(_poison_setup(server.codec)))
                assert _wait(
                    lambda: counters.get_counter("server.rx.decode_error").value >= 1
                )
                self._assert_contained()
                loops = [t for t in threading.enumerate() if t.name == "tcp-transport-0"]
                assert len(loops) == 2 and all(t.is_alive() for t in loops)
                # The poisoned connection is kept, and the loop serves others.
                self._healthy_agent(ran).connect(listener.address)
                assert _wait(lambda: len(server.agents()) == 1)
        finally:
            ran.stop()
            ric.stop()

    def test_server_survives_over_inproc(self):
        from repro.core.server import Server

        transport = InProcTransport()
        server = Server()
        server.listen(transport, "ric")
        rogue = transport.connect("ric", TransportEvents())
        good = server.codec.encode({"p": 3, "c": 1, "v": {}})  # ResetResponse
        # The rest of the batch is still served: frames around the
        # poison one are ingested, the sender sees no exception.
        rogue.send_many([good, _poison_setup(server.codec), good])
        self._assert_contained()
        assert not rogue.closed
        self._healthy_agent(transport).connect("ric")
        assert len(server.agents()) == 1

    def test_agent_answers_error_indication_and_keeps_serving(self):
        from repro.core.e2ap.ies import RicRequestId
        from repro.core.e2ap.messages import (
            E2SetupRequest,
            E2SetupResponse,
            ErrorIndication,
            RicServiceQuery,
            RicServiceUpdate,
        )

        codec = get_codec("fb")
        replies = []

        def fake_ric(endpoint, data):
            message = decode_message(data, codec)
            replies.append(message)
            if isinstance(message, E2SetupRequest):
                endpoint.send(encode_message(E2SetupResponse(ric_id=1), codec))

        transport = InProcTransport()
        accepted = []
        transport.listen(
            "ric", TransportEvents(on_connected=accepted.append, on_message=fake_ric)
        )
        agent = self._healthy_agent(transport)
        agent.connect("ric")
        (endpoint,) = accepted
        # A subscription request whose only action has kind 9.
        request = RicRequestId(1, 1).to_value()
        action = {"a": 1, "k": 9, "d": b"", "s": True}
        endpoint.send(
            codec.encode(
                {"p": 8, "c": 0, "v": {"q": request, "f": 100, "t": b"", "a": [action]}}
            )
        )
        assert isinstance(replies[-1], ErrorIndication)
        assert "RicSubscriptionRequest" in replies[-1].cause.detail
        assert counters.get_counter("agent.rx.decode_error").value == 1
        assert counters.get_counter("decode.contained").value == 1
        endpoint.send(encode_message(RicServiceQuery(), codec))
        assert isinstance(replies[-1], RicServiceUpdate)


def _poison_indications(codec):
    """Well-framed indications whose body does not fit the class: no
    request id, a scalar for the request id, a scalar for the body."""
    good = {"q": {"r": 1, "i": 1}, "f": 100, "a": 1, "s": 0, "k": 0, "h": b"", "m": b"x"}
    no_request = {key: value for key, value in good.items() if key != "q"}
    return [
        codec.encode({"p": 5, "c": 0, "v": body})
        for body in (no_request, dict(good, q=7), 5)
    ]


class TestPoisonIndication:
    """The hot-path class PR 18's containment missed: the header scalars
    were read inside ``deliver_indication``, outside the ingest loop's
    ``try``, so one frame killed the only ingest thread — remotely."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        counters.reset_counters("server.")
        counters.reset_counters("decode.")

    @staticmethod
    def _contained():
        return counters.get_counter("decode.contained").value

    @pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
    def test_server_survives_over_tcp(self, codec_name):
        import socket

        from repro.core.server import Server, ServerConfig
        from repro.core.transport.tcp import TcpTransport

        server = Server(ServerConfig(e2ap_codec=codec_name))
        ric = TcpTransport()
        try:
            listener = server.listen(ric, "127.0.0.1:0")
            ric.start()
            host, port = listener.address.rsplit(":", 1)
            with socket.create_connection((host, int(port))) as sock:
                for count, frame in enumerate(_poison_indications(server.codec), 1):
                    sock.sendall(frame_message(frame))
                    assert _wait(lambda: self._contained() >= count)
                    assert self._contained() == count
                (loop,) = [t for t in threading.enumerate() if t.name == "tcp-transport-0"]
                assert loop.is_alive()
                assert counters.get_counter("server.rx.decode_error").value == 3
        finally:
            ric.stop()

    @pytest.mark.parametrize("codec_name", ["asn", "fb"])
    def test_rest_of_the_batch_is_served_over_inproc(self, codec_name):
        from repro.core.server import Server, ServerConfig

        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec=codec_name))
        server.listen(transport, "ric")
        rogue = transport.connect("ric", TransportEvents())
        rogue.send_many(_poison_indications(server.codec))
        assert self._contained() == 3 and not rogue.closed
        from repro.core.agent import Agent, AgentConfig
        from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind

        node_id = GlobalE2NodeId("00101", 2, NodeKind.GNB)
        Agent(AgentConfig(node_id=node_id, e2ap_codec=codec_name), transport).connect("ric")
        assert len(server.agents()) == 1

    @pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
    def test_a_kind_outside_the_enum_is_contained_at_route_time(self, codec_name):
        """``k`` = 7 used to be routed to every sink, and the first iApp
        that read ``event.kind`` (the relay) raised there, counted as a
        callback error.  Now the row is refused before any sink: one
        ``decode.contained`` tick per frame, negatives included."""
        import socket

        from repro.core.e2ap.messages import RicIndication, RicIndicationKind
        from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
        from repro.core.transport.tcp import TcpTransport

        server = Server(ServerConfig(e2ap_codec=codec_name))
        seen = []
        record = server.submgr.create(1, 100, SubscriptionCallbacks(on_indication=seen.append))
        body = RicIndication(record.request, 100, 1, 0).to_value()
        ric = TcpTransport()
        try:
            listener = server.listen(ric, "127.0.0.1:0")
            ric.start()
            host, port = listener.address.rsplit(":", 1)
            with socket.create_connection((host, int(port))) as sock:
                for count, kind in enumerate((7, -1), 1):
                    frame = server.codec.encode({"p": 5, "c": 0, "v": dict(body, k=kind)})
                    sock.sendall(frame_message(frame))
                    assert _wait(lambda: self._contained() >= count)
                    assert self._contained() == count and seen == []
                # The loop is alive and still delivers.
                frame = server.codec.encode({"p": 5, "c": 0, "v": dict(body, s=1, k=1)})
                sock.sendall(frame_message(frame))
                assert _wait(lambda: len(seen) == 1)
            (loop,) = [t for t in threading.enumerate() if t.name == "tcp-transport-0"]
            assert loop.is_alive()
            assert seen[0].kind is RicIndicationKind.INSERT and seen[0].sequence == 1
            assert self._contained() == 2
            assert counters.get_counter("server.iapp.callback_error").value == 0
        finally:
            ric.stop()

    def test_a_raising_iapp_callback_costs_one_counter_tick(self):
        from repro.core.e2ap.ies import RicRequestId
        from repro.core.e2ap.messages import RicIndication
        from repro.core.server import Server, SubscriptionCallbacks

        transport = InProcTransport()
        server = Server()
        server.listen(transport, "ric")
        TestPoisonFrameEndToEnd._healthy_agent(None, transport).connect("ric")
        seen = []

        def on_indication(event):
            seen.append(event.sequence)
            if event.sequence == 1:
                raise RuntimeError("iApp bug")

        record = server.submgr.create(1, 100, SubscriptionCallbacks(on_indication=on_indication))
        rogue = transport.connect("ric", TransportEvents())
        rogue.send_many([
            encode_message(RicIndication(record.request, 100, 1, sequence), server.codec)
            for sequence in range(3)
        ])
        # Indications route on the request id alone, so the second
        # connection reaches the record: three calls, one contained.
        assert seen == [0, 1, 2]
        assert counters.get_counter("server.iapp.callback_error").value == 1
        assert self._contained() == 0


import contextlib


@contextlib.contextmanager
def _ric(kind):
    """A default ``Server`` behind ``kind``; yields it with a ``connect(nb_id)``
    that attaches a healthy HW agent the way a deployment would."""
    from repro.core.server import Server
    from repro.core.transport.tcp import TcpTransport

    server = Server()
    with contextlib.ExitStack() as stack:
        if kind == "inproc":
            ran, address = InProcTransport(), "ric"
            server.listen(ran, address)
        else:
            ran = TcpTransport()
            ran.start()
            stack.callback(ran.stop)
            ric = TcpTransport()
            stack.callback(ric.stop)
            address = server.listen(ric, "127.0.0.1:0").address
            ric.start()
        healthy = TestPoisonFrameEndToEnd._healthy_agent
        yield server, lambda nb_id: healthy(None, ran, nb_id).connect(address)


class TestRaisingSlowPathCallback:
    """PR 21 contained ``on_indication``; the outcome callbacks and bus
    subscribers run on the same loop, and one loop is every node."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        counters.reset_counters("server.")

    @pytest.mark.parametrize("kind", ["tcp", "inproc"])
    @pytest.mark.parametrize(
        "where", ["on_success", "on_failure", "on_deleted", "control_outcome", "bus_subscriber"]
    )
    def test_costs_one_counter_tick_and_the_loop_serves_the_next_node(self, kind, where):
        from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
        from repro.core.server import SubscriptionCallbacks
        from repro.core.server import events as topics
        from repro.sm.hw import INFO as HW, build_ping

        calls = []

        def boom(*args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("iApp bug")

        def subscribe(server, conn_id, function_id=HW.default_function_id, **callbacks):
            return server.subscribe(
                conn_id, function_id, b"", [RicActionDefinition(1, RicActionKind.REPORT)],
                SubscriptionCallbacks(**callbacks),
            )

        errors = counters.get_counter("server.iapp.callback_error")
        with _ric(kind) as (server, connect):
            if where == "bus_subscriber":
                server.events.subscribe(topics.AGENT_CONNECTED, boom)
            connect(1)
            assert _wait(lambda: len(server.agents()) == 1)
            first = server.agents()[0].conn_id
            if where == "on_success":
                subscribe(server, first, on_success=boom)
            elif where == "on_failure":
                subscribe(server, first, function_id=999, on_failure=boom)
            elif where == "on_deleted":
                record = subscribe(server, first, on_deleted=boom)
                assert _wait(lambda: record.confirmed)
                server.unsubscribe(record)
            elif where == "control_outcome":
                server.control(first, HW.default_function_id, b"", build_ping(1, b"x", "fb"), boom)
            assert _wait(lambda: errors.value >= 1)
            loops = [t for t in threading.enumerate() if t.name == "tcp-transport-0"]
            assert len(loops) == (0 if kind == "inproc" else 2)
            assert all(t.is_alive() for t in loops)
            # The same loop still takes a second node through setup + subscribe.
            connect(2)
            assert _wait(lambda: len(server.agents()) == 2)
            second = max(record.conn_id for record in server.agents())
            ok = threading.Event()
            subscribe(server, second, on_success=lambda response: ok.set())
            assert ok.wait(5.0)
            assert len(calls) == (2 if where == "bus_subscriber" else 1)
            assert errors.value == 1


class TestMalformedControl:
    """A control payload an SM cannot decode is answered with a
    ``RicControlFailure`` by the agent, whichever SM it names; the
    agent's loop keeps serving."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        counters.reset_counters("decode.")

    @pytest.mark.parametrize("kind", ["tcp", "inproc"])
    @pytest.mark.parametrize("sm", ["hw", "tc"])
    def test_answered_with_failure_and_the_next_ping_is_served(self, kind, sm):
        from repro.core.agent import Agent, AgentConfig
        from repro.core.e2ap.ies import (
            GlobalE2NodeId,
            NodeKind,
            RicActionDefinition,
            RicActionKind,
        )
        from repro.core.e2ap.messages import RicControlAcknowledge, RicControlFailure
        from repro.core.e2ap.procedures import Cause
        from repro.core.server import Server, SubscriptionCallbacks
        from repro.core.transport.tcp import TcpTransport
        from repro.sm.base import PeriodicTrigger
        from repro.sm.hw import INFO as HW, HwRanFunction, build_ping
        from repro.sm.traffic_ctrl import INFO as TC, TrafficCtrlFunction

        server = Server()
        with contextlib.ExitStack() as stack:
            if kind == "tcp":
                ric, ran = TcpTransport(), TcpTransport()
                stack.callback(ric.stop)
                stack.callback(ran.stop)
                address = server.listen(ric, "127.0.0.1:0").address
                ric.start()
                ran.start()
            else:
                ran, address = InProcTransport(), "ric"
                server.listen(ran, address)
            agent = Agent(AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), ran)
            agent.register_function(HwRanFunction())
            agent.register_function(TrafficCtrlFunction(pipelines=lambda: {}))
            agent.connect(address)
            (conn,) = [record.conn_id for record in server.agents()]
            pongs = threading.Event()
            record = server.subscribe(
                conn, HW.default_function_id, PeriodicTrigger(0.0).to_bytes("fb"),
                [RicActionDefinition(1, RicActionKind.REPORT)],
                SubscriptionCallbacks(on_indication=lambda event: pongs.set()),
            )
            assert _wait(lambda: record.confirmed)
            outcomes = []
            if sm == "hw":
                server.control(conn, HW.default_function_id, b"", b"bad!", outcomes.append)
            else:
                server.control(conn, TC.default_function_id, b"bad!", b"", outcomes.append)
            assert _wait(lambda: outcomes)
            (failure,) = outcomes
            assert isinstance(failure, RicControlFailure)
            assert failure.cause.value == Cause.CONTROL_MESSAGE_INVALID
            assert counters.get_counter("decode.contained").value == 1
            if kind == "tcp":
                assert ran._thread is not None and ran._thread.is_alive()
            ping = build_ping(1, b"x", "fb")
            server.control(conn, HW.default_function_id, b"", ping, outcomes.append)
            assert _wait(lambda: len(outcomes) == 2)
            assert isinstance(outcomes[1], RicControlAcknowledge)
            assert pongs.wait(5.0)


#: (action, peer, argument, step the loop to quiescence afterwards?) — an
#: unpumped action leaves its bytes in the socket for the next drain to
#: find together with whatever follows.
_SCRIPT_STEP = st.one_of(
    st.tuples(st.just("burst"), st.integers(0, 3), st.integers(1, 20), st.booleans()),
    st.tuples(st.just("split"), st.integers(0, 3), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("poison"), st.integers(0, 3), st.integers(0, 2), st.booleans()),
    # the terminal condition rides in the same write as ``arg`` last frames
    st.tuples(
        st.sampled_from(["oversize", "half_close"]),
        st.integers(0, 3),
        st.integers(0, 8),
        st.booleans(),
    ),
    st.tuples(st.just("new_peer"), st.just(0), st.just(0), st.just(True)),
)


class TestOneLoopProperty:
    """What every node gets from the one selector loop, whatever its
    neighbours on that loop do: raw-socket peers run a generated script
    against an inline-stepped ``TcpTransport`` and a default ``Server``."""

    @settings(max_examples=40, deadline=None)
    @given(script=st.lists(_SCRIPT_STEP, min_size=1, max_size=12))
    def test_generated_peer_scripts(self, script):
        import socket

        from repro.core.e2ap.messages import RicIndication
        from repro.core.server import Server, SubscriptionCallbacks
        from repro.core.transport.tcp import TcpTransport

        counters.reset_counters("server.")
        counters.reset_counters("decode.")
        contained = counters.get_counter("decode.contained")
        server, transport = Server(), TcpTransport()
        ingest = server.transport_events()
        #: transport-level history per accepted endpoint, in accept order.
        logs, by_endpoint = [], {}
        #: the model: per peer its socket, the sequences written, the
        #: sequences its iApp saw, the poison frames written, whether a
        #: terminal condition was sent.
        socks, sent, seen, records, poisons, ended = [], [], [], [], [], []

        def on_connected(endpoint):
            by_endpoint[id(endpoint)] = log = ["connected"]
            logs.append(log)
            ingest.on_connected(endpoint)

        def on_messages(endpoint, batch):
            by_endpoint[id(endpoint)].extend(["frame"] * len(batch))
            ingest.on_messages(endpoint, batch)

        def on_disconnected(endpoint, reason):
            by_endpoint[id(endpoint)].append(reason.code)
            ingest.on_disconnected(endpoint, reason)

        def settled():
            return (
                len(logs) == len(socks)
                and seen == sent
                and contained.value == sum(poisons)
                and [log[-1] in ("eof", "protocol") for log in logs] == ended
            )

        def settle():
            deadline = time.monotonic() + 2.0
            while not settled() and time.monotonic() < deadline:
                assert transport.step(0.01) >= 0
            assert settled(), (script, logs, sent, seen)

        def new_peer():
            sink = []
            seen.append(sink)
            sent.append([])
            poisons.append(0)
            ended.append(False)
            records.append(
                server.submgr.create(
                    1, 100, SubscriptionCallbacks(on_indication=lambda e: sink.append(e.sequence))
                )
            )
            socks.append(socket.create_connection(("127.0.0.1", listener.port)))

        def indications(peer, count):
            start = len(sent[peer])
            sent[peer].extend(range(start, start + count))
            return b"".join(
                frame_message(
                    encode_message(RicIndication(records[peer].request, 100, 1, seq), server.codec)
                )
                for seq in range(start, start + count)
            )

        try:
            listener = transport.listen(
                "127.0.0.1:0",
                TransportEvents(
                    on_connected=on_connected,
                    on_messages=on_messages,
                    on_disconnected=on_disconnected,
                ),
            )
            new_peer()
            settle()
            for action, target, arg, pump in script:
                peer = target % len(socks)
                if action == "new_peer":
                    if len(socks) < 4:
                        new_peer()
                elif ended[peer]:
                    continue
                elif action == "burst":
                    socks[peer].sendall(indications(peer, arg))
                elif action == "split":
                    wire = indications(peer, 1)
                    cut = 1 + arg % (len(wire) - 1)
                    socks[peer].sendall(wire[:cut])
                    for _ in range(3):
                        transport.step(0.002)
                    assert sent[peer][-1] not in seen[peer]  # half a frame is no frame
                    socks[peer].sendall(wire[cut:])
                elif action == "poison":
                    poisons[peer] += 1
                    socks[peer].sendall(frame_message(_poison_indications(server.codec)[arg]))
                else:
                    ended[peer] = True
                    last = indications(peer, arg)
                    if action == "oversize":
                        socks[peer].sendall(last + b"\xff\xff\xff\xff")
                    else:
                        socks[peer].sendall(last)
                        socks[peer].shutdown(socket.SHUT_WR)
                if pump:
                    settle()
            settle()
            for peer, log in enumerate(logs):
                # Announced first, terminal event last, and every frame
                # written before the terminal condition in between.
                assert log[0] == "connected"
                frames = log[1:-1] if ended[peer] else log[1:]
                assert frames == ["frame"] * (len(sent[peer]) + poisons[peer])
            assert isinstance(transport.step(0), int)
        finally:
            for sock in socks:
                sock.close()
            transport.stop()
            server.close()


class _ScriptedEndpoint:
    """A server-side endpoint whose ``send`` runs ``on_send`` (once armed)."""

    def __init__(self) -> None:
        self.sent = []
        self.closed = False
        self.on_send = None

    @property
    def peer(self) -> str:
        return "scripted"

    def send(self, data: bytes) -> None:
        if self.on_send is not None:
            self.on_send()
        self.sent.append(data)

    def close(self) -> None:
        self.closed = True


def _attached_node(server, endpoint):
    """``endpoint`` connected to ``server`` and through E2 setup."""
    from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind, RanFunctionItem
    from repro.core.e2ap.messages import E2SetupRequest

    server._on_connected(endpoint)
    setup = E2SetupRequest(GlobalE2NodeId("00101", 7, NodeKind.GNB), [RanFunctionItem(142, b"")])
    server._on_messages(endpoint, [encode_message(setup, server.codec)])
    (record,) = server.agents()
    return record


class TestKeepaliveSendFailure:
    """A keepalive send that fails closes the endpoint, which reports the
    disconnect re-entrantly (``_slow_lock`` is an ``RLock``) before the
    send raises: the node is lost once, not once per path."""

    @pytest.mark.parametrize("grace_s", [0.0, 5.0])
    def test_one_failed_keepalive_send_reports_the_node_lost_once(self, grace_s):
        from repro.core.server import Server, ServerConfig
        from repro.core.server import events as topics
        from repro.core.server.iapp import IApp

        now = [100.0]
        server = Server(
            ServerConfig(keepalive_interval_s=1.0, stale_grace_s=grace_s), time_fn=lambda: now[0]
        )

        lost = []

        class Watcher(IApp):
            def on_agent_disconnected(self, agent):
                lost.append(agent)

        server.add_iapp(Watcher())
        published = {topics.AGENT_DISCONNECTED: [], topics.NODE_STALE: []}
        for topic, seen in published.items():
            server.events.subscribe(topic, seen.append)
        endpoint = _ScriptedEndpoint()
        record = _attached_node(server, endpoint)

        def fail_like_a_dead_socket():
            endpoint.closed = True
            server._on_disconnected(endpoint)
            raise ConnectionError("peer reset")

        endpoint.on_send = fail_like_a_dead_socket
        counters.reset_counters("server.")
        now[0] += 10.0
        assert server.keepalive_tick() == 0
        assert server._conns == {} and server._by_endpoint == {}
        assert counters.get_counter("server.keepalive.dead").value == 0
        if grace_s:
            assert published[topics.NODE_STALE] == [record]
            assert counters.get_counter("server.node.stale").value == 1
            assert published[topics.AGENT_DISCONNECTED] == [] and lost == []
        else:
            assert published[topics.AGENT_DISCONNECTED] == [record]
            assert lost == [record]
            assert published[topics.NODE_STALE] == []
            assert server.agents() == []


class TestAckToAGoneNode:
    """A node that sends a service or configuration update and leaves
    before the acknowledgement: the failed send reports the loss, no
    iApp is blamed for it, and what else the node sent is not served."""

    @pytest.mark.parametrize("update", ["service", "config"])
    def test_a_failed_ack_costs_no_callback_error(self, update):
        from repro.core.e2ap.ies import RanFunctionItem
        from repro.core.e2ap.messages import E2NodeConfigurationUpdate, RicServiceUpdate
        from repro.core.server import Server, ServerConfig

        server = Server(ServerConfig())
        endpoint = _ScriptedEndpoint()
        record = _attached_node(server, endpoint)

        def fail_like_a_dead_socket():
            endpoint.closed = True
            server._on_disconnected(endpoint)
            raise ConnectionError("broken pipe")

        endpoint.on_send = fail_like_a_dead_socket
        counters.reset_counters("server.")
        message = (
            RicServiceUpdate(added=[RanFunctionItem(143, b"")])
            if update == "service"
            else E2NodeConfigurationUpdate(record.node_id, config={"cell": "1"})
        )
        # The rest of the batch belongs to a connection that is gone: a
        # second update is not applied to a node the RANDB no longer has.
        server._on_messages(endpoint, [encode_message(message, server.codec)] * 2)
        assert counters.get_counter("server.iapp.callback_error").value == 0
        assert server.agents() == [] and record.conn_id not in server._conns
        assert len(endpoint.sent) == 1  # the setup response


class TestUnsentSubscribe:
    """A subscribe whose request cannot be sent registers nothing that
    a later equal subscribe could share."""

    def _args(self):
        from repro.core.e2ap.ies import RicActionDefinition, RicActionKind

        return 142, b"\x00trigger", [RicActionDefinition(1, RicActionKind.REPORT)]

    @pytest.mark.parametrize("overload", [False, True])
    def test_equal_subscribes_to_a_gone_connection_each_raise(self, overload):
        from repro.core.overload import OverloadConfig
        from repro.core.server import Server, ServerConfig, SubscriptionCallbacks

        server = Server(ServerConfig(overload=OverloadConfig() if overload else None))
        failures = []
        for _ in range(3):
            with pytest.raises(ConnectionError):
                server.subscribe(
                    42, *self._args(), SubscriptionCallbacks(on_failure=failures.append)
                )
            assert len(server.submgr) == 0
        assert failures == []
        if overload:
            assert server.admission.state()["pending_subscriptions"] == 0

    def test_a_sink_that_attached_before_the_send_failed_gets_one_failure(self):
        from repro.core.e2ap.messages import RicSubscriptionFailure
        from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
        from repro.core.server.submgr import SinkHandle

        server = Server(ServerConfig())
        endpoint = _ScriptedEndpoint()
        record = _attached_node(server, endpoint)
        sink_failures, primary_failures, handles = [], [], []

        def attach_then_fail():
            endpoint.on_send = None
            handles.append(server.subscribe(
                record.conn_id, *self._args(), SubscriptionCallbacks(on_failure=sink_failures.append)
            ))
            raise ConnectionError("peer reset")

        endpoint.on_send = attach_then_fail
        with pytest.raises(ConnectionError):
            server.subscribe(
                record.conn_id, *self._args(), SubscriptionCallbacks(on_failure=primary_failures.append)
            )
        (handle,) = handles
        assert isinstance(handle, SinkHandle)
        (failure,) = sink_failures
        assert isinstance(failure, RicSubscriptionFailure) and failure.request == handle.request
        assert primary_failures == []
        assert len(server.submgr) == 0
        server.unsubscribe(handle)  # nothing left to delete on the wire
        assert len(endpoint.sent) == 1  # the setup response only


class TestEnumMembersOnEncode:
    """An ``IntEnum`` field holding a value that is not a member encodes
    on no codec and no lane: every decoder would reject it."""

    @staticmethod
    def _messages():
        from repro.core.e2ap.ies import (
            GlobalE2NodeId,
            RicActionDefinition,
            RicActionKind,
            RicRequestId,
        )
        from repro.core.e2ap.messages import (
            E2SetupRequest,
            ErrorIndication,
            RicIndication,
            RicSubscriptionRequest,
        )
        from repro.core.e2ap.procedures import Cause

        request = RicRequestId(1, 2)
        return {
            "a.k": RicSubscriptionRequest(request, 142, b"", [
                RicActionDefinition(1, RicActionKind.REPORT), RicActionDefinition(2, 9)
            ]),
            "k": RicIndication(request, 142, 1, 0, 7),
            "c.k": ErrorIndication(Cause(17, 1, "bad kind")),
            "n.k": E2SetupRequest(GlobalE2NodeId("00101", 1, 42)),
        }

    @pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
    @pytest.mark.parametrize("kernels", [True, False], ids=["object-lane", "tree-lane"])
    def test_a_non_member_raises_naming_message_and_field(self, codec_name, kernels):
        from repro.core.codec import codegen

        codec = get_codec(codec_name)
        prev = codegen.kernels_enabled()
        codegen.set_kernels_enabled(kernels)
        try:
            for field, message in self._messages().items():
                with pytest.raises(CodecError) as excinfo:
                    encode_message(message, codec)
                assert excinfo.value.message_type == type(message).__name__
                assert excinfo.value.field == field
        finally:
            codegen.set_kernels_enabled(prev)

    def test_a_subscribe_with_a_non_member_action_registers_nothing(self):
        from repro.core.e2ap.ies import RicActionDefinition
        from repro.core.server import Server, ServerConfig, SubscriptionCallbacks

        server = Server(ServerConfig())
        endpoint = _ScriptedEndpoint()
        record = _attached_node(server, endpoint)
        for _ in range(2):
            with pytest.raises(CodecError):
                server.subscribe(
                    record.conn_id, 142, b"", [RicActionDefinition(1, 9)], SubscriptionCallbacks()
                )
            assert len(server.submgr) == 0
        assert len(endpoint.sent) == 1


from repro.core.server.iapp import IApp


class _NodeHooks(IApp):
    """An iApp that logs the node hooks it hears; ``raising`` names the
    hook it raises from, every time."""

    def __init__(self, raising=""):
        super().__init__()
        self.raising = raising
        self.heard = []

    def _hear(self, hook, agent):
        self.heard.append((hook, agent.node_id.nb_id))
        if hook == self.raising:
            raise RuntimeError("iApp bug")

    def on_agent_connected(self, agent):
        self._hear("connected", agent)

    def on_agent_disconnected(self, agent):
        self._hear("disconnected", agent)


def _raise(payload):
    raise RuntimeError("subscriber bug")


class TestRaisingNodeLifecycleCallback:
    """Node loss runs on the transport loop that ingests every node, and
    setup and grace expiry serve many nodes in one call: an iApp hook or
    a bus subscriber that raises there costs one counter tick."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        counters.reset_counters("server.")

    @staticmethod
    def _mac_agent(transport, nb_id):
        from repro.core.agent import Agent, AgentConfig
        from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
        from repro.sm import mac_stats

        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", nb_id, NodeKind.GNB)), transport
        )
        mac = mac_stats.MacStatsFunction(mac_stats.synthetic_provider(2), sm_codec="fb")
        agent.register_function(mac)
        return agent, mac

    @pytest.mark.parametrize("where", ["iapp_hook", "bus_disconnected", "bus_stale"])
    def test_node_loss_over_tcp_keeps_the_loop_and_the_other_node(self, where):
        from repro.controllers.monitoring import StatsMonitorIApp
        from repro.core.server import Server, ServerConfig
        from repro.core.server import events as topics
        from repro.core.transport.tcp import TcpTransport
        from repro.sm import mac_stats

        grace = 60.0 if where == "bus_stale" else 0.0
        server = Server(ServerConfig(stale_grace_s=grace))
        monitor = StatsMonitorIApp(oids=[mac_stats.INFO.oid], period_ms=1, sm_codec="fb")
        raising = _NodeHooks("disconnected" if where == "iapp_hook" else "")
        later = _NodeHooks()
        for iapp in (monitor, raising, later):
            server.add_iapp(iapp)
        if where == "bus_disconnected":
            server.events.subscribe(topics.AGENT_DISCONNECTED, _raise)
        elif where == "bus_stale":
            server.events.subscribe(topics.NODE_STALE, _raise)
        ric, ran1, ran2 = TcpTransport(), TcpTransport(), TcpTransport()
        try:
            address = server.listen(ric, "127.0.0.1:0").address
            for transport in (ric, ran1, ran2):
                transport.start()
            agent1, _ = self._mac_agent(ran1, 1)
            agent2, mac2 = self._mac_agent(ran2, 2)
            agent1.connect(address)
            agent2.connect(address)
            assert _wait(lambda: monitor.subscriptions_confirmed == 2)
            loop = ric._thread
            ran1.stop()
            errors = counters.get_counter("server.iapp.callback_error")
            assert _wait(lambda: errors.value >= 1)
            before = monitor.indications_received
            for _ in range(20):
                mac2.pump()
            assert _wait(lambda: monitor.indications_received == before + 20)
            assert errors.value == 1
            assert loop.is_alive()
            if where == "bus_stale":
                assert monitor.nodes_stale == 1
            else:
                assert ("disconnected", 1) in raising.heard
                assert later.heard[-1] == ("disconnected", 1)
                assert [record.node_id.nb_id for record in server.agents()] == [2]
        finally:
            ran2.stop()
            ran1.stop()
            ric.stop()

    def test_grace_expiry_expires_every_node_past_raising_callbacks(self):
        from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
        from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
        from repro.core.server import events as topics
        from repro.sm import mac_stats
        from repro.sm.base import PeriodicTrigger

        clock = [0.0]
        server = Server(ServerConfig(stale_grace_s=5.0), time_fn=lambda: clock[0])
        raising, later = _NodeHooks("disconnected"), _NodeHooks()
        server.add_iapp(raising)
        server.add_iapp(later)
        server.events.subscribe(topics.NODE_EXPIRED, _raise)
        transport = InProcTransport()
        server.listen(transport, "ric")
        agents = [self._mac_agent(transport, nb_id)[0] for nb_id in (1, 2)]
        origins = [agent.connect("ric") for agent in agents]
        # Node 1's parked subscription fails terminally, into a raising
        # ``on_failure``.
        record = server.subscribe(
            server.agents()[0].conn_id,
            mac_stats.INFO.default_function_id,
            PeriodicTrigger(1).to_bytes("fb"),
            [RicActionDefinition(1, RicActionKind.REPORT)],
            SubscriptionCallbacks(on_failure=_raise),
        )
        assert record.confirmed
        for agent, origin in zip(agents, origins):
            agent.disconnect(origin)
        assert len(server.randb.stale_agents()) == 2
        clock[0] = 10.0
        assert server.expire_stale() == 2
        assert server.agents() == [] and len(server.submgr) == 0
        assert sorted(later.heard) == [
            ("connected", 1), ("connected", 2), ("disconnected", 1), ("disconnected", 2)
        ]
        # One on_failure, then per node a NODE_EXPIRED publish and an iApp.
        assert counters.get_counter("server.iapp.callback_error").value == 5

    def test_a_raising_agent_connected_subscriber_leaves_every_iapp_its_node(self):
        from repro.controllers.monitoring import StatsMonitorIApp
        from repro.core.server import Server
        from repro.core.server import events as topics
        from repro.sm import mac_stats

        server = Server()
        server.events.subscribe(topics.AGENT_CONNECTED, _raise)
        raising = _NodeHooks("connected")
        monitor = StatsMonitorIApp(oids=[mac_stats.INFO.oid], period_ms=1, sm_codec="fb")
        server.add_iapp(raising)
        server.add_iapp(monitor)
        transport = InProcTransport()
        server.listen(transport, "ric")
        self._mac_agent(transport, 1)[0].connect("ric")
        assert raising.heard == [("connected", 1)]
        assert monitor.subscriptions_confirmed == 1
        assert counters.get_counter("server.iapp.callback_error").value == 2
