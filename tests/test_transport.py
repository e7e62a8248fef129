"""Unit and integration tests for framing and transports."""

import os
import socket
import threading
import time

import pytest

from repro.core.transport import (
    FaultyTransport,
    Framer,
    InProcTransport,
    TcpTransport,
    TransportEvents,
    frame_message,
)
from repro.core.transport import tcp as tcp_mod
from repro.core.transport.framing import (
    MAX_MESSAGE_BYTES,
    FramingError,
    frame_messages,
)


class TestFraming:
    def test_roundtrip_single(self):
        framer = Framer()
        assert framer.feed(frame_message(b"hello")) == [b"hello"]

    def test_two_messages_one_chunk(self):
        framer = Framer()
        assert framer.feed(frame_message(b"a") + frame_message(b"bb")) == [b"a", b"bb"]

    def test_split_across_chunks(self):
        framer = Framer()
        frame = frame_message(b"hello world")
        out = []
        for index in range(len(frame)):
            out.extend(framer.feed(frame[index:index + 1]))
        assert out == [b"hello world"]
        assert framer.pending_bytes == 0

    def test_empty_message(self):
        framer = Framer()
        assert framer.feed(frame_message(b"")) == [b""]

    def test_partial_buffers(self):
        framer = Framer()
        frame = frame_message(b"abcdef")
        assert framer.feed(frame[:3]) == []
        assert framer.pending_bytes == 3
        assert framer.feed(frame[3:]) == [b"abcdef"]

    def test_oversize_frame_rejected(self):
        framer = Framer()
        bogus = (MAX_MESSAGE_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(FramingError):
            framer.feed(bogus)

    def test_oversize_send_rejected(self):
        with pytest.raises(FramingError):
            frame_message(b"\0" * (MAX_MESSAGE_BYTES + 1))

    def test_frame_messages_matches_individual_frames(self):
        payloads = [b"", b"x", b"yy" * 300]
        assert frame_messages(payloads) == b"".join(frame_message(p) for p in payloads)

    def test_frame_messages_oversize_rejected(self):
        with pytest.raises(FramingError):
            frame_messages([b"ok", b"\0" * (MAX_MESSAGE_BYTES + 1)])

    def test_many_small_frames_one_chunk(self):
        # Regression: the deframer used to shift the receive buffer
        # once per extracted frame (O(n^2) over a chunk of n tiny
        # frames); with the read cursor this must finish quickly.
        count = 10_000
        payloads = [b"m%d" % index for index in range(count)]
        chunk = frame_messages(payloads)
        framer = Framer()
        start = time.perf_counter()
        messages = framer.feed(chunk)
        elapsed = time.perf_counter() - start
        assert messages == payloads
        assert framer.pending_bytes == 0
        # Generous bound: the quadratic version took seconds here.
        assert elapsed < 1.0

    def test_pending_bytes_tracks_cursor(self):
        framer = Framer()
        frame = frame_message(b"abc")
        tail = frame_message(b"defghi")[:5]  # incomplete second frame
        assert framer.feed(frame + tail) == [b"abc"]
        assert framer.pending_bytes == len(tail)
        assert framer.feed(frame_message(b"defghi")[5:]) == [b"defghi"]
        assert framer.pending_bytes == 0

    def test_interleaved_large_and_small(self):
        framer = Framer()
        payloads = [b"a" * 100_000, b"b", b"c" * 70_000, b"", b"d" * 3]
        wire = frame_messages(payloads)
        out = []
        step = 8192
        for index in range(0, len(wire), step):
            out.extend(framer.feed(wire[index:index + step]))
        assert out == payloads
        assert framer.pending_bytes == 0


class TestZeroCopyFraming:
    """Buffer-protocol inputs flow through without implicit bytes()."""

    @staticmethod
    def _copies():
        from repro.metrics.counters import counter_values

        return counter_values().get("bytes.copied", 0)

    def test_feed_accepts_views_without_copy(self):
        payloads = [b"alpha", b"", b"g" * 5000]
        wire = frame_messages(payloads)
        for convert in (memoryview, bytearray):
            framer = Framer()
            before = self._copies()
            assert framer.feed(convert(wire)) == payloads
            assert self._copies() == before

    def test_feed_view_chunks_split_across_calls(self):
        framer = Framer()
        wire = frame_messages([b"abcdef"])
        view = memoryview(wire)
        assert framer.feed(view[:3]) == []
        assert framer.feed(view[3:]) == [b"abcdef"]
        assert framer.pending_bytes == 0

    def test_feed_offset_window_into_larger_buffer(self):
        framer = Framer()
        wire = frame_messages([b"payload-x", b"payload-y"])
        padded = bytearray(b"\x00" * 5 + wire + b"\xff" * 3)
        window = memoryview(padded)[5 : 5 + len(wire)]
        before = self._copies()
        assert framer.feed(window) == [b"payload-x", b"payload-y"]
        assert self._copies() == before

    def test_inproc_send_counts_exactly_one_copy_for_views(self):
        from repro.metrics.counters import counter_values

        transport = InProcTransport()
        got = []
        transport.listen("zc", TransportEvents(on_message=lambda e, d: got.append(d)))
        endpoint = transport.connect("zc", TransportEvents())
        payload = bytearray(b"mutable-source")
        before = counter_values().get("bytes.copied", 0)
        endpoint.send(memoryview(payload))
        assert counter_values().get("bytes.copied", 0) == before + 1
        endpoint.send(b"immutable")  # bytes pass through uncounted
        assert counter_values().get("bytes.copied", 0) == before + 1
        assert got == [b"mutable-source", b"immutable"]
        # The queue owns a frozen copy: mutating the source afterwards
        # must not reach a consumer that drains later.
        payload[:7] = b"clobber"
        assert got[0] == b"mutable-source"


class TestInProc:
    def test_listen_connect_deliver(self):
        transport = InProcTransport()
        got = []
        transport.listen("a", TransportEvents(on_message=lambda e, d: got.append(d)))
        conn = transport.connect("a", TransportEvents())
        conn.send(b"x")
        assert got == [b"x"]

    def test_request_response_flat_stack(self):
        transport = InProcTransport()
        transport.listen(
            "a", TransportEvents(on_message=lambda e, d: e.send(d + b"!") if len(d) < 20 else None)
        )
        replies = []
        conn = transport.connect("a", TransportEvents(on_message=lambda e, d: replies.append(d)))
        conn.send(b"ping")
        assert replies == [b"ping!"]

    def test_connect_unknown_address(self):
        with pytest.raises(ConnectionError):
            InProcTransport().connect("nowhere", TransportEvents())

    def test_duplicate_listen_rejected(self):
        transport = InProcTransport()
        transport.listen("a", TransportEvents())
        with pytest.raises(OSError):
            transport.listen("a", TransportEvents())

    def test_listener_close_frees_address(self):
        transport = InProcTransport()
        listener = transport.listen("a", TransportEvents())
        listener.close()
        transport.listen("a", TransportEvents())  # no raise

    def test_on_connected_fires_both_sides(self):
        transport = InProcTransport()
        events = []
        transport.listen("a", TransportEvents(on_connected=lambda e: events.append("server")))
        transport.connect("a", TransportEvents(on_connected=lambda e: events.append("client")))
        assert events == ["server", "client"]

    def test_close_notifies_peer(self):
        transport = InProcTransport()
        dropped = []
        transport.listen(
            "a", TransportEvents(on_disconnected=lambda e, reason: dropped.append("server"))
        )
        conn = transport.connect("a", TransportEvents())
        conn.close()
        assert dropped == ["server"]

    def test_send_after_close_raises(self):
        transport = InProcTransport()
        transport.listen("a", TransportEvents())
        conn = transport.connect("a", TransportEvents())
        conn.close()
        with pytest.raises(ConnectionError):
            conn.send(b"x")

    def test_send_non_bytes_rejected(self):
        transport = InProcTransport()
        transport.listen("a", TransportEvents())
        conn = transport.connect("a", TransportEvents())
        with pytest.raises(TypeError):
            conn.send("text")

    def test_byte_accounting(self):
        transport = InProcTransport()
        transport.listen("a", TransportEvents())
        conn = transport.connect("a", TransportEvents())
        conn.send(b"12345")
        conn.send(b"67")
        assert conn.bytes_sent == 7
        assert conn.messages_sent == 2

    def test_many_messages_preserve_order(self):
        transport = InProcTransport()
        got = []
        transport.listen("a", TransportEvents(on_message=lambda e, d: got.append(d)))
        conn = transport.connect("a", TransportEvents())
        for index in range(100):
            conn.send(str(index).encode())
        assert got == [str(i).encode() for i in range(100)]

    def test_send_many_preserves_boundaries_and_order(self):
        transport = InProcTransport()
        got = []
        transport.listen("a", TransportEvents(on_message=lambda e, d: got.append(d)))
        conn = transport.connect("a", TransportEvents())
        conn.send(b"first")
        conn.send_many([b"x", b"yy", b"zzz"])
        conn.send(b"last")
        assert got == [b"first", b"x", b"yy", b"zzz", b"last"]
        assert conn.messages_sent == 5
        assert conn.bytes_sent == len(b"firstxyyzzzlast")

    def test_send_many_empty_batch_is_noop(self):
        transport = InProcTransport()
        got = []
        transport.listen("a", TransportEvents(on_message=lambda e, d: got.append(d)))
        conn = transport.connect("a", TransportEvents())
        conn.send_many([])
        assert got == []
        assert conn.messages_sent == 0


class TestTcp:
    def _pair(self, transport, server_events=None):
        listener = transport.listen("127.0.0.1:0", server_events or TransportEvents())
        return listener

    def test_echo_roundtrip(self):
        transport = TcpTransport()
        transport.start()
        try:
            listener = transport.listen(
                "127.0.0.1:0", TransportEvents(on_message=lambda e, d: e.send(d[::-1]))
            )
            done = threading.Event()
            out = []
            conn = transport.connect(
                f"127.0.0.1:{listener.port}",
                TransportEvents(on_message=lambda e, d: (out.append(d), done.set())),
            )
            conn.send(b"abc")
            assert done.wait(5.0)
            assert out == [b"cba"]
        finally:
            transport.stop()

    def test_large_message_boundaries(self):
        transport = TcpTransport()
        transport.start()
        try:
            got = []
            done = threading.Event()

            def on_message(endpoint, data):
                got.append(len(data))
                if len(got) == 3:
                    done.set()

            listener = transport.listen("127.0.0.1:0", TransportEvents(on_message=on_message))
            conn = transport.connect(f"127.0.0.1:{listener.port}", TransportEvents())
            conn.send(b"a" * 1_000_000)
            conn.send(b"b")
            conn.send(b"c" * 5000)
            assert done.wait(10.0)
            assert got == [1_000_000, 1, 5000]
        finally:
            transport.stop()

    def test_disconnect_event(self):
        transport = TcpTransport()
        transport.start()
        try:
            server_conns = []
            dropped = threading.Event()
            listener = transport.listen(
                "127.0.0.1:0",
                TransportEvents(
                    on_connected=server_conns.append,
                    on_disconnected=lambda e, reason: dropped.set(),
                ),
            )
            conn = transport.connect(f"127.0.0.1:{listener.port}", TransportEvents())
            deadline = time.monotonic() + 5
            while not server_conns and time.monotonic() < deadline:
                time.sleep(0.01)
            conn.close()
            assert dropped.wait(5.0)
        finally:
            transport.stop()

    def test_connect_refused(self):
        transport = TcpTransport()
        transport.start()
        try:
            with pytest.raises(OSError):
                transport.connect("127.0.0.1:1", TransportEvents())
        finally:
            transport.stop()

    def test_bad_address_format(self):
        transport = TcpTransport()
        with pytest.raises(ValueError):
            transport.connect("localhost", TransportEvents())

    def test_send_many_over_socket(self):
        transport = TcpTransport()
        transport.start()
        try:
            got = []
            done = threading.Event()

            def on_message(endpoint, data):
                got.append(data)
                if len(got) == 200:
                    done.set()

            listener = transport.listen("127.0.0.1:0", TransportEvents(on_message=on_message))
            conn = transport.connect(f"127.0.0.1:{listener.port}", TransportEvents())
            batch = [b"msg-%d" % index for index in range(200)]
            conn.send_many(batch)
            assert done.wait(10.0)
            assert got == batch
            assert conn.messages_sent == 200
        finally:
            transport.stop()

    def _slow_peer(self):
        """A listening socket with a small buffer that nobody reads yet."""
        peer = socket.socket()
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16 * 1024)
        peer.bind(("127.0.0.1", 0))
        peer.listen(1)
        return peer

    def test_send_rides_out_a_slow_peer(self):
        """EAGAIN is backpressure, not a dead link: ``send`` waits for
        writability like ``send_many`` and every frame arrives intact."""
        transport = TcpTransport()
        peer = self._slow_peer()
        frames = [b"%04d" % index + b"x" * 1496 for index in range(1000)]
        got = []

        def read_late(conn):
            time.sleep(0.3)  # the sender has long filled both buffers
            framer = Framer()
            while len(got) < len(frames):
                chunk = conn.recv(65536)
                if not chunk:
                    break
                got.extend(framer.feed(chunk))

        try:
            endpoint = transport.connect("127.0.0.1:%d" % peer.getsockname()[1], TransportEvents())
            endpoint._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16 * 1024)
            conn, _addr = peer.accept()
            reader = threading.Thread(target=read_late, args=(conn,))
            reader.start()
            try:
                for frame in frames:
                    endpoint.send(frame)
            finally:
                reader.join(timeout=10.0)
                conn.close()
            assert not reader.is_alive()
            assert got == frames
            assert not endpoint.closed
        finally:
            transport.stop()
            peer.close()

    def test_two_senders_large_frames_slow_reader(self):
        """64 KiB frames from two threads through a 16 KiB send buffer
        into a slow reader: every ``send`` is cut short many times, yet
        every frame arrives whole, each thread's frames in the order it
        sent them, and the link survives."""
        transport = TcpTransport()
        peer = self._slow_peer()
        per_thread = 40
        got = []

        def read_slowly(conn):
            framer = Framer()
            while len(got) < 2 * per_thread:
                chunk = conn.recv(8192)
                if not chunk:
                    break
                got.extend(framer.feed(chunk))
                if len(got) < 8:
                    time.sleep(0.02)  # both buffers stay full for a while

        def sender(tag):
            for index in range(per_thread):
                endpoint.send(tag + b"%04d" % index + tag * (64 * 1024 - 5))

        try:
            endpoint = transport.connect("127.0.0.1:%d" % peer.getsockname()[1], TransportEvents())
            endpoint._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16 * 1024)
            conn, _addr = peer.accept()
            reader = threading.Thread(target=read_slowly, args=(conn,))
            senders = [threading.Thread(target=sender, args=(tag,)) for tag in (b"a", b"b")]
            reader.start()
            for thread in senders:
                thread.start()
            try:
                for thread in senders:
                    thread.join(timeout=30.0)
            finally:
                reader.join(timeout=30.0)
                conn.close()
            assert not reader.is_alive() and not any(t.is_alive() for t in senders)
            assert len(got) == 2 * per_thread
            for tag in (b"a", b"b"):
                mine = [frame for frame in got if frame[:1] == tag]
                assert [frame[1:5] for frame in mine] == [b"%04d" % i for i in range(per_thread)]
                assert all(frame[5:] == tag * (64 * 1024 - 5) for frame in mine)
            assert not endpoint.closed
            assert endpoint.messages_sent == 2 * per_thread
        finally:
            transport.stop()
            peer.close()

    @pytest.mark.parametrize("first", [0, 1, 3, 4, 5, -1])
    def test_send_continues_after_a_short_first_write(self, first):
        """The kernel may take any prefix of ``[len][payload]``: the
        continuation resumes inside the length prefix, at its edge and
        inside the payload (``-1``: all but the last octet)."""
        payload = bytes(range(256)) * 3
        total = 4 + len(payload)

        class ShortFirstWrite:
            """The endpoint's socket, its first ``sendmsg`` cut short."""

            def __init__(self, sock, count):
                self._sock, self._count = sock, count
                self.calls = 0

            def sendmsg(self, buffers):
                self.calls += 1
                if self.calls > 1:
                    return self._sock.sendmsg(buffers)
                head = b"".join(bytes(buffer) for buffer in buffers)[: self._count]
                return self._sock.send(head) if head else 0

            def __getattr__(self, name):
                return getattr(self._sock, name)

        transport = TcpTransport()
        peer = self._slow_peer()
        try:
            endpoint = transport.connect("127.0.0.1:%d" % peer.getsockname()[1], TransportEvents())
            conn, _addr = peer.accept()
            conn.settimeout(5.0)
            real = endpoint._sock
            endpoint._sock = cut = ShortFirstWrite(real, first % total)
            try:
                endpoint.send(payload)
                endpoint.send(b"next")
            finally:
                endpoint._sock = real
            assert cut.calls >= 3  # short write, its continuation, the next frame
            framer, frames = Framer(), []
            while len(frames) < 2:
                frames.extend(framer.feed(conn.recv(65536)))
            conn.close()
            assert frames == [payload, b"next"]
            assert not endpoint.closed
            assert (endpoint.messages_sent, endpoint.bytes_sent) == (2, len(payload) + 4)
        finally:
            transport.stop()
            peer.close()

    def test_send_to_a_peer_that_never_reads_fails_loudly(self, monkeypatch):
        real_select = tcp_mod.select.select
        # The stall bound is 5 s; the test shortens the wait, not the rule.
        monkeypatch.setattr(
            tcp_mod.select, "select", lambda r, w, x, timeout: real_select(r, w, x, 0.05)
        )
        transport = TcpTransport()
        peer = self._slow_peer()
        try:
            endpoint = transport.connect("127.0.0.1:%d" % peer.getsockname()[1], TransportEvents())
            with pytest.raises(ConnectionError, match="send stalled"):
                for _ in range(100_000):
                    endpoint.send(b"x" * 1500)
            assert endpoint.closed
        finally:
            transport.stop()
            peer.close()

    def test_concurrent_connections(self):
        transport = TcpTransport()
        transport.start()
        try:
            got = []
            lock = threading.Lock()

            def on_message(endpoint, data):
                with lock:
                    got.append(data)

            listener = transport.listen("127.0.0.1:0", TransportEvents(on_message=on_message))
            conns = [
                transport.connect(f"127.0.0.1:{listener.port}", TransportEvents())
                for _ in range(8)
            ]
            for index, conn in enumerate(conns):
                conn.send(f"m{index}".encode())
            deadline = time.monotonic() + 5
            while len(got) < 8 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sorted(got) == sorted(f"m{i}".encode() for i in range(8))
        finally:
            transport.stop()

    @pytest.mark.parametrize("call", ["start", "listen", "connect", "step"])
    def test_a_stopped_transport_refuses_loudly(self, call):
        """``stop()`` is final: one ``RuntimeError`` before any socket or
        thread is created (it used to be a raw ``ValueError`` off the
        closed selector — for ``connect`` after the TCP connect had
        succeeded, leaking the socket)."""
        live = TcpTransport()  # somewhere real for ``connect`` to reach
        reached = []
        transport = TcpTransport()
        transport.stop()
        transport.stop()  # idempotent
        try:
            listener = live.listen("127.0.0.1:0", TransportEvents(on_connected=reached.append))
            attempt = {
                "start": transport.start,
                "listen": lambda: transport.listen("127.0.0.1:0", TransportEvents()),
                "connect": lambda: transport.connect(listener.address, TransportEvents()),
                "step": transport.step,
            }[call]
            fds, threads = len(os.listdir("/proc/self/fd")), threading.active_count()
            with pytest.raises(RuntimeError, match="transport stopped"):
                attempt()
            assert len(os.listdir("/proc/self/fd")) == fds
            assert threading.active_count() == threads
            for _ in range(3):
                live.step(0.02)
            assert not reached  # no TCP connect was made either
        finally:
            live.stop()

    def test_reuseport_without_kernel_support_refuses_loudly(self, monkeypatch):
        """A transport asked to share its port cannot bind it alone."""
        monkeypatch.setattr(tcp_mod, "_HAS_REUSEPORT", False)
        fds, threads = len(os.listdir("/proc/self/fd")), threading.active_count()
        with pytest.raises(RuntimeError, match="SO_REUSEPORT"):
            TcpTransport(reuseport=True)
        assert len(os.listdir("/proc/self/fd")) == fds
        assert threading.active_count() == threads
        TcpTransport().stop()  # a transport that shares no port is unaffected


class TestOnMessageOnlyReceivers:
    """The agent and the baselines register only ``on_message``; the
    ``deliver`` hand-off of every transport still reaches them one
    frame per call, in order."""

    @pytest.mark.parametrize("kind", ["inproc", "inproc-sharded", "tcp", "faulty"])
    def test_one_call_per_frame_in_order(self, kind):
        transport = {
            "inproc": InProcTransport,
            "inproc-sharded": lambda: InProcTransport(shards=2),
            "tcp": TcpTransport,
            "faulty": lambda: FaultyTransport(InProcTransport()),
        }[kind]()
        calls = []
        frames = [b"frame-%02d" % index for index in range(40)]
        try:
            listener = transport.listen(
                "127.0.0.1:0" if kind == "tcp" else "rx",
                TransportEvents(on_message=lambda endpoint, data: calls.append(data)),
            )
            transport.start()
            conn = transport.connect(listener.address, TransportEvents())
            conn.send_many(frames[:30])
            for frame in frames[30:]:
                conn.send(frame)
            deadline = time.monotonic() + 5.0
            while len(calls) < len(frames) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert calls == frames
        finally:
            transport.stop()
