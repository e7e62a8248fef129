"""The RIC process: a default-built controller plus the harness's taps.

The harness spawns this file as a child and talks to it over
stdin/stdout (:mod:`pipe`).  The controller is built the way README's
quick tour builds one — ``Server(ServerConfig(e2ap_codec=...))``,
``server.create_transport("tcp")``, ``server.listen``, ``add_iapp`` —
and no concurrency knob is passed, so whatever ``shards``, ``workers``
and ``indication_workers`` default to is what gets measured.

What the harness adds sits only at boundaries it owns: the
``on_indication`` callbacks of subscription records (arrival stamps,
sequence checks, the in-flight window's acknowledgement counter), the
``TransportEvents`` bundle handed to ``transport.listen`` (deliver
spans on traced phases), and its own iApps (flood counter, HW pinger,
subscription churner).
"""

from __future__ import annotations

import ctypes
import mmap
import os
import random
import resource
import select
import signal
import struct
import sys
import threading
import time
import traceback
from array import array
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.controllers.monitoring import StatsMonitorIApp  # noqa: E402
from repro.core.codec.base import materialize  # noqa: E402
from repro.core.e2ap.ies import RicActionDefinition, RicActionKind  # noqa: E402
from repro.core.server import IApp, Server, ServerConfig, SinkHandle, SubscriptionCallbacks  # noqa: E402
from repro.core.transport.base import Transport  # noqa: E402
from repro.metrics.counters import counter_values  # noqa: E402
from repro.sm import hw, mac_stats  # noqa: E402
from repro.sm.base import PeriodicTrigger  # noqa: E402

from benchmarks.e2e import pipe  # noqa: E402
from benchmarks.e2e.pipe import ACK_BYTES, ACK_SLOT, FLOOD_OID  # noqa: E402
from benchmarks.e2e.stats import MARK_INTERVAL_S, SpeedProbe  # noqa: E402
from benchmarks.e2e.tracing import SpanLog  # noqa: E402

REPORT = [RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)]
#: how long a phase end waits for the tail of what was sent.
DRAIN_TIMEOUT_S = 5.0


def _cpu_s() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _child_pids() -> List[int]:
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            pass
    return pids


def _rss_mb(peak: bool = False) -> float:
    """Resident set of this process and its children, now or at its peak.

    ``VmHWM`` rather than ``ru_maxrss``: the latter survives fork+exec
    and so starts at whatever the harness weighed when it spawned us.
    """
    wanted = "VmHWM:" if peak else "VmRSS:"
    total = 0.0
    for pid in ["self", *_child_pids()]:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith(wanted):
                        total += int(line.split()[1]) / 1e3
                        break
        except OSError:
            pass  # a child that has just exited
    return total


class _ListenTap(Transport):
    """Keeps the ``TransportEvents`` bundle ``Server.listen`` hands down.

    Transports read ``events.on_message(s)`` on every delivery, so a
    traced phase swaps span-recording wrappers in and an untraced one
    swaps the server's own callables back — the untraced path runs
    exactly what ``server.listen(transport, address)`` would install.
    """

    name = "tcp"

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.events = None
        #: accepted endpoints, in the order the nodes connected.
        self.accepted: List[Any] = []

    def listen(self, address, events):
        self.events = events
        connected = events.on_connected

        def on_connected(endpoint) -> None:
            self.accepted.append(endpoint)
            connected(endpoint)

        events.on_connected = on_connected
        return self.inner.listen(address, events)

    def connect(self, address, events):
        return self.inner.connect(address, events)


class _NodeStats:
    """What the RIC saw from one E2 node's indication stream."""

    def __init__(self, nb_id: int, slot: int, modulo: Optional[int]) -> None:
        self.nb_id = nb_id
        self.slot = slot
        #: flood frames replay a ring, so sequences wrap at its size.
        self.modulo = modulo
        self.expected: Optional[int] = None
        self.total = 0
        self.reset(stamp=False)

    def reset(self, stamp: bool) -> None:
        self.count = 0
        self.seq_errors = 0
        self.stamp = stamp
        self.arrivals = array("d")


class CountingIApp(IApp):
    """Bare-forwarding sink: subscribes to the flood function, counts."""

    name = "flood-counter"

    def __init__(self) -> None:
        super().__init__()
        self.confirmed = 0
        self.count = 0

    def on_agent_connected(self, agent) -> None:
        item = agent.function_by_oid(FLOOD_OID)
        if item is None:
            return
        self.server.subscribe(
            conn_id=agent.conn_id,
            ran_function_id=item.ran_function_id,
            event_trigger=PeriodicTrigger(0.0).to_bytes("fb"),
            actions=REPORT,
            callbacks=SubscriptionCallbacks(
                on_success=self._confirmed, on_indication=self._count
            ),
        )

    def _confirmed(self, response) -> None:
        self.confirmed += 1

    def _count(self, event) -> None:
        self.count += 1


class PingerIApp(IApp):
    """Closed-loop HW-SM ping, one in flight, alternating over the nodes.

    Event-driven like every FlexRIC iApp: the next ping goes out from
    the pong's callback, so the round trip holds two socket wake-ups
    and no thread hand-off of the harness's making.
    """

    name = "hw-pinger"

    def __init__(self, sm_codec: str, spans: SpanLog, probe: SpeedProbe) -> None:
        super().__init__()
        self.sm_codec = sm_codec
        self.spans = spans
        self.probe = probe
        self.tracing = False
        self.confirmed = 0
        self.links: List[tuple] = []  # (conn_id, ran_function_id, nb_id)
        self.payload = b""
        self.seq = 0
        self.running = False
        self.idle = threading.Event()
        self.idle.set()
        self.reset()

    def reset(self) -> None:
        self.rtts = array("d")
        self.ends = array("d")
        self.mismatches = 0

    def on_agent_connected(self, agent) -> None:
        item = agent.function_by_oid(hw.INFO.oid)
        if item is None:
            return
        link = (agent.conn_id, item.ran_function_id, agent.node_id.nb_id)
        self.links.append(link)
        self.server.subscribe(
            conn_id=agent.conn_id,
            ran_function_id=item.ran_function_id,
            event_trigger=PeriodicTrigger(0.0).to_bytes(self.sm_codec),
            actions=REPORT,
            callbacks=SubscriptionCallbacks(
                on_success=self._confirmed, on_indication=partial(self._on_pong, link)
            ),
        )

    def _confirmed(self, response) -> None:
        self.confirmed += 1

    def start(self, payload: bytes) -> None:
        self.payload = payload
        self.links.sort(key=lambda link: link[2])
        self.running = True
        self.idle.clear()
        self._fire()

    def stop(self) -> bool:
        """Let the ping in flight land; False if it never did."""
        self.running = False
        return self.idle.wait(DRAIN_TIMEOUT_S)

    def _fire(self) -> None:
        conn_id, function_id, nb_id = self.links[self.seq % len(self.links)]
        self.seq += 1
        self.sent_at = perf_counter()
        data = hw.build_ping(self.seq, self.payload, self.sm_codec)
        self.server.control(
            conn_id=conn_id,
            ran_function_id=function_id,
            header=b"",
            payload=data,
            ack_requested=False,
        )
        if self.tracing:
            self.spans.child("ric.ping", self.sent_at, nb_id, self.seq)

    def _on_pong(self, link, event) -> None:
        entered = perf_counter()
        seq, data = hw.parse_pong(event.payload, self.sm_codec)
        now = perf_counter()
        self.rtts.append(now - self.sent_at)
        self.ends.append(now)
        if seq != self.seq or bytes(data) != self.payload:
            self.mismatches += 1
        if self.tracing:
            self.spans.child("ric.callback", entered, link[2], seq)
        self.probe.tick(now)
        if self.running:
            self._fire()
        else:
            self.idle.set()


class _ChurnLink:
    """One node's subscription cycle chain."""

    def __init__(self, conn_id: int, function_id: int, nb_id: int, seed: int) -> None:
        self.conn_id = conn_id
        self.function_id = function_id
        self.nb_id = nb_id
        self.rng = random.Random(seed * 1_000_003 + nb_id)
        self.standing: List[bytes] = []
        self.fresh = 0
        self.started = 0.0
        self.idle = threading.Event()
        self.idle.set()
        self.reset()

    def reset(self) -> None:
        self.wire_s = array("d")
        self.wire_ends = array("d")
        #: completion time of every cycle, wire or shared.
        self.ends = array("d")
        self.failed = 0


class ChurnIApp(IApp):
    """Standing HW subscriptions plus a subscribe/unsubscribe cycle chain.

    Per node one cycle is in flight: ``subscribe(fresh trigger)`` →
    ``on_success`` → ``unsubscribe`` → ``on_deleted`` → next cycle.  A
    seeded one in four instead attaches to a standing record (the
    shared path: no wire traffic, completes inside the two calls).
    """

    name = "sub-churner"

    def __init__(self, standing: int, seed: int, spans: SpanLog, probe: SpeedProbe) -> None:
        super().__init__()
        self.standing = standing
        self.seed = seed
        self.spans = spans
        self.probe = probe
        self.tracing = False
        self.standing_confirmed = 0
        self.links: List[_ChurnLink] = []
        self.running = False

    def on_agent_connected(self, agent) -> None:
        item = agent.function_by_oid(hw.INFO.oid)
        if item is None:
            return
        link = _ChurnLink(agent.conn_id, item.ran_function_id, agent.node_id.nb_id, self.seed)
        self.links.append(link)
        callbacks = SubscriptionCallbacks(on_success=self._standing_ok)
        for _ in range(self.standing):
            trigger = struct.pack(">BIQ", 0, link.nb_id, link.rng.getrandbits(64))
            link.standing.append(trigger)
            self.server.subscribe(link.conn_id, link.function_id, trigger, REPORT, callbacks)

    def _standing_ok(self, response) -> None:
        self.standing_confirmed += 1

    def start(self) -> None:
        self.running = True
        for link in self.links:
            link.idle.clear()
            self._cycle(link)

    def stop(self) -> int:
        """Let the cycles in flight finish; returns how many did not."""
        self.running = False
        return sum(0 if link.idle.wait(DRAIN_TIMEOUT_S) else 1 for link in self.links)

    def _cycle(self, link: _ChurnLink) -> None:
        server = self.server
        while self.running:
            link.started = perf_counter()
            if link.rng.random() < 0.25:
                handle = server.subscribe(
                    link.conn_id,
                    link.function_id,
                    link.rng.choice(link.standing),
                    REPORT,
                    SubscriptionCallbacks(),
                )
                if not isinstance(handle, SinkHandle):
                    link.failed += 1  # went to the wire: would leak a subscription
                server.unsubscribe(handle)
                link.ends.append(perf_counter())
                continue
            link.fresh += 1
            server.subscribe(
                link.conn_id,
                link.function_id,
                struct.pack(">BIQ", 1, link.nb_id, link.fresh),
                REPORT,
                SubscriptionCallbacks(
                    on_success=partial(self._confirmed, link),
                    on_failure=partial(self._failed, link),
                    on_deleted=partial(self._deleted, link),
                ),
            )
            if self.tracing:
                self.spans.child("ric.subscribe", link.started, link.nb_id, link.fresh)
            return
        link.idle.set()

    def _confirmed(self, link: _ChurnLink, response) -> None:
        entered = perf_counter()
        record = self.server.submgr.lookup(*response.request.as_tuple())
        self.server.unsubscribe(record)
        if self.tracing:
            self.spans.child("ric.unsubscribe", entered, link.nb_id, link.fresh)

    def _failed(self, link: _ChurnLink, failure) -> None:
        link.failed += 1
        self._cycle(link)

    def _deleted(self, link: _ChurnLink, response) -> None:
        now = perf_counter()
        link.wire_s.append(now - link.started)
        link.wire_ends.append(now)
        link.ends.append(now)
        if self.tracing:
            self.spans.child("ric.deleted", now, link.nb_id, link.fresh)
        self.probe.tick(now)
        self._cycle(link)


class Ric:
    """The controller under test and the command handlers around it."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.workload: str = spec["workload"]
        self.nodes: int = spec["nodes"]
        self.ack = mmap.mmap(spec["ack_fd"], ACK_BYTES)
        self.spans = SpanLog(id_base=10**9)
        #: ticked from the shard threads, inside the harness's callbacks.
        self.probe = SpeedProbe()
        self.stats: Dict[int, _NodeStats] = {}
        self.records: Dict[int, Any] = {}  # nb_id -> indication-stream record
        self.inner_callbacks: Dict[int, Callable] = {}
        self.monitor: Optional[StatsMonitorIApp] = None
        self.counter: Optional[CountingIApp] = None
        self.pinger: Optional[PingerIApp] = None
        self.churner: Optional[ChurnIApp] = None
        self.activity: Optional[str] = None
        self.cpu_marks: Optional[List[tuple]] = None

        self.server = Server(ServerConfig(e2ap_codec=spec["e2ap_codec"]))
        self.transport = self.server.create_transport("tcp")
        self.tap = _ListenTap(self.transport)
        self.listener = self.server.listen(self.tap, "127.0.0.1:0")
        self.server_on_message = self.tap.events.on_message
        self.server_on_messages = self.tap.events.on_messages

        if self.workload in ("mon_e2e", "sub_churn"):
            self.monitor = StatsMonitorIApp(
                oids=[mac_stats.INFO.oid], period_ms=spec["period_ms"], sm_codec="fb"
            )
            self.server.add_iapp(self.monitor)
        if self.workload == "ingest_flood":
            self.counter = CountingIApp()
            self.server.add_iapp(self.counter)
        if self.workload == "hw_ping":
            self.pinger = PingerIApp(spec["sm_codec"], self.spans, self.probe)
            self.server.add_iapp(self.pinger)
        if self.workload == "sub_churn":
            self.churner = ChurnIApp(spec["standing"], spec["seed"], self.spans, self.probe)
            self.server.add_iapp(self.churner)
        self.transport.start()

    def hello(self) -> Dict[str, Any]:
        return {
            "address": self.listener.address,
            "shards": self.transport.shards,
            "pid": os.getpid(),
            "affinity": sorted(os.sched_getaffinity(0)),
        }

    def close(self) -> None:
        self.server.close()
        self.transport.stop()

    # -- set-up ---------------------------------------------------------

    def _ready(self) -> bool:
        nodes = self.nodes
        if self.monitor is not None and self.monitor.subscriptions_confirmed < nodes:
            return False
        if self.counter is not None and self.counter.confirmed < nodes:
            return False
        if self.pinger is not None and self.pinger.confirmed < nodes:
            return False
        if self.churner is not None and (
            self.churner.standing_confirmed < nodes * self.churner.standing
        ):
            return False
        return True

    def op_wait_ready(self, timeout_s: float) -> Dict[str, Any]:
        """Block until every subscription of the set-up is confirmed."""
        deadline = time.monotonic() + timeout_s
        while not self._ready():
            if time.monotonic() > deadline:
                raise TimeoutError("subscriptions were not confirmed in time")
            time.sleep(0.0005)
        ready_at = perf_counter()
        self._find_stream_records()
        self._install_taps(traced=False)
        return {
            "ready_at": ready_at,
            "subscriptions": len(self.server.submgr),
            # which ingest loop the kernel's SO_REUSEPORT hash gave each node
            "shard_of_node": [getattr(endpoint, "shard", 0) for endpoint in self.tap.accepted],
        }

    def _find_stream_records(self) -> None:
        """The one record per node whose indications the workload counts."""
        if self.pinger is not None:
            return  # the pinger's own callback is the measurement
        function_id = (
            self.spec["flood_function_id"]
            if self.counter is not None
            else mac_stats.INFO.default_function_id
        )
        modulo = self.spec.get("ring")
        for record in self.server.submgr.active_records():
            if record.ran_function_id != function_id:
                continue
            nb_id = self.server.randb.agent(record.conn_id).node_id.nb_id
            self.records[nb_id] = record
            self.inner_callbacks[nb_id] = record.callbacks.on_indication
        for slot, nb_id in enumerate(sorted(self.records)):
            self.stats[nb_id] = _NodeStats(nb_id, slot, modulo)

    def _install_taps(self, traced: bool) -> None:
        events = self.tap.events
        if traced:
            events.on_message = self._traced_on_message
            events.on_messages = self._traced_on_messages
        else:
            events.on_message = self.server_on_message
            events.on_messages = self.server_on_messages
        for nb_id, record in self.records.items():
            make = self._traced_tap if traced else self._tap
            record.callbacks.on_indication = make(
                self.inner_callbacks[nb_id], self.stats[nb_id]
            )
        for iapp in (self.pinger, self.churner):
            if iapp is not None:
                iapp.tracing = traced

    def _tap(self, inner: Callable, st: _NodeStats) -> Callable:
        ack, offset, pack_into = self.ack, st.slot * ACK_SLOT.size, ACK_SLOT.pack_into
        ack_mask = self.spec["ack_every"] - 1
        modulo = st.modulo
        tick = self.probe.tick

        def tap(event) -> None:
            inner(event)
            now = perf_counter()
            sequence = event.sequence
            if sequence != st.expected and st.expected is not None:
                st.seq_errors += 1
            st.expected = sequence + 1 if modulo is None else (sequence + 1) % modulo
            st.count = count = st.count + 1
            if st.stamp:
                st.arrivals.append(now)
            if not count & ack_mask:
                pack_into(ack, offset, st.total + count)
            tick(now)

        return tap

    def _traced_tap(self, inner: Callable, st: _NodeStats) -> Callable:
        plain = self._tap(lambda event: None, st)
        spans, nb_id = self.spans, st.nb_id

        def tap(event) -> None:
            start = perf_counter()
            inner(event)
            spans.child("ric.callback", start, nb_id, event.sequence)
            plain(event)

        return tap

    def _traced_on_messages(self, endpoint, batch) -> None:
        span_id = self.spans.open()
        start = perf_counter()
        self.server_on_messages(endpoint, batch)
        self.spans.close(span_id, "ric.deliver", start, len(batch))

    def _traced_on_message(self, endpoint, data) -> None:
        span_id = self.spans.open()
        start = perf_counter()
        self.server_on_message(endpoint, data)
        self.spans.close(span_id, "ric.deliver", start, 1)

    # -- phases ---------------------------------------------------------

    def op_phase_begin(
        self,
        stamp: bool = False,
        traced: bool = False,
        activity: Optional[str] = None,
        payload: bytes = b"",
    ) -> Dict[str, Any]:
        self._install_taps(traced)
        for st in self.stats.values():
            st.total += st.count
            st.reset(stamp)
        self.activity = activity
        self.probe.reset()
        self.counters0 = counter_values()
        self.rss0 = _rss_mb()
        self.cpu0 = _cpu_s()
        self.wall0 = perf_counter()
        self.cpu_marks = [(self.wall0, self.cpu0)]
        if activity == "ping":
            self.pinger.reset()
            self.pinger.start(payload)
        elif activity == "churn":
            for link in self.churner.links:
                link.reset()
            self.churner.start()
        return {"begun_at": self.wall0}

    def op_phase_end(self, expect: Optional[Dict[int, int]] = None) -> Dict[str, Any]:
        """Stop the phase's activity, wait for the tail, report."""
        stuck = 0
        if self.activity == "ping":
            stuck = 0 if self.pinger.stop() else 1
        elif self.activity == "churn":
            stuck = self.churner.stop()
        if expect:
            deadline = time.monotonic() + DRAIN_TIMEOUT_S
            while any(self.stats[nb].count < want for nb, want in expect.items()):
                if time.monotonic() > deadline:
                    break
                time.sleep(0.001)
        self.mark()
        marks, self.cpu_marks = self.cpu_marks, None
        wall = marks[-1][0] - self.wall0
        cpu = marks[-1][1] - self.cpu0
        rss = _rss_mb()
        counters1 = counter_values()
        report: Dict[str, Any] = {
            "wall_s": wall,
            "cpu_s": cpu,
            "cpu_marks": marks,
            "stuck": stuck,
            "probe": self.probe.snapshot(),
            "rss_mb": rss,
            "rss_growth_mb": rss - self.rss0,
            "peak_rss_mb": _rss_mb(peak=True),
            "threads": threading.active_count(),
            "procs": 1 + len(_child_pids()),
            "counters": {
                name: value - self.counters0.get(name, 0)
                for name, value in counters1.items()
                if value != self.counters0.get(name, 0)
            },
            "nodes": {
                nb_id: {
                    "count": st.count,
                    "seq_errors": st.seq_errors,
                    "arrivals": st.arrivals.tobytes(),
                }
                for nb_id, st in self.stats.items()
            },
            "spans": self.spans.drain(),
        }
        if self.activity == "ping":
            pinger = self.pinger
            report["ping"] = {
                "rtts": pinger.rtts.tobytes(),
                "ends": pinger.ends.tobytes(),
                "mismatches": pinger.mismatches,
            }
        elif self.activity == "churn":
            report["churn"] = {
                link.nb_id: {
                    "wire_s": link.wire_s.tobytes(),
                    "wire_ends": link.wire_ends.tobytes(),
                    "ends": link.ends.tobytes(),
                    "failed": link.failed,
                }
                for link in self.churner.links
            }
        self.activity = None
        return report

    def mark(self) -> None:
        """Read the CPU clock; called every MARK_INTERVAL_S while a
        phase runs, from the otherwise idle main thread."""
        if self.cpu_marks is not None:
            self.cpu_marks.append((perf_counter(), _cpu_s()))

    def op_final(self) -> Dict[str, Any]:
        """End-of-run state for the output checks."""
        report: Dict[str, Any] = {
            "subscriptions": len(self.server.submgr),
            "errors_seen": len(self.server.errors_seen),
        }
        if self.monitor is not None:
            latest = {}
            for nb_id, record in self.records.items():
                tree = self.monitor.store.latest_decoded(
                    record.conn_id, mac_stats.INFO.oid, "fb"
                )
                latest[nb_id] = materialize(tree)
            report["latest"] = latest
            report["stored"] = self.monitor.indications_received
        if self.counter is not None:
            report["counted"] = self.counter.count
        return report


def _die_with_parent() -> None:
    """Ask the kernel to kill this process when the harness goes away."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass  # stdin EOF below is the portable fallback


def main() -> int:
    _die_with_parent()
    inbox = os.fdopen(os.dup(0), "rb")
    outbox = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print must not corrupt the protocol
    spec = pipe.recv(inbox)
    if spec is None:
        return 1
    if spec.get("cpus") and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, spec["cpus"])
    ric = Ric(spec)
    try:
        pipe.send(outbox, ric.hello())
        while True:
            # Strict request/reply: nothing is ever buffered ahead, so
            # the descriptor's readiness is the stream's.
            if not select.select([inbox], [], [], MARK_INTERVAL_S)[0]:
                ric.mark()
                continue
            command = pipe.recv(inbox)
            if command is None or command["op"] == "stop":
                break
            handler = getattr(ric, "op_" + command.pop("op"))
            try:
                reply = handler(**command)
            # The harness must hear about any failure in a handler; the
            # traceback travels back and fails the run there.
            except Exception:
                reply = {"error": traceback.format_exc()}
            pipe.send(outbox, reply)
    finally:
        ric.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
