"""The RAN process: spawns the RIC child and drives the four workloads.

Two OS processes on loopback TCP.  This process is the RAN side — the
E2 nodes, the open-loop schedule, the in-flight window — and the only
place that decides when something is sent.  The RIC child
(:mod:`ric_child`) is the program under test.  ``time.perf_counter()``
is ``CLOCK_MONOTONIC`` on Linux, so a due time stamped here and an
arrival time stamped in the child subtract directly.

Every workload is a :class:`Workload`: ``setup`` (spawn the RIC, build
the nodes, wait until every subscription is confirmed), ``warm_up``,
one ``run_phase`` per entry of ``phases``, ``final_checks`` and
``teardown``.  A phase returns a :class:`Phase` of raw numbers;
:mod:`run` turns those into the named metrics.
"""

from __future__ import annotations

import asyncio
import mmap
import os
import random
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.aio.node import AsyncE2Node
from repro.core.agent.agent import Agent, AgentConfig
from repro.core.codec.base import get_codec
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind, RanFunctionItem
from repro.core.e2ap.messages import RicIndication, encode_message
from repro.core.transport.tcp import TcpTransport
from repro.metrics.counters import counter_values
from repro.sm import hw, mac_stats

from benchmarks.e2e import pipe
from benchmarks.e2e.pacing import OpenLoop
from benchmarks.e2e.pipe import ACK_BYTES, ACK_SLOT, FLOOD_OID
from benchmarks.e2e.stats import (
    MARK_INTERVAL_S,
    WINDOW_S,
    SpeedProbe,
    Window,
    rates_between,
    rates_of,
)
from benchmarks.e2e.tracing import Row, SpanLog

HERE = Path(__file__).resolve().parent
PLMN = "00101"
NODES = 2
#: length prefix the framed-TCP transports put before each message.
FRAME_PREFIX = 4
#: a workload that has not finished by then is killed, child first.
HARD_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 30.0


class RicError(RuntimeError):
    """The RIC child failed, timed out or went away."""


def pin_plan() -> Tuple[List[int], List[int]]:
    """(RIC cpus, RAN cpus): the last allowed core is the RAN's."""
    if not hasattr(os, "sched_getaffinity"):
        return [], []
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    return cpus[:-1], cpus[-1:]


class IdlePoll:
    """One :mod:`idle_poll` loop per core for the length of a run."""

    def __init__(self, cpus: Sequence[int]) -> None:
        self.procs = [
            subprocess.Popen(
                [sys.executable, str(HERE / "idle_poll.py"), str(cpu)], stdout=subprocess.PIPE
            )
            for cpu in cpus
        ]
        for proc in self.procs:
            # Until it says so the loop is still starting up at normal
            # priority, in the way of whatever is measured first.
            proc.stdout.read(1)

    def __enter__(self) -> "IdlePoll":
        return self

    def __exit__(self, *exc: Any) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
            proc.stdout.close()


class RicProcess:
    """Handle on the RIC child: spawn, request/reply, reap.

    The in-flight window's acknowledgement counters live in an
    anonymous shared page (``memfd``) the child inherits, so the RAN
    side reads how far the RIC has got without a message.
    """

    def __init__(self, spec: Dict[str, Any], cpus: Sequence[int]) -> None:
        self._fd = os.memfd_create("e2e-window")
        os.ftruncate(self._fd, ACK_BYTES)
        self.ack = mmap.mmap(self._fd, ACK_BYTES)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        self.spawned_at = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "ric_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            pass_fds=(self._fd,),
            env=env,
        )
        # Killing the child makes every blocked read here return EOF,
        # so one timer bounds the whole workload.
        self._watchdog = threading.Timer(HARD_TIMEOUT_S, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        try:
            pipe.send(self.proc.stdin, dict(spec, ack_fd=self._fd, cpus=list(cpus)))
            self.hello = self._reply()
        except BaseException:
            self.close()
            raise

    def request(self, op: str, **arguments: Any) -> Dict[str, Any]:
        try:
            pipe.send(self.proc.stdin, dict(arguments, op=op))
        except OSError as exc:
            raise RicError(f"RIC child is gone ({exc})") from exc
        return self._reply()

    def _reply(self) -> Dict[str, Any]:
        reply = pipe.recv(self.proc.stdout)
        if reply is None:
            raise RicError("RIC child closed the pipe (crashed or hard timeout)")
        if "error" in reply:
            raise RicError("RIC child failed:\n" + reply["error"])
        return reply

    def acked(self, slots: int) -> int:
        """Indications delivered so far, summed over the nodes."""
        unpack, ack = ACK_SLOT.unpack_from, self.ack
        return sum(unpack(ack, slot * ACK_SLOT.size)[0] for slot in range(slots))

    def close(self) -> None:
        """Stop and reap the child; safe on every exit path."""
        self._watchdog.cancel()
        proc = self.proc
        if proc.poll() is None:
            try:
                pipe.send(proc.stdin, {"op": "stop"})
            except OSError:
                pass
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        if not self.ack.closed:
            self.ack.close()
            os.close(self._fd)


class ClientTransport(TcpTransport):
    """The RAN side's ``TcpTransport``, remembering what crosses it.

    ``connect`` is the one place the harness sees an agent's endpoint
    and its inbound callback, so both byte counts are taken here:
    outbound from the endpoint's own counters (no per-message cost),
    inbound by counting in front of the agent's ``on_message``.
    """

    def __init__(self, spans: SpanLog, probe: SpeedProbe) -> None:
        super().__init__()
        self.endpoints: List[Any] = []
        self.rx_bytes = 0
        self.spans = spans
        self.probe = probe
        self.tracing = False

    def connect(self, address, events):
        handle = events.on_message

        def on_message(endpoint, data) -> None:
            self.rx_bytes += len(data) + FRAME_PREFIX
            if self.tracing:
                span_id = self.spans.open()
                start = perf_counter()
                handle(endpoint, data)
                self.spans.close(span_id, "ran.deliver", start)
            else:
                handle(endpoint, data)
            self.probe.tick(perf_counter())

        events.on_message = on_message
        endpoint = super().connect(address, events)
        self.endpoints.append(endpoint)
        return endpoint

    def tx(self) -> Tuple[int, int]:
        """(framed bytes, messages) sent over every endpoint so far."""
        messages = sum(endpoint.messages_sent for endpoint in self.endpoints)
        payload = sum(endpoint.bytes_sent for endpoint in self.endpoints)
        return payload + FRAME_PREFIX * messages, messages


class SeededProvider:
    """``synthetic_provider(32)`` with seeded counters and start tick."""

    def __init__(self, seed: int, nb_id: int, spans: SpanLog) -> None:
        rng = random.Random(seed * 7919 + nb_id)
        self._inner = mac_stats.synthetic_provider(32, bearer_bytes=rng.randrange(8_000, 16_000))
        for _ in range(rng.randrange(1_000)):
            self._inner(None)
        self.nb_id = nb_id
        self.spans = spans
        self.tracing = False
        self.calls = 0
        self.last: Any = None

    def __call__(self, visible):
        if self.tracing:
            start = perf_counter()
            self.last = tree = self._inner(visible)
            self.spans.child("ran.provide", start, self.nb_id, self.calls)
        else:
            self.last = tree = self._inner(visible)
        self.calls += 1
        return tree


class TracedHw(hw.HwRanFunction):
    """``HwRanFunction`` that can put a span around ``on_control``."""

    def __init__(self, sm_codec: str, nb_id: int, spans: SpanLog) -> None:
        super().__init__(sm_codec=sm_codec)
        self.nb_id = nb_id
        self.spans = spans
        self.tracing = False

    def on_control(self, origin, header, payload):
        if not self.tracing:
            return super().on_control(origin, header, payload)
        sequence, _ = hw.parse_ping(payload, self.sm_codec)  # the span's id, outside it
        start = perf_counter()
        outcome = super().on_control(origin, header, payload)
        self.spans.child("ran.control", start, self.nb_id, sequence)
        return outcome


@dataclass
class Phase:
    """Raw numbers of one measured phase (seconds, counts, bytes)."""

    kind: str
    wall_s: float
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: per-op latency in seconds and the time each sample was taken.
    latencies: array = field(default_factory=lambda: array("d"))
    stamps: array = field(default_factory=lambda: array("d"))
    #: ops per second over the whole phase, and window by window.
    rate: float = 0.0
    rates: List[Tuple[Window, float]] = field(default_factory=list)
    ran_cpu_s: float = 0.0
    #: ``(time, RAN CPU seconds so far)`` every MARK_INTERVAL_S, and one
    #: sorted completion stamp per operation to divide the windows by.
    ran_cpu_marks: List[Tuple[float, float]] = field(default_factory=list)
    done: Sequence[float] = ()
    ran_process_cpu_s: float = 0.0
    wire_bytes: int = 0
    #: how many operations ``wire_bytes`` is spread over.
    wire_ops: int = 0
    late: array = field(default_factory=lambda: array("d"))
    #: what the open-loop schedule asked for, ops per second.
    offered_per_s: float = 0.0
    achieved_per_s: float = 0.0
    ric: Dict[str, Any] = field(default_factory=dict)
    #: the speed probes of each process's working threads, this phase.
    speed: Dict[str, SpeedProbe] = field(default_factory=dict)
    ran_counters: Dict[str, int] = field(default_factory=dict)
    spans: List[Row] = field(default_factory=list)
    #: anything workload-specific the metric layer wants.
    extra: Dict[str, Any] = field(default_factory=dict)

    def sort_by_time(self) -> None:
        """Order the latency samples by when they were taken."""
        order = sorted(range(len(self.stamps)), key=self.stamps.__getitem__)
        self.latencies = array("d", (self.latencies[i] for i in order))
        self.stamps = array("d", (self.stamps[i] for i in order))


def _counter_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = counter_values()
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def _doubles(raw: bytes) -> array:
    out = array("d")
    out.frombytes(raw)
    return out


class Workload:
    """Common life cycle; subclasses fill in the nodes and the phases."""

    name = ""
    why = ""
    e2ap_codec = "fb"
    sm_codec = "fb"
    #: (phase kind, share of the run's seconds)
    phases: Tuple[Tuple[str, float], ...] = ()
    #: acknowledgement granularity of the in-flight window (power of 2).
    ack_every = 1
    warm_up_s = 1.5

    def __init__(self, seed: int, ric_cpus: Sequence[int] = ()) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.ric_cpus = list(ric_cpus)
        #: ticked wherever this process does the workload's work.
        self.probe = SpeedProbe()
        self.spans = SpanLog()
        self.ric: Optional[RicProcess] = None
        self.sent_total = 0
        self.tracing = False

    # -- life cycle ------------------------------------------------------

    def spec(self) -> Dict[str, Any]:
        return {
            "workload": self.name,
            "nodes": NODES,
            "seed": self.seed,
            "e2ap_codec": self.e2ap_codec,
            "sm_codec": self.sm_codec,
            "ack_every": self.ack_every,
        }

    def setup(self) -> float:
        """Spawn the RIC, attach the nodes; seconds until all confirmed."""
        self.sent_total = 0
        self.ric = RicProcess(self.spec(), self.ric_cpus)
        self.build_nodes(self.ric.hello["address"])
        ready = self.ric.request("wait_ready", timeout_s=SETUP_TIMEOUT_S)
        self.shard_of_node: List[int] = ready["shard_of_node"]
        return ready["ready_at"] - self.ric.spawned_at

    def spread_out(self) -> bool:
        """Did the nodes land on as many ingest loops as there are?

        With the default ``shards`` the kernel hashes each connection's
        ephemeral port onto a loop, so two nodes share one in half of
        all set-ups — and a run measures a different system depending
        on it (``sub_churn`` p99: 2.2 ms on one loop, 3.7 ms on two).
        The caller sets up again until the nodes are spread out.
        """
        wanted = min(NODES, self.ric.hello["shards"])
        return len(set(self.shard_of_node)) == wanted

    def build_nodes(self, address: str) -> None:
        raise NotImplementedError

    def close_nodes(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Each phase once, briefly and unrecorded: sockets, codec caches
        and route plans fill here."""
        for kind, _ in self.phases:
            self.run_phase(kind, self.warm_up_s / len(self.phases), traced=False)

    def run_phase(self, kind: str, seconds: float, traced: bool) -> Phase:
        raise NotImplementedError

    def final_checks(self, final: Dict[str, Any]) -> List[str]:
        """Problems with the end state; empty means correct."""
        return []

    def set_tracing(self, on: bool) -> None:
        """Switch the RAN-side span recorders."""
        self.tracing = on

    def teardown(self) -> None:
        try:
            self.close_nodes()
        finally:
            if self.ric is not None:
                self.ric.close()
                self.ric = None

    # -- shared phase plumbing -------------------------------------------

    def _begin(self, traced: bool, **arguments: Any) -> tuple:
        self.set_tracing(traced)
        self.ric.request("phase_begin", traced=traced, **arguments)
        self.probe.reset()
        return counter_values(), time.process_time(), thread_time()

    def _end(
        self,
        phase: Phase,
        begun: tuple,
        expect: Optional[Dict[int, int]] = None,
    ) -> Phase:
        counters0, process0, thread0 = begun
        phase.ran_process_cpu_s = time.process_time() - process0
        phase.extra["driver_cpu_s"] = thread_time() - thread0
        phase.ric = self.ric.request("phase_end", expect=expect)
        phase.speed = {"ric": phase.ric.pop("probe"), "ran": self.probe.snapshot()}
        phase.ran_counters = _counter_delta(counters0)
        self.set_tracing(False)
        phase.spans = self.spans.drain() + phase.ric.pop("spans")
        phase.failed += phase.ric["stuck"]
        return phase

    @staticmethod
    def _count_delivered(phase: Phase, sent: Dict[int, int]) -> None:
        """Hold what each node sent against what the RIC counted."""
        for nb_id, count in sent.items():
            report = phase.ric["nodes"][nb_id]
            phase.failed += report["seq_errors"] + abs(count - report["count"])
            phase.ops += report["count"]


class SdkWorkload(Workload):
    """Workloads whose E2 nodes are real SDK ``Agent`` objects."""

    def build_nodes(self, address: str) -> None:
        self.transport = ClientTransport(self.spans, self.probe)
        self.transport.start()
        self.agents: List[Agent] = []
        for nb_id in range(1, NODES + 1):
            agent = Agent(
                AgentConfig(
                    node_id=GlobalE2NodeId(PLMN, nb_id, NodeKind.GNB),
                    e2ap_codec=self.e2ap_codec,
                ),
                self.transport,
            )
            for function in self.functions_for(nb_id):
                agent.register_function(function)
            self.agents.append(agent)
        for agent in self.agents:
            agent.connect(address)

    def functions_for(self, nb_id: int) -> List[Any]:
        raise NotImplementedError

    def close_nodes(self) -> None:
        transport = getattr(self, "transport", None)
        if transport is not None:
            transport.stop()
            self.transport = None

    # -- pumping MAC reports ------------------------------------------------

    def _ran_cpu(self, busy: float) -> float:
        """RAN CPU so far as this workload counts it: time inside ``pump()``."""
        return busy

    def _pump(self, index: int) -> float:
        """One ``pump()`` of node ``index``; CPU seconds it took here."""
        function = self.mac[index]
        if not self.tracing:
            cpu0 = thread_time()
            function.pump()
            cpu = thread_time() - cpu0
        else:
            span_id = self.spans.open()
            start = perf_counter()
            cpu0 = thread_time()
            function.pump()
            cpu = thread_time() - cpu0
            self.spans.close(span_id, "ran.pump", start)
        self.probe.tick(perf_counter())
        return cpu

    def _open_loop(self, phase: Phase, per_node_hz: float, seconds: float) -> List[array]:
        """Pump every MAC function at ``per_node_hz``, nodes staggered.

        One schedule at ``NODES`` times the rate, its slots dealt to the
        nodes in turn.  Returns the due times per node.
        """
        loop = OpenLoop(1.0 / (per_node_hz * NODES), start=perf_counter() + 0.002)
        end = loop.start + seconds
        dues = [array("d") for _ in range(NODES)]
        busy = 0.0
        marks = phase.ran_cpu_marks
        while True:
            due = loop.next_due()
            if due >= end:
                break
            if not marks or due - marks[-1][0] >= MARK_INTERVAL_S:
                marks.append((due, self._ran_cpu(busy)))
            index = (loop.slot - 1) % NODES
            busy += self._pump(index)
            dues[index].append(due)
        marks.append((perf_counter(), self._ran_cpu(busy)))
        loop.late.pop()  # the slot that ended the phase was never sent
        phase.wall_s = perf_counter() - loop.start
        phase.late = loop.late
        phase.ran_cpu_s = busy
        phase.offered_per_s = per_node_hz * NODES
        sent = sum(len(node) for node in dues)
        phase.achieved_per_s = sent / phase.wall_s
        phase.attempted += sent
        self.sent_total += sent
        return dues

    def _collect_latencies(self, phase: Phase, dues: List[array]) -> None:
        """Match arrivals to due times (both in send order per node)."""
        for index, node_dues in enumerate(dues):
            report = phase.ric["nodes"][index + 1]
            arrivals = _doubles(report["arrivals"])
            phase.failed += report["seq_errors"] + abs(len(node_dues) - report["count"])
            for due, arrival in zip(node_dues, arrivals):
                phase.latencies.append(arrival - due)
                phase.stamps.append(arrival)
            phase.ops += report["count"]
        phase.sort_by_time()


class MonE2E(SdkWorkload):
    name = "mon_e2e"
    why = (
        "Fig. 8 monitoring through the real SDK on both sides: the agent (provider, SM and "
        "E2AP encode) does most of the work, so encode-side changes show here and ingest ones do not"
    )
    phases = (("open", 0.5), ("window", 0.5))
    per_node_hz = 1000.0
    window = 256

    def spec(self) -> Dict[str, Any]:
        return dict(super().spec(), period_ms=1.0)

    def functions_for(self, nb_id: int) -> List[Any]:
        provider = SeededProvider(self.seed, nb_id, self.spans)
        function = mac_stats.MacStatsFunction(provider, sm_codec="fb")
        if nb_id == 1:
            self.providers, self.mac = [], []
        self.providers.append(provider)
        self.mac.append(function)
        return [function]

    def set_tracing(self, on: bool) -> None:
        super().set_tracing(on)
        for provider in self.providers:
            provider.tracing = on

    def run_phase(self, kind: str, seconds: float, traced: bool) -> Phase:
        phase = Phase(kind, seconds)
        tx0 = self.transport.tx()
        if kind == "open":
            begun = self._begin(traced, stamp=True)
            dues = self._open_loop(phase, self.per_node_hz, seconds)
            self._end(phase, begun, expect={i + 1: len(d) for i, d in enumerate(dues)})
            self._collect_latencies(phase, dues)
            phase.done = phase.stamps
        else:
            begun = self._begin(traced)
            sent = self._closed_window(phase, seconds)
            self._end(phase, begun, expect=sent)
            self._count_delivered(phase, sent)
        phase.wire_bytes = self.transport.tx()[0] - tx0[0]
        phase.wire_ops = phase.attempted
        return phase

    def _closed_window(self, phase: Phase, seconds: float) -> Dict[int, int]:
        """Round-robin ``pump()`` with at most ``window`` in flight."""
        ric, window = self.ric, self.window
        sent = [0] * NODES
        busy = 0.0
        index = 0
        start = now = perf_counter()
        end = start + seconds
        marks = [(start, ric.acked(NODES))]
        while now < end:
            if now - marks[-1][0] >= WINDOW_S:
                marks.append((now, ric.acked(NODES)))
            if self.sent_total - ric.acked(NODES) >= window:
                time.sleep(50e-6)
            else:
                busy += self._pump(index)
                sent[index] += 1
                self.sent_total += 1
                index = (index + 1) % NODES
            now = perf_counter()
        marks.append((now, ric.acked(NODES)))
        elapsed = now - start
        phase.rate = (marks[-1][1] - marks[0][1]) / elapsed
        phase.rates = rates_between(marks)
        phase.wall_s = elapsed
        phase.ran_cpu_s = busy
        phase.attempted += sum(sent)
        return {i + 1: count for i, count in enumerate(sent)}

    def final_checks(self, final: Dict[str, Any]) -> List[str]:
        problems = []
        for provider in self.providers:
            if final["latest"].get(provider.nb_id) != provider.last:
                problems.append(
                    f"node {provider.nb_id}: last stored payload is not the last tree provided"
                )
        return problems


class HwPing(SdkWorkload):
    name = "hw_ping"
    why = (
        "Fig. 7 control loop, one ASN.1/1500 B ping in flight: latency- not throughput-bound, "
        "on the PER codec; batching that wins ingest_flood by delaying single wake-ups loses here"
    )
    e2ap_codec = "asn"
    sm_codec = "asn"
    phases = (("ping", 1.0),)
    payload_bytes = 1500

    def functions_for(self, nb_id: int) -> List[Any]:
        function = TracedHw(self.sm_codec, nb_id, self.spans)
        if nb_id == 1:
            self.hw = []
        self.hw.append(function)
        return [function]

    def set_tracing(self, on: bool) -> None:
        super().set_tracing(on)
        for function in self.hw:
            function.tracing = on
        self.transport.tracing = on

    def _pings(self, phase: Phase, seconds: float, traced: bool) -> Phase:
        payload = self.rng.randbytes(self.payload_bytes)
        tx0, rx0 = self.transport.tx(), self.transport.rx_bytes
        served0 = sum(function.pings_served for function in self.hw)
        begun = self._begin(traced, activity="ping", payload=payload)
        started = now = perf_counter()
        while now - started < seconds:
            # The agents answer on the transport thread; this one only
            # reads the clocks: everything but its own CPU is theirs.
            phase.ran_cpu_marks.append((now, time.process_time() - thread_time()))
            time.sleep(min(MARK_INTERVAL_S, started + seconds - now))
            now = perf_counter()
        phase.ran_cpu_marks.append((now, time.process_time() - thread_time()))
        phase.wall_s = now - started
        self._end(phase, begun)
        ping = phase.ric["ping"]
        phase.latencies = _doubles(ping["rtts"])
        phase.stamps = phase.done = _doubles(ping["ends"])
        phase.ops = len(phase.latencies)
        served = sum(function.pings_served for function in self.hw) - served0
        phase.attempted += phase.ops + phase.ric["stuck"]
        phase.failed += ping["mismatches"] + abs(served - phase.ops)
        phase.rate = phase.ops / phase.ric["wall_s"]
        phase.rates = rates_of(phase.stamps)
        phase.ran_cpu_s = phase.ran_process_cpu_s - phase.extra["driver_cpu_s"]
        phase.wire_bytes = (self.transport.tx()[0] - tx0[0]) + (self.transport.rx_bytes - rx0)
        phase.wire_ops = phase.ops
        return phase

    def run_phase(self, kind: str, seconds: float, traced: bool) -> Phase:
        return self._pings(Phase(kind, seconds), seconds, traced)


class SubChurn(SdkWorkload):
    name = "sub_churn"
    why = (
        "subscription writes beside indication reads: every subscribe/unsubscribe copies the "
        "routing snapshot and scans 2 000 standing records while MAC reports keep arriving"
    )
    phases = (("churn", 1.0),)
    standing = 1000
    per_node_hz = 250.0

    def spec(self) -> Dict[str, Any]:
        return dict(super().spec(), period_ms=1000.0 / self.per_node_hz, standing=self.standing)

    def functions_for(self, nb_id: int) -> List[Any]:
        provider = SeededProvider(self.seed, nb_id, self.spans)
        mac = mac_stats.MacStatsFunction(provider, sm_codec="fb")
        hw_function = hw.HwRanFunction(sm_codec="fb")
        if nb_id == 1:
            self.providers, self.mac, self.hw = [], [], []
        self.providers.append(provider)
        self.mac.append(mac)
        self.hw.append(hw_function)
        return [mac, hw_function]

    def set_tracing(self, on: bool) -> None:
        super().set_tracing(on)
        for provider in self.providers:
            provider.tracing = on
        self.transport.tracing = on

    def _ran_cpu(self, busy: float) -> float:
        """The cycles are answered on the transport thread: everything
        but the pumping thread's own CPU."""
        return time.process_time() - thread_time()

    def run_phase(self, kind: str, seconds: float, traced: bool) -> Phase:
        return self._churn(Phase(kind, seconds), seconds, traced)

    def _churn(self, phase: Phase, seconds: float, traced: bool) -> Phase:
        rx0 = self.transport.rx_bytes
        begun = self._begin(traced, activity="churn", stamp=True)
        dues = self._open_loop(phase, self.per_node_hz, seconds)
        self._end(phase, begun, expect={i + 1: len(d) for i, d in enumerate(dues)})
        # Background reports: kept apart from the cycles, which are the op.
        background = Phase("background", phase.wall_s, ric=phase.ric)
        self._collect_latencies(background, dues)
        phase.failed += background.failed
        phase.extra["background"] = background
        wire_cycles = 0
        completed = array("d")
        for link in phase.ric["churn"].values():
            durations, ends = _doubles(link["wire_s"]), _doubles(link["wire_ends"])
            phase.latencies.extend(durations)
            phase.stamps.extend(ends)
            wire_cycles += len(durations)
            completed.extend(_doubles(link["ends"]))
            phase.failed += link["failed"]
        all_cycles = len(completed)
        phase.sort_by_time()
        phase.ops = all_cycles
        phase.attempted += all_cycles
        phase.rate = all_cycles / phase.ric["wall_s"]
        phase.done = sorted(completed)
        phase.rates = rates_of(phase.done)
        phase.ran_cpu_s = phase.ran_process_cpu_s - phase.extra["driver_cpu_s"]
        # Requests only: the responses share a connection with the MAC
        # reports and no boundary of the harness tells them apart.
        phase.wire_bytes = self.transport.rx_bytes - rx0
        phase.wire_ops = wire_cycles
        return phase

    def final_checks(self, final: Dict[str, Any]) -> List[str]:
        problems = []
        expected = NODES * self.standing + NODES  # standing HW + one MAC stream per node
        if final["subscriptions"] != expected:
            problems.append(
                f"submgr holds {final['subscriptions']} subscriptions, expected {expected}"
            )
        for nb_id, function in enumerate(self.hw, start=1):
            if len(function.subscriptions) != self.standing:
                problems.append(
                    f"node {nb_id}: agent holds {len(function.subscriptions)} HW "
                    f"subscriptions, expected {self.standing} (leak)"
                )
        return problems


class IngestFlood(Workload):
    name = "ingest_flood"
    why = (
        "bare forwarding at the smallest message: pre-encoded 64 B indications, so transport, "
        "decode_route, routing and submgr lookup are all of the cost; mon_e2e is its bypass"
    )
    phases = (("open", 0.5), ("window", 0.5))
    ack_every = 16
    function_id = 1
    #: ring of pre-encoded frames; divisible by both burst sizes.
    ring = 1920
    open_burst = 10
    open_hz = 1000.0  # bursts per second per node: 20 000 ind/s in all
    window_burst = 64
    window = 4096
    payload_bytes = 64

    def spec(self) -> Dict[str, Any]:
        return dict(super().spec(), flood_function_id=self.function_id, ring=self.ring)

    def build_nodes(self, address: str) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._connect(address))

    async def _connect(self, address: str) -> None:
        host, _, port = address.rpartition(":")
        item = RanFunctionItem(
            ran_function_id=self.function_id, definition=b"flood", oid=FLOOD_OID
        )
        self.nodes = [
            AsyncE2Node(GlobalE2NodeId(PLMN, nb_id, NodeKind.GNB), [item], codec="fb")
            for nb_id in range(1, NODES + 1)
        ]
        codec = get_codec("fb")
        self.rings: List[List[bytes]] = []
        self.positions = [0] * NODES
        for node in self.nodes:
            await node.connect(host, int(port))
            handle = await node.wait_subscription(SETUP_TIMEOUT_S)
            # Stored twice over, so a burst that crosses the ring's end
            # is still one slice.
            self.rings.append(
                2
                * [
                    encode_message(
                        RicIndication(
                            request=handle.request,
                            ran_function_id=self.function_id,
                            action_id=1,
                            sequence=sequence,
                            payload=self.rng.randbytes(self.payload_bytes),
                        ),
                        codec,
                    )
                    for sequence in range(self.ring)
                ]
            )
        # The node's endpoint is the one thing taken from behind its
        # public surface: replaying pre-encoded frames needs send_many.
        self.endpoints = [node._endpoint for node in self.nodes]

    def close_nodes(self) -> None:
        loop = getattr(self, "loop", None)
        if loop is None:
            return
        for node in getattr(self, "nodes", []):
            loop.run_until_complete(node.close())
        loop.close()
        self.loop = None

    def _burst(self, index: int, size: int) -> List[bytes]:
        position = self.positions[index]
        self.positions[index] = (position + size) % self.ring
        return self.rings[index][position : position + size]

    async def _send(self, index: int, batch: List[bytes]) -> float:
        """One coalesced write of ``batch``; CPU seconds it took here."""
        start = perf_counter()
        cpu0 = thread_time()
        await self.endpoints[index].send_many(batch)
        cpu = thread_time() - cpu0
        if self.tracing:
            first = (self.positions[index] - len(batch)) % self.ring
            self.spans.child("ran.pump", start, index + 1, first)
        self.probe.tick(perf_counter())
        return cpu

    def run_phase(self, kind: str, seconds: float, traced: bool) -> Phase:
        phase = Phase(kind, seconds)
        if kind == "open":
            begun = self._begin(traced, stamp=True)
            dues = self.loop.run_until_complete(self._open_loop(phase, self.open_hz, seconds))
            expect = {i + 1: len(d) * self.open_burst for i, d in enumerate(dues)}
            self._end(phase, begun, expect=expect)
            for index, node_dues in enumerate(dues):
                report = phase.ric["nodes"][index + 1]
                arrivals = _doubles(report["arrivals"])
                phase.failed += report["seq_errors"] + abs(expect[index + 1] - report["count"])
                phase.ops += report["count"]
                for position, arrival in enumerate(arrivals):
                    phase.latencies.append(arrival - node_dues[position // self.open_burst])
                    phase.stamps.append(arrival)
            phase.sort_by_time()
            phase.done = phase.stamps
        else:
            begun = self._begin(traced)
            sent = self.loop.run_until_complete(self._closed_window(phase, seconds))
            self._end(phase, begun, expect=sent)
            self._count_delivered(phase, sent)
        return phase

    async def _open_loop(self, phase: Phase, per_node_hz: float, seconds: float) -> List[array]:
        # The schedule sleeps with time.sleep, blocking this event loop
        # on purpose: asyncio timers round up to a millisecond, the
        # whole period here, and nothing else needs the loop meanwhile.
        loop = OpenLoop(1.0 / (per_node_hz * NODES), start=perf_counter() + 0.002)
        end = loop.start + seconds
        dues = [array("d") for _ in self.nodes]
        busy = 0.0
        size = self.open_burst
        marks = phase.ran_cpu_marks
        while True:
            due = loop.next_due()
            if due >= end:
                break
            if not marks or due - marks[-1][0] >= MARK_INTERVAL_S:
                marks.append((due, busy))
            index = (loop.slot - 1) % NODES
            batch = self._burst(index, size)
            busy += await self._send(index, batch)
            await asyncio.sleep(0)  # the schedule blocks the loop; let it flush
            phase.wire_bytes += sum(map(len, batch)) + FRAME_PREFIX * size
            dues[index].append(due)
        marks.append((perf_counter(), busy))
        loop.late.pop()
        phase.wall_s = perf_counter() - loop.start
        phase.late = loop.late
        phase.ran_cpu_s = busy
        phase.offered_per_s = per_node_hz * NODES * size
        sent = sum(len(node) for node in dues) * size
        phase.achieved_per_s = sent / phase.wall_s
        phase.attempted += sent
        phase.wire_ops = sent
        self.sent_total += sent
        await self._flush()
        return dues

    async def _closed_window(self, phase: Phase, seconds: float) -> Dict[int, int]:
        ric, size, window = self.ric, self.window_burst, self.window - self.window_burst
        sent = [0] * NODES
        busy = 0.0
        index = 0
        start = now = perf_counter()
        end = start + seconds
        marks = [(start, ric.acked(NODES))]
        while now < end:
            if now - marks[-1][0] >= WINDOW_S:
                marks.append((now, ric.acked(NODES)))
            if self.sent_total - ric.acked(NODES) > window:
                time.sleep(50e-6)
                await asyncio.sleep(0)  # let the loop flush what it buffered
            else:
                batch = self._burst(index, size)
                busy += await self._send(index, batch)
                sent[index] += size
                self.sent_total += size
                index = (index + 1) % NODES
            now = perf_counter()
        marks.append((now, ric.acked(NODES)))
        elapsed = now - start
        phase.rate = (marks[-1][1] - marks[0][1]) / elapsed
        phase.rates = rates_between(marks)
        phase.wall_s = elapsed
        phase.ran_cpu_s = busy
        phase.attempted += sum(sent)
        await self._flush()
        return {i + 1: count for i, count in enumerate(sent)}

    async def _flush(self) -> None:
        """Keep the loop running until the RIC has all that was written.

        asyncio may hold the tail of a write in its own buffer; it only
        leaves while the loop runs.
        """
        deadline = time.monotonic() + 5.0
        while self.ric.acked(NODES) < self.sent_total - self.ack_every * NODES:
            if time.monotonic() > deadline:
                break
            await asyncio.sleep(0.001)


WORKLOADS = {cls.name: cls for cls in (MonE2E, IngestFlood, HwPing, SubChurn)}
