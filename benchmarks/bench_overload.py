"""Overload harness: graceful degradation at 1x / 10x / 100x load.

Measures the overload discipline of DESIGN.md §13 end to end.  A probe
pass first measures the stack's ingest capacity ``C`` (delivered
indications/s with every tenant blasting unpaced).  Load passes then
offer ``m x L`` where ``L = 0.6 C`` is the provisioned ("1x") load,
for ``m`` in {1, 10, 100}, from four equal-share tenants, while a
dedicated control-plane prober runs RIC service-query round trips
through the same loaded ingest shards.

Per pass the harness reports and gates on:

* **zero control-class drops** at every multiplier (the two-class
  policy: keepalives/setup/subscriptions are never shed);
* **zero drops of any class at 1x** (provisioned load is lossless);
* **bounded queue memory**: the observed shard-queue high watermark
  stays within 25 % of ``max_queue_depth`` (the slack is the in-flight
  consumer batch, which the depth tracker deliberately includes);
* **flat control-plane p99**: the 10x p99 must stay within
  ``2 x max(1x p99, queue-bound)`` where ``queue-bound =
  2 x 1.25 x max_queue_depth / (C / 2)`` is the architectural floor
  of a round trip (query in, reply back: two traversals) through a
  full — but capped — indication backlog, including the in-flight
  batch slack the depth tracker deliberately counts and a 2x drain
  derating for producer/consumer GIL contention while the flood is
  live.  Without the depth bound the queue would grow with offered
  load and the p99 with it; with it the p99 saturates at the queue
  bound (the 100x pass demonstrates the saturation: its p99 matches
  the 10x pass instead of growing another 10x);
* **per-tenant fairness**: with equal shares, the max/min delivered
  throughput ratio at 10x stays <= 1.5 (an equal-share
  :class:`FairShareLimiter` over 0.8 C gates dispatch, so shed
  unevenness between connections cannot skew tenant goodput).

Usage::

    python benchmarks/bench_overload.py                 # full pass
    python benchmarks/bench_overload.py --quick --json out.json
    python benchmarks/bench_overload.py --quick \
        --baseline benchmarks/baseline_overload.json    # CI gate

``--baseline`` compares delivered throughput per multiplier against a
checked-in reference and exits non-zero below ``--tolerance``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.codec.base import get_codec  # noqa: E402
from repro.core.e2ap.ies import (  # noqa: E402
    GlobalE2NodeId,
    NodeKind,
    RanFunctionItem,
    RicActionAdmitted,
    RicActionDefinition,
    RicActionKind,
)
from repro.core.e2ap.messages import (  # noqa: E402
    E2SetupRequest,
    E2SetupResponse,
    RicIndication,
    RicServiceQuery,
    RicServiceUpdate,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
    decode_message,
    encode_message,
)
from repro.core.overload import (  # noqa: E402
    FairShareLimiter,
    OverloadConfig,
    frame_classifier,
)
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks  # noqa: E402
from repro.core.server import events as topics  # noqa: E402
from repro.core.transport import InProcTransport, TransportEvents  # noqa: E402
from repro.metrics.counters import counter_values, gauge_values, reset_all  # noqa: E402

RAN_FUNCTION_ID = 1
TENANTS = 4
PROBE_NB_ID = 99
SETUP_TIMEOUT_S = 30.0
#: provisioned ("1x") load as a fraction of measured peak capacity —
#: a RIC sized to run at the edge of collapse is misprovisioned, and
#: at exactly 1.0 C the zero-drop gate would race the scheduler.
PROVISIONED_FRACTION = 0.6
#: fair-share limiter capacity as a fraction of C: set *below* the
#: post-shed per-tenant arrival rate so the limiter (not shed luck)
#: decides tenant goodput under overload.
FAIR_CAPACITY_FRACTION = 0.8

BENCH_OVERLOAD = OverloadConfig(
    max_queue_depth=256,
    high_watermark=96,
    burst_coalesce=32,
)


class LoadAgent:
    """Minimal E2 node: setup + subscription responder + keepalive echo.

    Same shape as the bench_scale load generator, plus a RIC
    service-query handler so the control-plane prober can measure
    round trips against it while the data plane floods.
    """

    def __init__(self, transport, address: str, codec, nb_id: int) -> None:
        self.codec = codec
        self.ready = threading.Event()
        self.endpoint = transport.connect(
            address, TransportEvents(on_message=self._on_message)
        )
        setup = E2SetupRequest(
            node_id=GlobalE2NodeId(plmn="00101", nb_id=nb_id, kind=NodeKind.GNB),
            ran_functions=[
                RanFunctionItem(
                    ran_function_id=RAN_FUNCTION_ID, definition=b"bench", oid="bench"
                )
            ],
        )
        self.endpoint.send(encode_message(setup, self.codec))

    def _on_message(self, endpoint, data: bytes) -> None:
        message = decode_message(data, self.codec)
        if isinstance(message, E2SetupResponse):
            self.ready.set()
        elif isinstance(message, RicSubscriptionRequest):
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
        elif isinstance(message, RicServiceQuery):
            # The keepalive echo: an empty update still acknowledges
            # liveness and completes the round trip at the server.
            endpoint.send(encode_message(RicServiceUpdate(), self.codec))


class TenantSink:
    """Delivered-indication counter for one tenant, limiter-gated.

    One connection is pinned to one ingest shard, so each sink is only
    touched from a single thread — plain ints suffice.
    """

    def __init__(self, name: str, limiter: Optional[FairShareLimiter]) -> None:
        self.name = name
        self.limiter = limiter
        self.delivered = 0
        self.rate_limited = 0

    def on_indication(self, event) -> None:
        if self.limiter is not None and not self.limiter.try_acquire(self.name):
            self.rate_limited += 1
            return
        self.delivered += 1


def _wait(predicate, timeout: float = SETUP_TIMEOUT_S) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.0005)
    return predicate()


def _build_stack():
    server = Server(ServerConfig(e2ap_codec="fb", overload=BENCH_OVERLOAD))
    transport = InProcTransport(
        shards=2, overload=BENCH_OVERLOAD, classify=frame_classifier(server.codec)
    )
    server.listen(transport, "ric")
    return server, transport


def _attach_tenants(server, transport, codec, limiter):
    """Connect TENANTS load agents + 1 probe agent; subscribe tenants."""
    agents = [
        LoadAgent(transport, "ric", codec, nb_id=index + 1)
        for index in range(TENANTS)
    ]
    probe_agent = LoadAgent(transport, "ric", codec, nb_id=PROBE_NB_ID)
    everyone = agents + [probe_agent]
    if not _wait(lambda: all(agent.ready.is_set() for agent in everyone)):
        raise RuntimeError("E2 setup handshakes did not complete")
    if not _wait(lambda: len(server.agents()) == len(everyone)):
        raise RuntimeError("server RANDB did not fill")
    conn_by_nb = {record.node_id.nb_id: record.conn_id for record in server.agents()}
    sinks: List[TenantSink] = []
    records = []
    for index in range(TENANTS):
        sink = TenantSink(f"tenant-{index}", limiter)
        sinks.append(sink)
        records.append(
            server.subscribe(
                conn_id=conn_by_nb[index + 1],
                ran_function_id=RAN_FUNCTION_ID,
                event_trigger=b"t",
                actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(on_indication=sink.on_indication),
            )
        )
    if not _wait(lambda: all(record.confirmed for record in records)):
        raise RuntimeError("subscriptions did not confirm")
    return agents, probe_agent, conn_by_nb[PROBE_NB_ID], sinks, records


def _frames_for(record, codec, count=64, payload_bytes=64) -> List[bytes]:
    payload = bytes(payload_bytes)
    return [
        encode_message(
            RicIndication(
                request=record.request,
                ran_function_id=RAN_FUNCTION_ID,
                action_id=1,
                sequence=sequence,
                payload=payload,
            ),
            codec,
        )
        for sequence in range(count)
    ]


class _Sender(threading.Thread):
    """Paced (or unpaced) indication source for one tenant."""

    def __init__(self, endpoint, frames: List[bytes], rate: Optional[float]) -> None:
        super().__init__(daemon=True)
        self.endpoint = endpoint
        self.frames = frames
        self.rate = rate  # None: blast as fast as possible
        self.sent = 0
        self.stop = threading.Event()

    def run(self) -> None:
        frames = self.frames
        count = len(frames)
        send = self.endpoint.send
        if self.rate is None:
            while not self.stop.is_set():
                try:
                    send(frames[self.sent % count])
                except (ConnectionError, OSError):
                    return
                self.sent += 1
            return
        start = time.perf_counter()
        while not self.stop.is_set():
            target = int((time.perf_counter() - start) * self.rate)
            while self.sent < target:
                try:
                    send(frames[self.sent % count])
                except (ConnectionError, OSError):
                    return
                self.sent += 1
            time.sleep(0.001)


class _Prober(threading.Thread):
    """Serialized RIC service-query round trips against the probe agent.

    The query and the agent's service-update answer both traverse the
    same ingest shards the flood saturates; only the two-class shed
    policy keeps the round trip alive under 10x-100x load.
    """

    def __init__(self, server, conn_id: int, interval_s: float = 0.01) -> None:
        super().__init__(daemon=True)
        self.server = server
        self.conn_id = conn_id
        self.interval_s = interval_s
        self.samples_ms: List[float] = []
        self.failures = 0
        self.stop = threading.Event()
        self._done = threading.Event()
        server.events.subscribe(
            topics.FUNCTIONS_UPDATED, lambda payload: self._done.set()
        )

    def run(self) -> None:
        while not self.stop.is_set():
            self._done.clear()
            begin = time.perf_counter()
            try:
                self.server.send_to_agent(self.conn_id, RicServiceQuery())
            except (ConnectionError, OSError):
                self.failures += 1
                return
            if self._done.wait(timeout=5.0):
                self.samples_ms.append((time.perf_counter() - begin) * 1e3)
            else:
                self.failures += 1
            self.stop.wait(self.interval_s)


def _percentiles(samples_ms: List[float]) -> Dict[str, float]:
    if not samples_ms:
        return {"p50": 0.0, "p99": 0.0, "samples": 0}
    ordered = sorted(samples_ms)
    return {
        "p50": ordered[len(ordered) // 2],
        "p99": ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))],
        "samples": len(ordered),
    }


def _shard_hwm() -> int:
    gauges = gauge_values()
    return max(
        (
            value
            for name, value in gauges.items()
            if name.startswith("queue.inproc.shard.") and name.endswith(".hwm")
        ),
        default=0,
    )


def run_pass(
    multiplier: Optional[float],
    capacity_per_s: Optional[float],
    duration_s: float,
) -> dict:
    """One load pass; ``multiplier is None`` is the capacity probe."""
    reset_all()
    codec = get_codec("fb")
    server, transport = _build_stack()
    limiter = None
    per_tenant_rate: Optional[float] = None
    if multiplier is not None:
        assert capacity_per_s is not None
        limiter = FairShareLimiter(
            capacity_per_s * FAIR_CAPACITY_FRACTION,
            {f"tenant-{index}": 1.0 / TENANTS for index in range(TENANTS)},
        )
        offered = multiplier * capacity_per_s * PROVISIONED_FRACTION
        # Past ~20x the paced loop cannot hit its target anyway; blast.
        per_tenant_rate = offered / TENANTS if multiplier <= 20 else None
    try:
        agents, _probe_agent, probe_conn, sinks, records = _attach_tenants(
            server, transport, codec, limiter
        )
        senders = [
            _Sender(agent.endpoint, _frames_for(record, codec), per_tenant_rate)
            for agent, record in zip(agents, records)
        ]
        prober = _Prober(server, probe_conn) if multiplier is not None else None
        begin = time.perf_counter()
        for sender in senders:
            sender.start()
        if prober is not None:
            prober.start()
        time.sleep(duration_s)
        for sender in senders:
            sender.stop.set()
        for sender in senders:
            sender.join(timeout=5.0)
        if prober is not None:
            prober.stop.set()
            prober.join(timeout=10.0)
        transport.quiesce(timeout=10.0)
        elapsed = time.perf_counter() - begin
        counters = counter_values()
        delivered = [sink.delivered for sink in sinks]
        total_delivered = sum(delivered)
        rates = [count / elapsed for count in delivered]
        positive = [rate for rate in rates if rate > 0]
        result = {
            "multiplier": multiplier,
            "duration_s": round(elapsed, 3),
            "offered": sum(sender.sent for sender in senders),
            "delivered": total_delivered,
            "delivered_per_s": total_delivered / elapsed,
            "per_tenant_per_s": [round(rate, 1) for rate in rates],
            "fairness_ratio": (
                max(positive) / min(positive) if len(positive) == TENANTS else None
            ),
            "rate_limited": sum(sink.rate_limited for sink in sinks),
            "drops_control": counters.get("overload.drop.control", 0),
            "drops_indication": counters.get("overload.drop.indication", 0),
            "degrade_enters": counters.get("overload.degrade.enter", 0),
            "queue_hwm": _shard_hwm(),
            "control_latency_ms": (
                _percentiles(prober.samples_ms) if prober is not None else None
            ),
            "probe_failures": prober.failures if prober is not None else 0,
        }
        return result
    finally:
        server.close()
        transport.stop()


def run_harness(duration_s: float, probe_s: float, multipliers: List[float]) -> dict:
    print(f"overload harness: probing capacity ({probe_s:.1f}s unpaced blast)")
    probe = run_pass(None, None, probe_s)
    capacity = probe["delivered_per_s"]
    provisioned = capacity * PROVISIONED_FRACTION
    print(
        f"  capacity C = {capacity:,.0f} ind/s delivered; "
        f"1x load = {provisioned:,.0f} ind/s ({PROVISIONED_FRACTION:.0%} C)"
    )
    results = []
    for multiplier in multipliers:
        row = run_pass(multiplier, capacity, duration_s)
        results.append(row)
        latency = row["control_latency_ms"]
        print(
            f"  {multiplier:>5.0f}x  delivered={row['delivered_per_s']:>10,.0f}/s  "
            f"drops(ctl/ind)={row['drops_control']}/{row['drops_indication']}  "
            f"hwm={row['queue_hwm']}  "
            f"fairness={row['fairness_ratio'] and round(row['fairness_ratio'], 2)}  "
            f"ctl p99={latency['p99']:.2f}ms ({latency['samples']} probes)"
        )
    return {
        "capacity_per_s": capacity,
        "provisioned_per_s": provisioned,
        "config": {
            "max_queue_depth": BENCH_OVERLOAD.max_queue_depth,
            "high_watermark": BENCH_OVERLOAD.high_watermark,
            "burst_coalesce": BENCH_OVERLOAD.burst_coalesce,
            "tenants": TENANTS,
        },
        "results": results,
    }


def gate(payload: dict) -> List[str]:
    """The graceful-degradation acceptance gates; returns failures."""
    failures: List[str] = []
    capacity = payload["capacity_per_s"]
    max_depth = payload["config"]["max_queue_depth"]
    by_multiplier = {row["multiplier"]: row for row in payload["results"]}

    def fail(text: str) -> None:
        failures.append(text)

    base = by_multiplier.get(1)
    if base is not None:
        if base["drops_control"] or base["drops_indication"]:
            fail(
                f"1x load shed traffic: control={base['drops_control']} "
                f"indication={base['drops_indication']} (must be lossless)"
            )
    for multiplier, row in sorted(by_multiplier.items()):
        if row["drops_control"]:
            fail(f"{multiplier}x dropped {row['drops_control']} control frames")
        if row["queue_hwm"] > max_depth * 1.25:
            fail(
                f"{multiplier}x queue hwm {row['queue_hwm']} exceeds "
                f"{max_depth} x 1.25 (unbounded memory)"
            )
        if row["probe_failures"]:
            fail(f"{multiplier}x lost {row['probe_failures']} control probes")
        if not row["control_latency_ms"]["samples"]:
            fail(f"{multiplier}x control prober recorded no samples")
    overload_row = by_multiplier.get(10)
    if base is not None and overload_row is not None:
        # The architectural floor: a probe round trip crosses the
        # loaded shard queue twice (query in, reply back), each time
        # behind a full — but capped — indication backlog, whose
        # tracked depth includes up to 25 % in-flight batch slack;
        # drain runs at ~C/2 while blasting producers contend for the
        # GIL (C is probed with the consumer mostly alone on a core).
        queue_bound_ms = 5e3 * max_depth / capacity if capacity else 0.0
        budget = 2.0 * max(base["control_latency_ms"]["p99"], queue_bound_ms)
        p99 = overload_row["control_latency_ms"]["p99"]
        if p99 > budget:
            fail(
                f"10x control p99 {p99:.2f}ms exceeds budget {budget:.2f}ms "
                f"(2 x max(1x p99 {base['control_latency_ms']['p99']:.2f}ms, "
                f"queue bound {queue_bound_ms:.2f}ms))"
            )
        ratio = overload_row["fairness_ratio"]
        if ratio is None:
            fail("10x fairness: at least one tenant was starved to zero")
        elif ratio > 1.5:
            fail(f"10x tenant max/min throughput ratio {ratio:.2f} > 1.5")
    return failures


def check_baseline(payload: dict, baseline_path: Path, tolerance: float) -> List[str]:
    baseline = json.loads(baseline_path.read_text())
    reference = {
        row["multiplier"]: row["delivered_per_s"] for row in baseline["results"]
    }
    failures: List[str] = []
    for row in payload["results"]:
        expected = reference.get(row["multiplier"])
        if expected is None:
            continue
        floor = expected * (1.0 - tolerance)
        if row["delivered_per_s"] < floor:
            failures.append(
                f"{row['multiplier']}x delivered {row['delivered_per_s']:,.0f}/s "
                f"< {floor:,.0f}/s (baseline {expected:,.0f}, "
                f"tolerance {tolerance:.0%})"
            )
    return failures


def _float_list(text: str) -> List[float]:
    return [float(item) for item in text.split(",") if item]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--multipliers", type=_float_list, default=[1, 10, 100],
                        help="load multipliers over 1x (default 1,10,100)")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="seconds per load pass (default 3.0)")
    parser.add_argument("--probe", type=float, default=1.0,
                        help="seconds for the capacity probe (default 1.0)")
    parser.add_argument("--quick", action="store_true",
                        help="short run for CI gating")
    parser.add_argument("--json", type=Path, help="write results as JSON")
    parser.add_argument("--baseline", type=Path,
                        help="baseline JSON to compare throughput against")
    parser.add_argument("--tolerance", type=float, default=0.50,
                        help="allowed fractional regression vs baseline "
                             "(default 0.50)")
    args = parser.parse_args()

    duration = 0.8 if args.quick else args.duration
    probe = 0.4 if args.quick else args.probe
    payload = run_harness(duration, probe, args.multipliers)
    payload["mode"] = "quick" if args.quick else "full"

    status = 0
    failures = gate(payload)
    if failures:
        print("GRACEFUL-DEGRADATION GATE FAILED:")
        for line in failures:
            print(f"  {line}")
        status = 1
    else:
        print("graceful-degradation gates passed")
    if args.baseline and args.baseline.exists():
        regressions = check_baseline(payload, args.baseline, args.tolerance)
        if regressions:
            print("REGRESSION vs baseline:")
            for line in regressions:
                print(f"  {line}")
            status = 1
        else:
            print("baseline check passed")
    payload["gate_failures"] = failures
    if args.json:
        args.json.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.json}")
    return status


if __name__ == "__main__":
    sys.exit(main())
