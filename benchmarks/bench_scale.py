"""Many-agent scale harness: server ingest throughput and latency.

Sweeps agent count over the in-process (synchronous) and TCP (one
selector loop) transports and reports, per configuration:

* aggregate indications/s absorbed by the server,
* indication latency p50/p99 (closed-loop sample pass),
* a per-connection ordering assertion (sequence numbers must arrive
  monotonically for every subscription).

The load generator is a minimal hand-rolled E2 agent (setup handshake
plus subscription responder) that blasts *pre-encoded* indication
frames, so the measurement is dominated by the server's receive path —
decode, route, dispatch — not by load-generation overhead.

Usage::

    python benchmarks/bench_scale.py                      # default sweep
    python benchmarks/bench_scale.py --agents 10,100 --transports tcp
    python benchmarks/bench_scale.py --smoke --json out.json
    python benchmarks/bench_scale.py --smoke \
        --baseline benchmarks/baseline_scale.json         # CI gate
    python benchmarks/bench_scale.py --workers 1,4 \
        --min-worker-speedup 2.5                          # multiproc gate
    python benchmarks/bench_scale.py --fanout 1,16 \
        --min-encode-reuse 8                              # zero-copy gate

``--workers`` sweeps the §14 multiprocess ingest tier
(:class:`~repro.core.server.workers.MultiProcServer`): N forked
processes each running a full server behind one SO_REUSEPORT port,
subscriptions installed via declarative policies.  Because worker
processes sidestep the GIL, ``--min-worker-speedup`` asserts real
multi-core scaling — the gate is skipped (with a notice) on hosts
with fewer than four cores, where the hardware cannot express it.

``--baseline`` compares aggregate throughput per configuration against
a checked-in reference and exits non-zero below ``--tolerance``
(default 40 %), mirroring the codec micro-benchmark gate.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
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
    RicActionDefinition,
    RicActionKind,
)
from repro.core.e2ap.messages import (  # noqa: E402
    E2SetupRequest,
    E2SetupResponse,
    RicIndication,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
    decode_message,
    encode_message,
)
from repro.core.e2ap.ies import RicActionAdmitted  # noqa: E402
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks  # noqa: E402
from repro.core.server.workers import MultiProcServer, SubscriptionPolicy  # noqa: E402
from repro.core.transport import InProcTransport, TcpTransport, TransportEvents  # noqa: E402

RAN_FUNCTION_ID = 1
SETUP_TIMEOUT_S = 30.0


class LoadAgent:
    """Minimal E2 node: answers setup/subscription, then blasts frames.

    Deliberately *not* the full :class:`repro.core.agent.Agent`: no
    journal, no reconnect machinery, no service-model host — just the
    two slow-path exchanges the server requires before indications
    route, so the hot loop measures the server, not the agent.
    """

    def __init__(self, transport, address: str, codec, nb_id: int) -> None:
        self.codec = codec
        self.ready = threading.Event()
        self.subscribed = threading.Event()
        self.sub_request = None  # RicRequestId once a subscription lands
        self.endpoint = transport.connect(
            address,
            TransportEvents(on_message=self._on_message),
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


def _wait(predicate, timeout: float = SETUP_TIMEOUT_S) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.0005)
    return predicate()


def _make_stack(transport_kind: str):
    server = Server(ServerConfig())
    if transport_kind == "inproc":
        transport = InProcTransport()
        address = "ric"
    elif transport_kind == "tcp":
        transport = TcpTransport()
        address = "127.0.0.1:0"
    else:
        raise ValueError(f"unknown transport: {transport_kind!r}")
    listener = server.listen(transport, address)
    if transport_kind == "tcp":
        transport.start()
        address = f"127.0.0.1:{listener.port}"
    return server, transport, address


def run_config(
    transport_kind: str,
    num_agents: int,
    per_agent: int,
    latency_samples: int,
    payload_bytes: int = 64,
) -> dict:
    codec = get_codec("fb")
    server, transport, address = _make_stack(transport_kind)
    try:
        agents = [
            LoadAgent(transport, address, codec, nb_id=index + 1)
            for index in range(num_agents)
        ]
        if not _wait(lambda: all(agent.ready.is_set() for agent in agents)):
            raise RuntimeError("E2 setup handshakes did not complete")
        if not _wait(lambda: len(server.agents()) == num_agents):
            raise RuntimeError("server RANDB did not fill")

        # One subscription per agent; each callback appends to its own
        # list (one ingest loop delivers them all, so no lock needed).
        received: List[List[int]] = []
        records = []
        conn_ids = sorted(record.conn_id for record in server.agents())
        for conn_id in conn_ids:
            sink: List[int] = []
            received.append(sink)
            record = server.subscribe(
                conn_id=conn_id,
                ran_function_id=RAN_FUNCTION_ID,
                event_trigger=b"t",
                actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(
                    on_indication=lambda event, sink=sink: sink.append(event.sequence)
                ),
            )
            records.append(record)
        if not _wait(lambda: all(record.confirmed for record in records)):
            raise RuntimeError("subscriptions did not confirm")

        # Agents pair with records in connect order (nb_id == conn order).
        payload = bytes(payload_bytes)
        frames_per_agent = []
        for agent, record in zip(agents, records):
            frames = [
                encode_message(
                    RicIndication(
                        request=record.request,
                        ran_function_id=RAN_FUNCTION_ID,
                        action_id=1,
                        sequence=sequence,
                        header=b"",
                        payload=payload,
                    ),
                    codec,
                )
                for sequence in range(per_agent)
            ]
            frames_per_agent.append((agent.endpoint, frames))

        expected = num_agents * per_agent
        start = time.perf_counter()
        for endpoint, frames in frames_per_agent:
            send = endpoint.send
            for frame in frames:
                send(frame)
        if not _wait(lambda: sum(len(sink) for sink in received) >= expected):
            got = sum(len(sink) for sink in received)
            raise RuntimeError(f"ingest stalled: {got}/{expected} indications")
        elapsed = time.perf_counter() - start

        # Per-connection ordering: the transport's guarantee.
        for sink in received:
            if sink != sorted(sink):
                raise AssertionError("per-connection indication order violated")

        latency = _latency_pass(
            agents[0], records[0], codec, latency_samples
        ) if latency_samples else None

        return {
            "transport": transport_kind,
            "agents": num_agents,
            "indications": expected,
            "elapsed_s": elapsed,
            "ind_per_s": expected / elapsed,
            "latency_us": latency,
        }
    finally:
        server.close()
        stop = getattr(transport, "stop", None)
        if stop is not None:
            stop()


def _latency_pass(agent: LoadAgent, record, codec, samples: int) -> Dict[str, float]:
    """Closed-loop latency: one in-flight indication at a time.

    The send timestamp rides in the payload, so the delta is measured
    entirely at the receiving iApp — transport hand-off plus decode
    plus routing, the full ingest path of one message.
    """
    deltas: List[float] = []
    seen = threading.Event()

    def on_indication(event):
        sent = struct.unpack("d", bytes(event.payload))[0]
        deltas.append((time.perf_counter() - sent) * 1e6)
        seen.set()

    original = record.callbacks.on_indication
    record.callbacks.on_indication = on_indication
    try:
        for sequence in range(samples):
            seen.clear()
            frame = encode_message(
                RicIndication(
                    request=record.request,
                    ran_function_id=RAN_FUNCTION_ID,
                    action_id=1,
                    sequence=sequence,
                    header=b"",
                    payload=struct.pack("d", time.perf_counter()),
                ),
                codec,
            )
            agent.endpoint.send(frame)
            if not seen.wait(timeout=5.0):
                break
    finally:
        record.callbacks.on_indication = original
    if not deltas:
        return {"p50": 0.0, "p99": 0.0, "samples": 0}
    deltas.sort()
    return {
        "p50": deltas[len(deltas) // 2],
        "p99": deltas[min(len(deltas) - 1, int(len(deltas) * 0.99))],
        "samples": len(deltas),
    }


def run_fanout_config(
    fanout: int,
    num_agents: int,
    per_agent: int,
    payload_bytes: int = 64,
) -> dict:
    """One shared-subscription measurement: N sinks per wire record.

    Every agent is subscribed ``fanout`` times with identical
    parameters; the server's single-encode fan-out (DESIGN.md §15)
    collapses them onto one wire subscription, so each incoming
    indication is decoded once and delivered to ``fanout`` sinks.  The
    ``e2ap.encode.messages`` delta over the blast phase counts every
    serialization; ``delivered / encodes`` is the reuse factor the CI
    lane gates (~``fanout`` when the fan-out works, ~1 when every sink
    pays its own encode).
    """
    from repro.metrics.counters import counter_values

    codec = get_codec("fb")
    server, transport, address = _make_stack("inproc")
    try:
        agents = [
            LoadAgent(transport, address, codec, nb_id=index + 1)
            for index in range(num_agents)
        ]
        if not _wait(lambda: all(agent.ready.is_set() for agent in agents)):
            raise RuntimeError("E2 setup handshakes did not complete")
        if not _wait(lambda: len(server.agents()) == num_agents):
            raise RuntimeError("server RANDB did not fill")

        received: List[List[int]] = []
        records = []
        primary = []  # first record per connection (owns the wire state)
        conn_ids = sorted(record.conn_id for record in server.agents())
        for conn_id in conn_ids:
            for position in range(fanout):
                sink: List[int] = []
                received.append(sink)
                record = server.subscribe(
                    conn_id=conn_id,
                    ran_function_id=RAN_FUNCTION_ID,
                    event_trigger=b"t",
                    actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                    callbacks=SubscriptionCallbacks(
                        on_indication=lambda event, sink=sink: sink.append(
                            event.sequence
                        )
                    ),
                )
                records.append(record)
                if position == 0:
                    primary.append(record)
        if not _wait(lambda: all(record.confirmed for record in records)):
            raise RuntimeError("subscriptions did not confirm")

        payload = bytes(payload_bytes)
        encodes_before = counter_values().get("e2ap.encode.messages", 0)
        frames_per_agent = []
        for agent, record in zip(agents, primary):
            frames = [
                encode_message(
                    RicIndication(
                        request=record.request,
                        ran_function_id=RAN_FUNCTION_ID,
                        action_id=1,
                        sequence=sequence,
                        header=b"",
                        payload=payload,
                    ),
                    codec,
                )
                for sequence in range(per_agent)
            ]
            frames_per_agent.append((agent.endpoint, frames))

        expected = num_agents * per_agent * fanout
        start = time.perf_counter()
        for endpoint, frames in frames_per_agent:
            send = endpoint.send
            for frame in frames:
                send(frame)
        if not _wait(lambda: sum(len(sink) for sink in received) >= expected):
            got = sum(len(sink) for sink in received)
            raise RuntimeError(f"ingest stalled: {got}/{expected} deliveries")
        elapsed = time.perf_counter() - start
        encodes = counter_values().get("e2ap.encode.messages", 0) - encodes_before

        # Every sink must see the full ordered stream.
        for sink in received:
            if sink != sorted(sink):
                raise AssertionError("per-sink indication order violated")

        return {
            "transport": "inproc",
            "fanout": fanout,
            "agents": num_agents,
            "indications": expected,
            "elapsed_s": elapsed,
            "ind_per_s": expected / elapsed,
            "encode_calls": encodes,
            "encode_reuse": expected / max(1, encodes),
            "latency_us": None,
        }
    finally:
        server.close()
        stop = getattr(transport, "stop", None)
        if stop is not None:
            stop()


def run_fanout_sweep(
    fanouts: List[int],
    agent_counts: List[int],
    per_agent: int,
    trials: int = 1,
) -> List[dict]:
    results: List[dict] = []
    for num_agents in agent_counts:
        for fanout in fanouts:
            best: Optional[dict] = None
            for _ in range(max(1, trials)):
                row = run_fanout_config(fanout, num_agents, per_agent)
                if best is None or row["ind_per_s"] > best["ind_per_s"]:
                    best = row
            row = best
            row["trials"] = max(1, trials)
            results.append(row)
            print(
                f"  fanout agents={num_agents:<5} "
                f"fanout={fanout:<3} {row['ind_per_s']:>10.0f} deliveries/s  "
                f"encode-reuse={row['encode_reuse']:.1f}x"
            )
    return results


def run_workers_config(
    workers: int,
    num_agents: int,
    per_agent: int,
    payload_bytes: int = 64,
) -> dict:
    """One multiprocess-tier measurement: N worker processes, one port.

    Subscriptions are installed by a declarative policy broadcast to
    every worker, so each agent is subscribed by whichever worker the
    kernel's SO_REUSEPORT hash handed its connection to.  Throughput is
    read back from the merged per-worker stats (``total_indications``),
    the §14 equivalent of the single-process receive counter.
    """
    codec = get_codec("fb")
    mp = MultiProcServer(
        ServerConfig(e2ap_codec="fb"), workers=workers, host="127.0.0.1", port=0
    )
    client = TcpTransport()
    try:
        mp.start()
        client.start()
        mp.subscribe_all(
            SubscriptionPolicy(
                ran_function_id=RAN_FUNCTION_ID,
                event_trigger=b"t",
                actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            )
        )
        agents = [
            LoadAgent(client, mp.address, codec, nb_id=index + 1)
            for index in range(num_agents)
        ]
        if not _wait(lambda: all(agent.ready.is_set() for agent in agents)):
            raise RuntimeError("E2 setup handshakes did not complete")
        if not _wait(lambda: all(agent.subscribed.is_set() for agent in agents)):
            raise RuntimeError("policy subscriptions did not land")

        payload = bytes(payload_bytes)
        frames_per_agent = []
        for agent in agents:
            frames = [
                encode_message(
                    RicIndication(
                        request=agent.sub_request,
                        ran_function_id=RAN_FUNCTION_ID,
                        action_id=1,
                        sequence=sequence,
                        header=b"",
                        payload=payload,
                    ),
                    codec,
                )
                for sequence in range(per_agent)
            ]
            frames_per_agent.append((agent.endpoint, frames))

        expected = num_agents * per_agent
        start = time.perf_counter()
        for endpoint, frames in frames_per_agent:
            send = endpoint.send
            for frame in frames:
                send(frame)
        if not _wait(lambda: mp.total_indications() >= expected):
            got = mp.total_indications()
            raise RuntimeError(f"ingest stalled: {got}/{expected} indications")
        elapsed = time.perf_counter() - start

        stats = mp.stats(refresh=False)
        per_worker = [stats[i].get("indications", 0) for i in sorted(stats)]
        total_rx = sum(per_worker) or 1
        balance = (
            max(per_worker) / (total_rx / len(per_worker)) if per_worker else 1.0
        )
        return {
            "transport": "tcp",
            "workers": workers,
            "agents": num_agents,
            "indications": expected,
            "elapsed_s": elapsed,
            "ind_per_s": expected / elapsed,
            "latency_us": None,
            "worker_rx": per_worker,
            "worker_balance": balance,
        }
    finally:
        client.stop()
        mp.stop()


def run_workers_sweep(
    worker_counts: List[int],
    agent_counts: List[int],
    per_agent: int,
    trials: int = 1,
) -> List[dict]:
    results: List[dict] = []
    for num_agents in agent_counts:
        for workers in worker_counts:
            best: Optional[dict] = None
            for _ in range(max(1, trials)):
                row = run_workers_config(workers, num_agents, per_agent)
                if best is None or row["ind_per_s"] > best["ind_per_s"]:
                    best = row
            row = best
            row["trials"] = max(1, trials)
            results.append(row)
            print(
                f"  tcp-mp agents={num_agents:<5} "
                f"workers={workers}  {row['ind_per_s']:>10.0f} ind/s  "
                f"balance={row['worker_balance']:.2f}"
            )
    return results


def worker_speedups(results: List[dict]) -> List[dict]:
    """workers=N vs workers=1 throughput ratio per agent count."""
    base = {
        row["agents"]: row["ind_per_s"]
        for row in results
        if row.get("workers") == 1
    }
    rows = []
    for row in results:
        workers = row.get("workers", 0)
        if workers <= 1:
            continue
        reference = base.get(row["agents"])
        if not reference:
            continue
        rows.append(
            {
                "transport": "tcp",
                "agents": row["agents"],
                "workers": workers,
                "speedup": row["ind_per_s"] / reference,
            }
        )
    return rows


def run_sweep(
    transports: List[str],
    agent_counts: List[int],
    per_agent: int,
    latency_samples: int,
    trials: int = 1,
) -> List[dict]:
    results: List[dict] = []
    for transport_kind in transports:
        for num_agents in agent_counts:
            # Best-of-N: single-trial numbers on a shared/1-core CI
            # host swing 2x with scheduler luck; the best trial is
            # the least-disturbed measurement of the code's actual
            # cost (classic benchmarking practice).
            best: Optional[dict] = None
            for _ in range(max(1, trials)):
                row = run_config(transport_kind, num_agents, per_agent, latency_samples)
                if best is None or row["ind_per_s"] > best["ind_per_s"]:
                    best = row
            row = best
            row["trials"] = max(1, trials)
            results.append(row)
            latency = row["latency_us"]
            lat_text = (
                f"p50={latency['p50']:.0f}us p99={latency['p99']:.0f}us"
                if latency
                else "-"
            )
            print(
                f"  {transport_kind:<6} agents={num_agents:<5} "
                f"{row['ind_per_s']:>10.0f} ind/s  {lat_text}"
            )
    return results


def check_baseline(results: List[dict], baseline_path: Path, tolerance: float) -> List[str]:
    baseline = json.loads(baseline_path.read_text())
    # ``workers`` (§14) and ``fanout`` (§15) default to 0: the plain
    # one-loop rows carry neither.
    def key_of(row: dict) -> tuple:
        return (row["transport"], row["agents"], row.get("workers", 0), row.get("fanout", 0))

    reference = {key_of(row): row["ind_per_s"] for row in baseline["results"]}
    failures: List[str] = []
    for row in results:
        key = key_of(row)
        if key not in reference:
            continue
        floor = reference[key] * (1.0 - tolerance)
        if row["ind_per_s"] < floor:
            failures.append(
                f"{key[0]} agents={key[1]} workers={key[2]} fanout={key[3]}: "
                f"{row['ind_per_s']:.0f} ind/s < {floor:.0f} ind/s "
                f"(baseline {reference[key]:.0f}, tolerance {tolerance:.0%})"
            )
    return failures


def _int_list(text: str) -> List[int]:
    return [int(item) for item in text.split(",") if item]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=_int_list, default=[10, 100],
                        help="comma-separated agent counts (default 10,100)")
    parser.add_argument("--transports", default="inproc,tcp",
                        help="comma-separated transports (default inproc,tcp)")
    parser.add_argument("--per-agent", type=int, default=200,
                        help="indications per agent per run (default 200)")
    parser.add_argument("--latency-samples", type=int, default=200,
                        help="closed-loop latency samples per config (default 200)")
    parser.add_argument("--trials", type=int, default=3,
                        help="trials per config; the best is reported (default 3)")
    parser.add_argument("--workers", type=_int_list, default=[],
                        help="comma-separated multiprocess worker counts; "
                             "non-empty adds the tcp multiproc sweep")
    parser.add_argument("--fanout", type=_int_list, default=[],
                        help="comma-separated shared-subscription fanout "
                             "degrees; non-empty adds the single-encode "
                             "fan-out sweep (inproc)")
    parser.add_argument("--min-encode-reuse", type=float, default=0.0,
                        help="fail if any fanout>1 config re-encodes more "
                             "than delivered/this-factor (0 disables)")
    parser.add_argument("--min-worker-speedup", type=float, default=0.0,
                        help="fail if any workers=N config is below this "
                             "speedup vs workers=1 (0 disables; only "
                             "enforced on hosts with >= 4 cores)")
    parser.add_argument("--json", type=Path, help="write results as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="short run for CI gating")
    parser.add_argument("--baseline", type=Path,
                        help="baseline JSON to compare throughput against")
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="allowed fractional regression vs baseline (default 0.40)")
    args = parser.parse_args()

    per_agent = 200 if args.smoke else args.per_agent
    latency_samples = 50 if args.smoke else args.latency_samples
    transports = [item for item in args.transports.split(",") if item]

    print(f"scale harness ({'smoke' if args.smoke else 'full'} mode)")
    results = run_sweep(
        transports, args.agents, per_agent, latency_samples, trials=args.trials
    )

    worker_rows: List[dict] = []
    worker_ratios: List[dict] = []
    if args.workers:
        print("multiprocess tier (SO_REUSEPORT workers)")
        worker_rows = run_workers_sweep(
            args.workers, args.agents, per_agent, trials=args.trials
        )
        results = results + worker_rows
        worker_ratios = worker_speedups(worker_rows)
        for row in worker_ratios:
            print(
                f"  speedup tcp agents={row['agents']} "
                f"workers={row['workers']}: {row['speedup']:.2f}x vs workers=1"
            )

    fanout_rows: List[dict] = []
    if args.fanout:
        print("shared-subscription fan-out (single-encode tier)")
        fanout_rows = run_fanout_sweep(
            args.fanout, args.agents, per_agent, trials=args.trials
        )
        results = results + fanout_rows

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "results": results,
        "worker_speedups": worker_ratios,
        "cpu_count": os.cpu_count(),
    }
    if args.json:
        args.json.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.json}")

    status = 0
    if args.min_worker_speedup > 0 and worker_ratios:
        cores = os.cpu_count() or 1
        if cores < 4:
            # The GIL is escaped, but one core cannot show it: report,
            # don't gate.  CI enforces this on its multi-core runners.
            print(
                f"worker speedup gate skipped: host has {cores} core(s); "
                f"needs >= 4 to express multiprocess scaling"
            )
        else:
            low = [
                row for row in worker_ratios
                if row["speedup"] < args.min_worker_speedup
            ]
            for row in low:
                print(
                    f"WORKER SPEEDUP BELOW TARGET: agents={row['agents']} "
                    f"workers={row['workers']} "
                    f"{row['speedup']:.2f}x < {args.min_worker_speedup:.2f}x"
                )
            if low:
                status = 1
    if args.min_encode_reuse > 0 and fanout_rows:
        low = [
            row for row in fanout_rows
            if row["fanout"] > 1 and row["encode_reuse"] < args.min_encode_reuse
        ]
        for row in low:
            print(
                f"ENCODE REUSE BELOW TARGET: agents={row['agents']} "
                f"fanout={row['fanout']} "
                f"{row['encode_reuse']:.1f}x < {args.min_encode_reuse:.1f}x"
            )
        if low:
            status = 1
    if args.baseline and args.baseline.exists():
        failures = check_baseline(results, args.baseline, args.tolerance)
        if failures:
            print("REGRESSION vs baseline:")
            for line in failures:
                print(f"  {line}")
            status = 1
        else:
            print("baseline check passed")
    return status


if __name__ == "__main__":
    sys.exit(main())
