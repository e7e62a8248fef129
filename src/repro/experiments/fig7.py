"""Fig. 7: impact of E2AP/E2SM encoding on RTT and signaling rate.

Reproduces §5.2: the HW-E2SM ping between a FlexRIC agent and
controller over localhost sockets, sweeping the four E2AP x E2SM codec
combinations plus the FlexRAN baseline (single Protobuf encoding, no
double encoding), for 100 B and 1500 B payloads.

Paper shapes to reproduce:
* Fig. 7a — FB/FB has the lowest RTT (-25 % at 100 B, -66 % at 1500 B
  versus ASN/ASN); ASN/FB is *worse* than ASN/ASN (the larger FB E2SM
  blob must be re-encoded by ASN.1 E2AP); FlexRAN sits between FB and
  ASN cases.
* Fig. 7b — FB/FB raises the signaling rate by ~67 % at 100 B but
  only marginally at 1500 B; FlexRAN has the smallest rate (no double
  encoding).
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.flexran import FlexRanAgent, FlexRanController
from repro.core.transport.tcp import TcpTransport
from repro.experiments.common import pin_cost_model, signaling_rate_mbps
from repro.metrics import trace as trace_mod
from repro.metrics.stats import Summary, summarize

#: The four double-encoding combinations of §5.2, (E2AP, E2SM).
COMBINATIONS: Tuple[Tuple[str, str], ...] = (
    ("asn", "asn"),
    ("asn", "fb"),
    ("fb", "asn"),
    ("fb", "fb"),
)
PAYLOAD_SIZES = (100, 1500)


@dataclass
class RttResult:
    """RTT measurements of one configuration.

    ``stages`` is filled only on traced runs: per-stage latency
    histogram snapshots (encode/frame/send/recv/decode/dispatch) for
    the measured pings, i.e. the breakdown of where the RTT went.
    """

    label: str
    payload: int
    summary: Summary
    stages: Optional[Dict[str, dict]] = None

    def to_row(self) -> dict:
        row = {
            "label": self.label,
            "payload": self.payload,
            "count": self.summary.count,
            "mean_us": self.summary.mean,
            "p50_us": self.summary.p50,
            "p95_us": self.summary.p95,
            "p99_us": self.summary.p99,
        }
        if self.stages is not None:
            row["stages"] = self.stages
        return row


@pin_cost_model
def run_flexric_rtt(
    e2ap_codec: str, e2sm_codec: str, payload: int, pings: int = 50,
    traced: bool = False,
) -> RttResult:
    """Ping over real localhost TCP sockets, as the paper measured.

    Both ends share one selector loop driven inline from this thread
    (mirroring the paper's epoll-based processes): the RTT then
    reflects socket and codec costs instead of Python thread-wakeup
    jitter, which would otherwise dwarf the codec differences.

    With ``traced`` the procedure tracer is enabled and stage
    histograms are reset after warm-up, so ``RttResult.stages`` covers
    exactly the measured pings.
    """
    transport = TcpTransport()
    if traced:
        trace_mod.enable()
    try:
        from repro.core.server.server import Server, ServerConfig
        from repro.experiments.common import HwPingerIApp
        from repro.core.agent.agent import Agent, AgentConfig
        from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
        from repro.sm import hw

        server = Server(ServerConfig(e2ap_codec=e2ap_codec))
        listener = server.listen(transport, "127.0.0.1:0")
        pinger = HwPingerIApp(sm_codec=e2sm_codec)
        server.add_iapp(pinger)
        agent = Agent(
            AgentConfig(
                node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB), e2ap_codec=e2ap_codec
            ),
            transport=transport,
        )
        agent.register_function(hw.HwRanFunction(sm_codec=e2sm_codec))
        agent.connect_async(listener.address)
        deadline = time.monotonic() + 5.0
        while not pinger.subscribed.is_set():
            transport.step(0.05)
            if time.monotonic() > deadline:
                raise TimeoutError("subscription did not complete")
        pump = lambda: transport.step(0.05)
        data = b"p" * payload
        for _ in range(10):  # warm-up: sockets, codec caches, allocator
            pinger.ping(data, pump=pump)
        pinger.rtts_us.clear()
        if traced:
            trace_mod.reset()
        for _ in range(pings):
            pinger.ping(data, pump=pump)
        return RttResult(
            label=f"{e2ap_codec}/{e2sm_codec}",
            payload=payload,
            summary=summarize(pinger.rtts_us),
            stages=trace_mod.TRACER.stage_breakdown() if traced else None,
        )
    finally:
        transport.stop()
        if traced:
            trace_mod.disable()


@pin_cost_model
def run_flexric_rtt_inproc(
    e2ap_codec: str, e2sm_codec: str, payload: int, pings: int = 50,
    traced: bool = False,
) -> RttResult:
    """Same ping exchange over the in-process loopback transport.

    No sockets, no selector: the RTT is pure codec + framing +
    dispatch cost, which is the configuration CI uses to exercise the
    tracer deterministically (and the cheapest way to compare stage
    breakdowns across codec combinations).
    """
    from repro.core.transport.inproc import InProcTransport
    from repro.experiments.common import wire_flexric_pair

    transport = InProcTransport()
    if traced:
        trace_mod.enable()
    pair = None
    try:
        pair = wire_flexric_pair(transport, "ric", e2ap_codec, e2sm_codec)
        data = b"p" * payload
        for _ in range(10):  # warm-up: codec caches, allocator
            pair.pinger.ping(data)
        pair.pinger.rtts_us.clear()
        if traced:
            trace_mod.reset()
        for _ in range(pings):
            pair.pinger.ping(data)
        return RttResult(
            label=f"{e2ap_codec}/{e2sm_codec}",
            payload=payload,
            summary=summarize(pair.pinger.rtts_us),
            stages=trace_mod.TRACER.stage_breakdown() if traced else None,
        )
    finally:
        if pair is not None:
            pair.close()
        if traced:
            trace_mod.disable()


@pin_cost_model
def run_flexran_rtt(payload: int, pings: int = 50) -> RttResult:
    """FlexRAN baseline: echo over its single-encoded protocol."""
    transport = TcpTransport()
    transport.start()
    try:
        controller = FlexRanController()
        listener = controller.listen(transport, "127.0.0.1:0")
        agent = FlexRanAgent(
            agent_id=1,
            transport=transport,
            mac_provider=lambda: {"ues": []},
            rlc_provider=lambda: {"bearers": []},
            pdcp_provider=lambda: {"bearers": []},
        )
        agent.connect(listener.address)
        deadline = time.monotonic() + 5.0
        while not controller.agent_ids and time.monotonic() < deadline:
            time.sleep(0.001)
        if not controller.agent_ids:
            raise TimeoutError("FlexRAN agent did not register")
        data = b"p" * payload
        rtts: List[float] = []
        for seq in range(1, pings + 4):
            expected = len(controller.echo_replies) + 1
            start = time.perf_counter()
            controller.echo(1, seq, data)
            while len(controller.echo_replies) < expected:
                if time.perf_counter() - start > 5.0:
                    raise TimeoutError("FlexRAN echo timed out")
            if seq > 3:  # skip warm-up
                rtts.append((time.perf_counter() - start) * 1e6)
        return RttResult(label="FlexRAN", payload=payload, summary=summarize(rtts))
    finally:
        transport.stop()


def run_rtt_sweep(pings: int = 50) -> List[RttResult]:
    """Fig. 7a: every combination x payload, plus FlexRAN."""
    results: List[RttResult] = []
    for payload in PAYLOAD_SIZES:
        for e2ap, e2sm in COMBINATIONS:
            results.append(run_flexric_rtt(e2ap, e2sm, payload, pings))
        results.append(run_flexran_rtt(payload, pings))
    return results


def run_signaling_sweep(period_ms: float = 1.0) -> List[dict]:
    """Fig. 7b: signaling rate at one ping per TTI (1 ms)."""
    rows = []
    for payload in PAYLOAD_SIZES:
        for e2ap, e2sm in COMBINATIONS:
            rows.append(
                {
                    "label": f"{e2ap}/{e2sm}",
                    "payload": payload,
                    "mbps": signaling_rate_mbps(e2ap, e2sm, payload, period_ms),
                }
            )
        rows.append(
            {
                "label": "FlexRAN",
                "payload": payload,
                "mbps": _flexran_signaling_mbps(payload, period_ms),
            }
        )
    return rows


def _flexran_signaling_mbps(payload: int, period_ms: float) -> float:
    from repro.baselines.flexran import protocol

    request = protocol.echo_request(1, b"x" * payload)
    reply = protocol.echo_reply(1, b"x" * payload)
    per_second = 1000.0 / period_ms
    return (len(request) + len(reply)) * 8.0 * per_second / 1e6


def _print_result(result: RttResult) -> None:
    print(
        f"  {result.label:<8} payload={result.payload:>5}B  "
        f"mean={result.summary.mean:8.1f}us p50={result.summary.p50:8.1f}us"
    )
    if result.stages:
        for stage, snap in sorted(result.stages.items()):
            print(
                f"      {stage:<9} n={snap['count']:>5} "
                f"mean={snap['mean']:8.1f}us p95={snap['p95']:8.1f}us"
            )


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Fig. 7: encoding impact on RTT and signaling rate"
    )
    parser.add_argument(
        "--inproc",
        action="store_true",
        help="run the codec sweep over the in-process transport only "
        "(no sockets; deterministic, used by CI)",
    )
    parser.add_argument(
        "--traced",
        action="store_true",
        help="enable E2AP procedure tracing and report per-stage latency",
    )
    parser.add_argument(
        "--pings", type=int, default=30, help="measured pings per configuration"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write results (and the trace snapshot when --traced) as JSON",
    )
    args = parser.parse_args(argv)

    results: List[RttResult] = []
    if args.inproc:
        print("=== Fig. 7a: HW-E2SM ping round-trip time (in-process) ===")
        for payload in PAYLOAD_SIZES:
            for e2ap, e2sm in COMBINATIONS:
                result = run_flexric_rtt_inproc(
                    e2ap, e2sm, payload, pings=args.pings, traced=args.traced
                )
                _print_result(result)
                results.append(result)
    else:
        print("=== Fig. 7a: HW-E2SM ping round-trip time (localhost TCP) ===")
        for payload in PAYLOAD_SIZES:
            for e2ap, e2sm in COMBINATIONS:
                result = run_flexric_rtt(
                    e2ap, e2sm, payload, pings=args.pings, traced=args.traced
                )
                _print_result(result)
                results.append(result)
            flexran = run_flexran_rtt(payload, pings=args.pings)
            _print_result(flexran)
            results.append(flexran)
        print("=== Fig. 7b: signaling rate at 1 ping/ms ===")
        for row in run_signaling_sweep():
            print(f"  {row['label']:<8} payload={row['payload']:>5}B  {row['mbps']:6.2f} Mbps")

    if args.json:
        document = {
            "experiment": "fig7",
            "transport": "inproc" if args.inproc else "tcp",
            "traced": args.traced,
            "pings": args.pings,
            "results": [result.to_row() for result in results],
        }
        if args.traced:
            # Spans of the last configuration (disable() keeps them);
            # stage histograms per configuration live in each result.
            document["trace"] = trace_mod.TRACER.snapshot()
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
