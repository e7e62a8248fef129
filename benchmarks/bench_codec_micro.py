"""Codec micro-benchmark: encode/decode throughput per codec.

Measures the raw codec hot path (no sockets, no server) on a
representative RIC indication at 100 B, 1500 B and 64 KiB payloads —
the same shape the Fig. 7/8 experiments stress.  Reports messages/s
and MB/s (of wire bytes) for encode, decode and the full round trip.

A second section benchmarks the *generated codec kernels*
(:mod:`repro.core.codec.codegen`) against the interpretive walkers on
the three hot message types (RicIndication, RicSubscriptionRequest,
E2SetupRequest) and gates on the speedup: the generated lane must be
at least ``--speedup-floor`` (default 2×) faster on the round trip.

Usage::

    python benchmarks/bench_codec_micro.py                  # full run
    python benchmarks/bench_codec_micro.py --json out.json  # save results
    python benchmarks/bench_codec_micro.py --smoke \
        --baseline benchmarks/baseline_codec_micro.json     # CI gate

``--smoke`` shortens the measurement and, when ``--baseline`` is
given, exits non-zero if any codec's round-trip throughput fell more
than ``--tolerance`` (default 30 %) below the checked-in baseline.
The gate guards against *large* regressions of the optimized paths;
machine-to-machine variation stays inside the tolerance.  The kernel
speedup gate always runs: it compares the two lanes measured in the
same process, so it is machine-independent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.codec import codegen  # noqa: E402
from repro.core.codec.base import (  # noqa: E402
    available_codecs,
    get_codec,
    materialize,
)
from repro.core.codec.manifest import CODECS as KERNEL_CODECS  # noqa: E402
from repro.core.e2ap.ies import (  # noqa: E402
    GlobalE2NodeId,
    NodeKind,
    RanFunctionItem,
    RicActionDefinition,
    RicActionKind,
    RicRequestId,
)
from repro.core.e2ap.messages import (  # noqa: E402
    E2SetupRequest,
    RicIndication,
    RicSubscriptionRequest,
    decode_message,
    encode_message,
)

PAYLOAD_SIZES = (100, 1500, 64 * 1024)


def _indication(payload_len: int) -> RicIndication:
    pattern = bytes(range(256))
    payload = (pattern * (payload_len // 256 + 1))[:payload_len]
    return RicIndication(
        request=RicRequestId(5, 11),
        ran_function_id=2,
        action_id=1,
        sequence=7,
        header=b"hdr",
        payload=payload,
    )


def _best_rate(fn, per_message_bytes: int, min_time_s: float) -> Dict[str, float]:
    """Calibrate a batch size, then take the best of three timed runs."""
    batch = 1
    while True:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed > min_time_s / 4:
            break
        batch *= 4
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        best = min(best, time.perf_counter() - start)
    msgs_per_s = batch / best
    return {
        "msgs_per_s": msgs_per_s,
        "mb_per_s": msgs_per_s * per_message_bytes / 1e6,
    }


def run(min_time_s: float) -> List[dict]:
    results: List[dict] = []
    for codec_name in available_codecs():
        codec = get_codec(codec_name)
        for payload_len in PAYLOAD_SIZES:
            message = _indication(payload_len)
            wire = encode_message(message, codec)

            def encode_once():
                encode_message(message, codec)

            def decode_once():
                # Touch the payload so lazy codecs pay their access
                # cost too, keeping the comparison fair.
                bytes(decode_message(wire, codec).payload)

            def roundtrip_once():
                bytes(decode_message(encode_message(message, codec), codec).payload)

            row = {
                "codec": codec_name,
                "payload_B": payload_len,
                "wire_bytes": len(wire),
                "encode": _best_rate(encode_once, len(wire), min_time_s),
                "decode": _best_rate(decode_once, len(wire), min_time_s),
                "roundtrip": _best_rate(roundtrip_once, len(wire), min_time_s),
            }
            results.append(row)
            print(
                f"  {codec_name:<4} {payload_len:>6} B  wire={row['wire_bytes']:>7}  "
                f"enc={row['encode']['msgs_per_s']:>10.0f}/s  "
                f"dec={row['decode']['msgs_per_s']:>10.0f}/s  "
                f"rt={row['roundtrip']['msgs_per_s']:>10.0f}/s "
                f"({row['roundtrip']['mb_per_s']:.1f} MB/s)"
            )
    return results


def _hot_messages() -> Dict[str, object]:
    """The message types whose encode/decode dominates RIC workloads."""
    return {
        "ric_indication": _indication(1500),
        "ric_subscription_request": RicSubscriptionRequest(
            request=RicRequestId(5, 11),
            ran_function_id=2,
            event_trigger=b"\x00\x05trig",
            actions=[
                RicActionDefinition(
                    action_id=1, kind=list(RicActionKind)[0], definition=b"act"
                )
            ],
        ),
        "e2_setup_request": E2SetupRequest(
            node_id=GlobalE2NodeId(plmn="00101", nb_id=42, kind=list(NodeKind)[0]),
            ran_functions=[
                RanFunctionItem(2, b"\x01\x02kpm-def", 1, "1.3.6.1"),
                RanFunctionItem(3, b"slice", 2, "1.3.6.2"),
            ],
        ),
    }


def _decode_plain(codec, wire: bytes):
    # Both lanes must produce a plain materialized tree: generated
    # kernels return plain dicts already; the interpretive flat codec
    # returns a lazy view that still owes the traversal work.
    out = codec.decode(wire)
    return out if type(out) is dict else materialize(out)


def run_kernel_lanes(min_time_s: float) -> List[dict]:
    """Generated-kernel vs interpretive-walker lanes on hot messages."""
    rows: List[dict] = []
    for message_name, message in _hot_messages().items():
        for codec_name in KERNEL_CODECS:  # "pb" has no generated lane
            codec = get_codec(codec_name)
            wire = encode_message(message, codec)
            tree = materialize(codec.decode(wire))
            lanes: Dict[str, Dict[str, float]] = {}
            for lane in ("generated", "interpretive"):
                was_enabled = codegen.kernels_enabled()
                codegen.set_kernels_enabled(lane == "generated")
                try:
                    encode = _best_rate(
                        lambda: codec.encode(tree), len(wire), min_time_s
                    )
                    decode = _best_rate(
                        lambda: _decode_plain(codec, wire), len(wire), min_time_s
                    )
                finally:
                    codegen.set_kernels_enabled(was_enabled)
                enc, dec = encode["msgs_per_s"], decode["msgs_per_s"]
                lanes[lane] = {
                    "encode_msgs_per_s": enc,
                    "decode_msgs_per_s": dec,
                    "roundtrip_msgs_per_s": 1.0 / (1.0 / enc + 1.0 / dec),
                }
            speedup = {
                op: lanes["generated"][f"{op}_msgs_per_s"]
                / lanes["interpretive"][f"{op}_msgs_per_s"]
                for op in ("encode", "decode", "roundtrip")
            }
            row = {
                "message": message_name,
                "codec": codec_name,
                "wire_bytes": len(wire),
                "generated": lanes["generated"],
                "interpretive": lanes["interpretive"],
                "speedup": speedup,
            }
            rows.append(row)
            print(
                f"  {message_name:<26} {codec_name:<4} "
                f"enc x{speedup['encode']:<5.2f} "
                f"dec x{speedup['decode']:<5.2f} "
                f"rt x{speedup['roundtrip']:.2f} "
                f"(gen rt {lanes['generated']['roundtrip_msgs_per_s']:.0f}/s)"
            )
    return rows


def check_speedup(rows: List[dict], floor: float) -> List[str]:
    """The generated lane must beat the interpretive lane by ``floor``."""
    failures: List[str] = []
    for row in rows:
        ratio = row["speedup"]["roundtrip"]
        if ratio < floor:
            failures.append(
                f"{row['message']} / {row['codec']}: generated round trip only "
                f"x{ratio:.2f} vs interpretive (floor x{floor:.1f})"
            )
    return failures


def check_baseline(
    results: List[dict],
    kernel_lanes: List[dict],
    baseline_path: Path,
    tolerance: float,
) -> List[str]:
    baseline = json.loads(baseline_path.read_text())
    reference = {
        (row["codec"], row["payload_B"]): row["roundtrip"]["msgs_per_s"]
        for row in baseline["results"]
    }
    failures: List[str] = []
    for row in results:
        key = (row["codec"], row["payload_B"])
        if key not in reference:
            continue
        current = row["roundtrip"]["msgs_per_s"]
        floor = reference[key] * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"{row['codec']} @ {row['payload_B']} B: "
                f"{current:.0f} msgs/s < {floor:.0f} msgs/s "
                f"(baseline {reference[key]:.0f}, tolerance {tolerance:.0%})"
            )
    kernel_reference = {
        (row["message"], row["codec"]): row["generated"]["roundtrip_msgs_per_s"]
        for row in baseline.get("kernel_lanes", [])
    }
    for row in kernel_lanes:
        key = (row["message"], row["codec"])
        if key not in kernel_reference:
            continue
        current = row["generated"]["roundtrip_msgs_per_s"]
        floor = kernel_reference[key] * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"kernel {row['message']} / {row['codec']}: "
                f"{current:.0f} msgs/s < {floor:.0f} msgs/s "
                f"(baseline {kernel_reference[key]:.0f}, tolerance {tolerance:.0%})"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, help="write results as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="short run for CI gating"
    )
    parser.add_argument(
        "--baseline", type=Path, help="baseline JSON to compare round-trip throughput against"
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional regression vs the baseline (default 0.30)",
    )
    parser.add_argument(
        "--speedup-floor", type=float, default=2.0,
        help="required generated-vs-interpretive round-trip speedup "
        "on hot messages (default 2.0)",
    )
    args = parser.parse_args()

    min_time_s = 0.05 if args.smoke else 0.4
    print(f"codec micro-benchmark ({'smoke' if args.smoke else 'full'} mode)")
    results = run(min_time_s)
    print("generated kernels vs interpretive walkers (hot messages)")
    kernel_lanes = run_kernel_lanes(min_time_s)

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "results": results,
        "kernel_lanes": kernel_lanes,
    }
    if args.json:
        args.json.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.json}")

    failures = check_speedup(kernel_lanes, args.speedup_floor)
    if args.baseline:
        failures += check_baseline(
            results, kernel_lanes, args.baseline, args.tolerance
        )
    if failures:
        print("REGRESSION vs baseline:")
        for line in failures:
            print(f"  {line}")
        return 1
    if args.baseline:
        print("baseline check passed")
    print(f"kernel speedup gate passed (floor x{args.speedup_floor:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
