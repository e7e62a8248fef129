"""One command for the end-to-end E2 benchmark.

    python3 benchmarks/e2e/run.py --workload mon_e2e --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --repeat 3 --json benchmarks/e2e/results/BENCH_14.json
    python3 benchmarks/e2e/run.py --workload hw_ping --seed 1 --traced
    python3 benchmarks/e2e/run.py --smoke

Per workload it prints every metric by name with its unit, then one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``) as the
last line, and exits non-zero if an output check failed.  ``--trace 0``
reports the end-to-end metrics, measured with tracing off and with the
set-up repeated so ``setup_s`` is a median; ``--trace 1`` reports the
per-layer metrics: each phase runs once untraced and once with the
harness's spans on, then the layer ladder runs.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import ladder, tracing  # noqa: E402
from benchmarks.e2e.harness import WORKLOADS, IdlePoll, Phase, Workload, pin_plan  # noqa: E402
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from benchmarks.e2e.stats import (  # noqa: E402
    calibrate,
    costs_between,
    fingerprint,
    host_scale,
    per_window,
    percentile,
    scaled_pick,
)

RESULTS = Path(__file__).resolve().parent / "results"
#: how often ``--trace 0`` sets the system up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: extra set-ups allowed while waiting for the nodes to be spread out.
PLACEMENT_RETRIES = 8
#: seconds of a traced run kept back for the ladder.
LADDER_S = 4.0
DEFAULT_SECONDS = 20
SMOKE_SECONDS = 2
#: latencies are read window by window (see ``_latency``).
LATENCY_WINDOW_S = 0.5
WINDOW_SAMPLES = 2000
NOISY_DRIFT = 0.10


def _us(seconds: float) -> float:
    return seconds * 1e6


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _latency(stamps, latencies, q: float, pick: float, speed) -> float:
    """``q``-quantile latency per window, ``pick`` over windows, in reference µs.

    Windows are half a second, or as long as it takes to hold
    ``WINDOW_SAMPLES`` samples (twenty beyond the p99).
    """
    per_second = len(stamps) / (stamps[-1] - stamps[0])
    window_s = max(LATENCY_WINDOW_S, WINDOW_SAMPLES / per_second)
    return _us(scaled_pick(per_window(stamps, latencies, q, window_s), speed, "both", pick))


def _latency_pair(stamps, latencies, speed) -> Tuple[float, float]:
    """(p50, p99): the median from the calm quarter of windows, the p99
    from the calmest window.  On a shared host the p99 of all but the
    quietest window belongs to the host (one run's windows: 169 to
    41 000 µs); what the program does to its own tail is in the quietest
    window too."""
    return (
        _latency(stamps, latencies, 0.50, 0.25, speed),
        _latency(stamps, latencies, 0.99, 0.0, speed),
    )


def _cpu_per_op(marks, phase: Phase, side: str) -> float:
    """CPU per operation of a typical window, in reference µs."""
    return _us(scaled_pick(costs_between(marks, phase.done), phase.speed, side, pick=0.5))


def end_to_end(setup_s: float, fixed: Phase, capacity: Phase) -> Dict[str, float]:
    """The eight end-to-end metrics from the untraced phases.

    Times are scaled to the reference host speed by what the speed
    probes saw: each side's own speed for its CPU, both sides' for what
    crosses the wire.  Everything timed is taken window by window, each
    window scaled by its own host speed, and one window's worth is
    picked: a typical one for CPU, a calm one for latency and rate (see
    ``stats.scaled_pick``).
    """
    p50, p99 = _latency_pair(fixed.stamps, fixed.latencies, fixed.speed)
    return {
        "setup_s": setup_s,
        "latency_p50_us": p50,
        "latency_p99_us": p99,
        "rate_per_s": scaled_pick(capacity.rates, capacity.speed, "both", pick=0.75, divide=True),
        "ric_cpu_us_per_op": _cpu_per_op(fixed.ric["cpu_marks"], fixed, "ric"),
        "ran_cpu_us_per_op": _cpu_per_op(fixed.ran_cpu_marks, fixed, "ran"),
        "ric_rss_mb": capacity.ric["peak_rss_mb"],
        "wire_bytes_per_op": fixed.wire_bytes / fixed.wire_ops,
    }


def _span_metrics(fixed: Phase, capacity: Phase, untraced_fixed: Phase) -> Dict[str, float]:
    """Layer metrics read off the traced phases' spans."""
    out: Dict[str, float] = {}
    fixed_spans = tracing.by_name(fixed.spans)
    produce = fixed_spans.get("ran.pump") or fixed_spans.get("ran.control") or []
    delivers = fixed_spans.get("ric.deliver", [])
    callbacks = fixed_spans.get("ric.callback", [])
    selfs = tracing.self_times(fixed.spans)
    ric, ran = host_scale(fixed.speed, "ric"), host_scale(fixed.speed, "ran")
    both = host_scale(fixed.speed, "both")
    out["ran.produce_span_us"] = _us(statistics.median(r[4] - r[3] for r in produce)) * ran
    out["server.deliver_span_us"] = (
        _us(statistics.median((r[4] - r[3]) / r[7] for r in delivers)) * ric
    )
    out["server.self_us"] = _us(statistics.median(selfs[r[0]] / r[7] for r in delivers)) * ric
    out["controllers.callback_span_us"] = (
        _us(statistics.median(r[4] - r[3] for r in callbacks)) * ric
    )

    # wire.wait: from the end of the span that produced a message on the
    # RAN side to the start of the deliver span its callback ran under.
    deliver_start = {r[0]: r[3] for r in delivers}
    waiting: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for r in sorted(callbacks, key=lambda r: r[3]):
        if r[1] in deliver_start:
            waiting.setdefault((r[5], r[6]), []).append((deliver_start[r[1]], r[4]))
    waits, one_way = [], []
    for r in sorted(produce, key=lambda r: r[3]):
        queue = waiting.get((r[5], r[6]))
        while queue and queue[0][0] < r[3]:
            queue.pop(0)  # an earlier lap of the flood ring
        if queue:
            delivered_at, callback_end = queue.pop(0)
            waits.append(delivered_at - r[4])
            one_way.append(callback_end - r[3])
    out["wire.wait_us"] = _us(statistics.median(waits)) * both if waits else 0.0

    background = untraced_fixed.extra.get("background")
    timed = background or (untraced_fixed if untraced_fixed.kind == "open" else None)
    if timed is not None:
        out["ind.latency_p50_us"], out["ind.latency_p99_us"] = _latency_pair(
            timed.stamps, timed.latencies, untraced_fixed.speed
        )
    else:  # hw_ping: the pong's leg, on_control entry to the pinger's callback
        out["ind.latency_p50_us"] = _us(percentile(one_way, 0.50)) * both
        out["ind.latency_p99_us"] = _us(percentile(one_way, 0.99)) * both

    batches = tracing.by_name(capacity.spans).get("ric.deliver", [])
    out["transport.batch_msgs_p50"] = statistics.median(r[7] for r in batches)
    out["transport.batches_per_s"] = len(batches) / capacity.ric["wall_s"]
    return out


def _counter_metrics(phases: Sequence[Phase]) -> Dict[str, float]:
    """Ratios and counts from both processes' counters, untraced phases."""
    total: Dict[str, int] = {}
    ops = 0
    for phase in phases:
        ops += phase.ops
        for counters in (phase.ric["counters"], phase.ran_counters):
            for name, value in counters.items():
                total[name] = total.get(name, 0) + value
    get = total.get
    cache = get("e2ap.encode_cache.hits", 0) + get("e2ap.encode_cache.misses", 0)
    kernel_hits = get("codec.kernel.encode_hits", 0) + get("codec.kernel.decode_hits", 0)
    fallbacks = get("codec.kernel.encode_fallbacks", 0) + get("codec.kernel.decode_fallbacks", 0)
    leases = get("bufpool.lease.hit", 0) + get("bufpool.lease.miss", 0)
    return {
        "e2ap.encode_cache.hit_ratio": _ratio(get("e2ap.encode_cache.hits", 0), cache),
        "codec.kernel.hit_ratio": _ratio(kernel_hits, kernel_hits + fallbacks),
        "codec.kernel.fallbacks": fallbacks,
        "bufpool.lease.hit_ratio": _ratio(get("bufpool.lease.hit", 0), leases),
        "bytes.copied_per_op": _ratio(get("bytes.copied", 0), ops),
        "tcp.send.vectored_per_op": _ratio(get("tcp.send.vectored", 0), ops),
        "server.subscription.shared": get("server.subscription.shared", 0),
        "decode.contained": get("decode.contained", 0),
        "agent.indications.dropped": get("agent.indications.dropped", 0),
    }


def per_layer(
    workload: Workload,
    untraced: Dict[str, Phase],
    traced: Dict[str, Phase],
    rungs: Dict[str, float],
) -> Dict[str, float]:
    kinds = [kind for kind, _ in workload.phases]
    fixed, capacity = untraced[kinds[0]], untraced[kinds[-1]]
    out = dict(rungs)
    out.update(_span_metrics(traced[kinds[0]], traced[kinds[-1]], fixed))
    out.update(_counter_metrics(list(untraced.values())))
    traced_capacity = traced[kinds[-1]]
    out["trace.overhead_share"] = 1.0 - _ratio(
        traced_capacity.rate / host_scale(traced_capacity.speed, "both"),
        capacity.rate / host_scale(capacity.speed, "both"),
    )
    ric_busy = _us(capacity.ric["cpu_s"] / capacity.ops) * host_scale(capacity.speed, "ric")
    ran_busy = _us(capacity.ran_cpu_s / capacity.ops) * host_scale(capacity.speed, "ran")
    out["ric.busy_cpu_us_per_op"] = ric_busy
    out["ran.busy_cpu_us_per_op"] = ran_busy
    out["ric.cpu_share"] = capacity.ric["cpu_s"] / capacity.ric["wall_s"]
    out["ran.cpu_share"] = capacity.ran_process_cpu_s / capacity.wall_s
    out["ric.rss_growth_mb"] = sum(phase.ric["rss_growth_mb"] for phase in untraced.values())
    out["ladder.sum_us"] = ladder.path_sum(workload.name, rungs)
    out["ladder.residue_us"] = ric_busy + ran_busy - out["ladder.sum_us"]
    return out


def validity(
    workload: Workload, fixed: Phase, capacity: Phase, shards: int, calib: Tuple[float, float]
) -> Dict[str, float]:
    """Numbers about the measurement itself."""
    gen_share = capacity.ran_process_cpu_s / capacity.wall_s
    ric_share = capacity.ric["cpu_s"] / capacity.ric["wall_s"]
    # ingest_flood's rate is a server number only while the generator
    # idles and the RIC does not; everywhere else the RAN side is SDK
    # code under test, so being bound by it is a result, not a defect.
    bound = workload.name == "ingest_flood" and (gen_share >= 0.5 or ric_share < 0.85)
    out = {
        "gen.cpu_share": gen_share,
        "gen.bound": float(bound),
        "ric.ingest_loops": len(set(workload.shard_of_node)),
        "ric.threads": capacity.ric["threads"],
        "ric.procs": capacity.ric["procs"],
        "ric.shards": shards,
        "calib.ops_per_s": calib[0],
        "calib.drift_share": abs(calib[1] - calib[0]) / calib[0],
        "samples": len(fixed.latencies),
        "host.speed_share.ric": host_scale(fixed.speed, "ric"),
        "host.speed_share.ran": host_scale(fixed.speed, "ran"),
        "host.speed_share.ric.capacity": host_scale(capacity.speed, "ric"),
        "host.speed_share.ran.capacity": host_scale(capacity.speed, "ran"),
    }
    if len(fixed.late):
        out["gen.offered_per_s"] = fixed.offered_per_s
        out["gen.achieved_per_s"] = fixed.achieved_per_s
        out["gen.late_p99_us"] = _us(percentile(fixed.late, 0.99))
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, ric_cpus: Sequence[int]
) -> Dict[str, Any]:
    """One run of one workload; everything the caller prints or saves."""
    calib0 = calibrate()
    workload = WORKLOADS[name](seed, ric_cpus)
    untraced: Dict[str, Phase] = {}
    traced: Dict[str, Phase] = {}
    setups: List[float] = []
    budget = seconds - LADDER_S if trace and seconds > 2 * LADDER_S else seconds
    try:
        # Every set-up is timed; the one measured on is the first, from
        # the last of the repeats on, whose nodes the kernel spread over
        # the RIC's ingest loops (see Workload.spread_out).
        repeats = 1 if trace else SETUP_REPEATS
        while True:
            setups.append(workload.setup())
            if len(setups) >= repeats and (
                workload.spread_out() or len(setups) >= repeats + PLACEMENT_RETRIES
            ):
                break
            workload.teardown()
        shards = workload.ric.hello["shards"]
        topology = dict(workload.ric.hello, ran_affinity=sorted(os.sched_getaffinity(0)))
        workload.warm_up()
        for kind, share in workload.phases:
            if trace:
                untraced[kind] = workload.run_phase(kind, budget * share / 2, traced=False)
                traced[kind] = workload.run_phase(kind, budget * share / 2, traced=True)
            else:
                untraced[kind] = workload.run_phase(kind, budget * share, traced=False)
        problems = workload.final_checks(workload.ric.request("final"))
    finally:
        workload.teardown()
    rungs = ladder.measure() if trace else {}
    calib1 = calibrate()

    kinds = [kind for kind, _ in workload.phases]
    fixed, capacity = untraced[kinds[0]], untraced[kinds[-1]]
    counters = _counter_metrics(list(untraced.values()))
    extra = validity(workload, fixed, capacity, shards, (calib0, calib1))
    every = list(untraced.values()) + list(traced.values())
    attempted = sum(phase.attempted for phase in every)
    failed = sum(phase.failed for phase in every)
    failed += counters["decode.contained"] + counters["agent.indications.dropped"]
    if extra["gen.bound"]:
        problems.append("generator-bound: the rate is not a server number")
    if trace:
        metrics = per_layer(workload, untraced, traced, rungs)
        spans = [row for phase in traced.values() for row in phase.spans]
        tracing.write(RESULTS / f"trace_{name}.json", name, spans)
    else:
        metrics = end_to_end(statistics.median(setups), fixed, capacity)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0 and not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "noisy": extra["calib.drift_share"] > NOISY_DRIFT,
        "topology": topology,
        "metrics": metrics,
        "validity": extra,
    }


def contract_line(run: Dict[str, Any]) -> str:
    """The result object the driver reads, exactly its four keys."""
    names = [row[0] for row in (PER_LAYER if run["trace"] else END_TO_END)]
    metrics = {
        name: {"value": float(run["metrics"][name]), "unit": UNITS[name]} for name in names
    }
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            raise ValueError(f"{name} is not finite")
    return json.dumps(
        {
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        }
    )


def report(run: Dict[str, Any]) -> None:
    print(
        f"== {run['workload']} seed={run['seed']} seconds={run['seconds']} "
        f"trace={run['trace']} shards={run['topology']['shards']} "
        f"ric_cpus={run['topology']['affinity']} ran_cpus={run['topology']['ran_affinity']}"
        f"{' NOISY' if run['noisy'] else ''}"
    )
    for section in ("metrics", "validity"):
        for name, value in run[section].items():
            print(f"{name:36s} {value:16.4f} {UNITS[name]}")
    for problem in run["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(contract_line(run))


def save(path: Path, label: str, runs: List[Dict[str, Any]]) -> None:
    """Append this invocation's runs to ``path`` as one run set."""
    document = {"sets": []}
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    document["sets"].append({"label": label, "fingerprint": fingerprint(), "runs": runs})
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_SECONDS} s per run")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seed+i each")
    parser.add_argument("--json", type=Path, help="append the runs to this file as one set")
    parser.add_argument("--label", default="", help="name of the run set in --json")
    args = parser.parse_args(argv)
    if args.json is not None and RESULTS not in args.json.resolve().parents:
        parser.error(f"--json must name a file under {RESULTS}")

    ric_cpus, ran_cpus = pin_plan()
    if ran_cpus:
        os.sched_setaffinity(0, ran_cpus)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    with IdlePoll(ric_cpus + ran_cpus):
        for name in names:
            for offset in range(args.repeat):
                run = run_workload(name, args.seed + offset, seconds, bool(args.trace), ric_cpus)
                report(run)
                runs.append(run)
    if args.json is not None:
        save(args.json, args.label or time.strftime("%Y-%m-%dT%H:%M:%S"), runs)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
