"""Names, units and directions of everything the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are what ``BENCHMARK.json`` declares
(the test checks that the two agree); ``VALIDITY`` is printed and saved
beside them but is about the measurement itself — generator lateness,
calibration drift, resolved topology — not about a layer of the system.

Every workload reports every end-to-end metric, each read as that
workload's *operation*:

==============  ====================================================
workload        operation
==============  ====================================================
mon_e2e         one MAC-stats indication, agent ``pump()`` to iApp
ingest_flood    one pre-encoded 64 B indication
hw_ping         one HW-SM ping (control out, pong indication back)
sub_churn       one subscribe/unsubscribe cycle
==============  ====================================================
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen before it is a regression.
#: The timing bounds are as wide as they are because of the host, not
#: the harness: on the shared reference host ten runs of one commit
#: spread 3-16 % (interquartile range over median) even after scaling
#: by host speed, and a bound has to clear that.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p99_us", "us", "lower", 0.25),
    ("rate_per_s", "1/s", "higher", 0.25),
    ("ric_cpu_us_per_op", "us", "lower", 0.25),
    ("ran_cpu_us_per_op", "us", "lower", 0.25),
    ("ric_rss_mb", "MB", "lower", 0.10),
    ("wire_bytes_per_op", "B", "lower", 0.01),
]

LADDER_RUNGS: List[str] = [
    "sm.provider_us",
    "sm.encode_us",
    "sm.decode_us",
    "e2ap.encode_ind_us.fb",
    "e2ap.decode_ind_us.fb",
    "codec.decode_route_us.fb",
    "e2ap.encode_ctrl_us.asn",
    "e2ap.decode_ctrl_us.asn",
    "e2ap.encode_ind_us.asn",
    "e2ap.decode_ind_us.asn",
    "sm.hw_ping_us.asn",
    "agent.emit_us",
    "transport.frame_us",
    "transport.deframe_us",
    "transport.socket_us",
    "transport.socket_rtt_us",
    "server.route_us",
    "controllers.store_us",
    "submgr.deliver_us.fanout1",
    "submgr.deliver_us.fanout16",
    "submgr.create_us.n1000",
    "submgr.find_shared_us.n1000",
]

#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [(name, "us", "lower") for name in LADDER_RUNGS] + [
    ("ladder.sum_us", "us", "lower"),
    ("ladder.residue_us", "us", "lower"),
    # spans of the traced half of the run
    ("ran.produce_span_us", "us", "lower"),
    ("wire.wait_us", "us", "lower"),
    ("server.deliver_span_us", "us", "lower"),
    ("server.self_us", "us", "lower"),
    ("controllers.callback_span_us", "us", "lower"),
    ("ind.latency_p50_us", "us", "lower"),
    ("ind.latency_p99_us", "us", "lower"),
    ("transport.batch_msgs_p50", "count", "higher"),
    ("transport.batches_per_s", "1/s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    # CPU where the processors are busy (the capacity phase)
    ("ric.busy_cpu_us_per_op", "us", "lower"),
    ("ran.busy_cpu_us_per_op", "us", "lower"),
    ("ric.cpu_share", "ratio", "lower"),
    ("ran.cpu_share", "ratio", "lower"),
    ("ric.rss_growth_mb", "MB", "lower"),
    # counters of both processes over the untraced half
    ("e2ap.encode_cache.hit_ratio", "ratio", "higher"),
    ("codec.kernel.hit_ratio", "ratio", "higher"),
    ("codec.kernel.fallbacks", "count", "lower"),
    ("bufpool.lease.hit_ratio", "ratio", "higher"),
    ("bytes.copied_per_op", "count", "lower"),
    ("tcp.send.vectored_per_op", "count", "lower"),
    ("server.subscription.shared", "count", "higher"),
    ("decode.contained", "count", "lower"),
    ("agent.indications.dropped", "count", "lower"),
]

VALIDITY: List[Tuple[str, str, str]] = [
    ("gen.offered_per_s", "1/s", "higher"),
    ("gen.achieved_per_s", "1/s", "higher"),
    ("gen.late_p99_us", "us", "lower"),
    ("gen.cpu_share", "ratio", "lower"),
    ("gen.bound", "count", "lower"),
    ("ric.ingest_loops", "count", "higher"),
    ("ric.threads", "count", "lower"),
    ("ric.procs", "count", "lower"),
    ("ric.shards", "count", "lower"),
    ("calib.ops_per_s", "1/s", "higher"),
    ("calib.drift_share", "ratio", "lower"),
    ("samples", "count", "higher"),
    # probe speed as a share of the reference: divide a reported time
    # by it to get back the time as measured
    ("host.speed_share.ric", "ratio", "higher"),
    ("host.speed_share.ran", "ratio", "higher"),
    ("host.speed_share.ric.capacity", "ratio", "higher"),
    ("host.speed_share.ran.capacity", "ratio", "higher"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + VALIDITY}
BETTER: Dict[str, str] = {row[0]: row[2] for row in END_TO_END + PER_LAYER + VALIDITY}
BOUNDS: Dict[str, float] = {name: bound for name, _, _, bound in END_TO_END}
