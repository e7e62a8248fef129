"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation isolates one architectural decision and measures the two
sides of the trade-off directly:

1. double encoding (E2 standard) vs single-pass (FlexRAN),
2. event-driven dispatch vs polling,
3. zero-copy lazy reads vs eager full decode,
4. dict-indexed subscription lookup vs linear scan,
5. per-SM codec choice across payload sizes.
"""

import pytest

from repro.core.codec.base import get_codec, materialize
from repro.core.e2ap.ies import RicRequestId
from repro.core.e2ap.messages import RicIndication, encode_message
from repro.sm.mac_stats import synthetic_provider


# -- ablation 1: double vs single encoding ---------------------------------


def test_ablation_double_encoding(benchmark):
    """E2's inner+outer encoding versus FlexRAN's single pass."""
    codec = get_codec("pb")
    stats = synthetic_provider(32)(None)

    def double():
        inner = codec.encode(stats)
        outer = codec.encode({"p": 5, "c": 0, "v": {"f": 142, "m": inner}})
        tree = codec.decode(outer)
        codec.decode(tree["v"]["m"])

    benchmark(double)
    benchmark.extra_info["ablation"] = "double encoding (std E2)"


def test_ablation_single_encoding(benchmark):
    codec = get_codec("pb")
    stats = synthetic_provider(32)(None)

    def single():
        outer = codec.encode({"type": 3, "body": stats})
        codec.decode(outer)

    benchmark(single)
    benchmark.extra_info["ablation"] = "single encoding (FlexRAN)"


# -- ablation 2: event-driven vs polling ------------------------------------


def test_ablation_event_driven_idle(benchmark):
    """Idle cost of the callback design: nothing arrives, nothing runs."""

    def idle():
        pass  # the server sleeps in select(); zero work per idle period

    benchmark(idle)
    benchmark.extra_info["ablation"] = "event-driven idle tick"


def test_ablation_polling_idle(benchmark):
    """Idle cost of FlexRAN's design: every 1 ms tick scans the RIB."""
    from repro.baselines.flexran.controller import Rib

    rib = Rib()
    provider = synthetic_provider(32)
    for agent_id in range(10):
        rib.store(agent_id, {"mac": provider(None), "tick": 0})

    benchmark(rib.poll)
    benchmark.extra_info["ablation"] = "polling idle tick (10-agent RIB)"


# -- ablation 3: lazy reads vs eager decode ----------------------------------


def _indication_bytes(codec_name: str) -> bytes:
    from repro.sm.base import encode_payload

    payload = encode_payload(synthetic_provider(32)(None), "fb", "mac_stats_report")
    indication = RicIndication(
        request=RicRequestId(1, 7),
        ran_function_id=142,
        action_id=1,
        sequence=0,
        payload=payload,
    )
    return encode_message(indication, get_codec(codec_name))


def test_ablation_lazy_header_peek(benchmark):
    """Dispatch cost with the FB codec: read three scalars, stop."""
    codec = get_codec("fb")
    data = _indication_bytes("fb")

    def peek():
        tree = codec.decode(data)
        body = tree["v"]
        return body["q"]["r"], body["q"]["i"], body["f"]

    benchmark(peek)
    benchmark.extra_info["ablation"] = "lazy peek (fb)"


def test_ablation_eager_full_decode(benchmark):
    """Dispatch cost when the whole message must be materialized."""
    codec = get_codec("asn")
    data = _indication_bytes("asn")

    def full():
        tree = materialize(codec.decode(data))
        body = tree["v"]
        return body["q"]["r"], body["q"]["i"], body["f"]

    benchmark(full)
    benchmark.extra_info["ablation"] = "eager decode (asn)"


# -- ablation 4: indexed vs linear subscription lookup ------------------------


@pytest.mark.parametrize("n_subs", [10, 1000])
def test_ablation_dict_lookup(benchmark, n_subs):
    from repro.core.server.submgr import SubscriptionCallbacks, SubscriptionManager

    manager = SubscriptionManager()
    records = [
        manager.create(conn_id=i % 16, ran_function_id=142, callbacks=SubscriptionCallbacks())
        for i in range(n_subs)
    ]
    target = records[-1].request

    benchmark(manager.lookup, target.requestor_id, target.instance_id)
    benchmark.extra_info["ablation"] = f"dict lookup over {n_subs} subs"


@pytest.mark.parametrize("n_subs", [10, 1000])
def test_ablation_linear_scan(benchmark, n_subs):
    from repro.core.server.submgr import SubscriptionCallbacks, SubscriptionManager

    manager = SubscriptionManager()
    records = [
        manager.create(conn_id=i % 16, ran_function_id=142, callbacks=SubscriptionCallbacks())
        for i in range(n_subs)
    ]
    target = records[-1].request

    def scan():
        for record in records:
            if record.request == target:
                return record
        return None

    benchmark(scan)
    benchmark.extra_info["ablation"] = f"linear scan over {n_subs} subs"


# -- ablation 5: SM codec choice across payload scale --------------------------


@pytest.mark.parametrize("n_ues", [1, 32, 128])
@pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
def test_ablation_sm_codec_scale(benchmark, codec_name, n_ues):
    codec = get_codec(codec_name)
    stats = synthetic_provider(n_ues)(None)

    def roundtrip():
        materialize(codec.decode(codec.encode(stats)))

    benchmark(roundtrip)
    benchmark.extra_info.update(
        {"ablation": "SM codec scale", "codec": codec_name, "n_ues": n_ues,
         "wire_bytes": len(codec.encode(stats))}
    )
