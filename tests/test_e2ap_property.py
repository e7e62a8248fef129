"""Property-based tests over generated E2AP messages."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec.base import get_codec
from repro.core.e2ap import (
    Cause,
    CauseKind,
    E2SetupRequest,
    GlobalE2NodeId,
    NodeKind,
    RanFunctionItem,
    RicIndication,
    RicIndicationKind,
    RicRequestId,
    RicSubscriptionRequest,
    decode_message,
    encode_message,
)
from repro.core.e2ap.ies import RicActionDefinition, RicActionKind

plmns = st.text(alphabet="0123456789", min_size=5, max_size=6)
node_ids = st.builds(
    GlobalE2NodeId,
    plmn=plmns,
    nb_id=st.integers(min_value=0, max_value=2**35),
    kind=st.sampled_from(NodeKind),
)
function_items = st.builds(
    RanFunctionItem,
    ran_function_id=st.integers(min_value=0, max_value=4095),
    definition=st.binary(max_size=64),
    revision=st.integers(min_value=1, max_value=255),
    oid=st.text(max_size=32),
)
request_ids = st.builds(
    RicRequestId,
    requestor_id=st.integers(min_value=0, max_value=65535),
    instance_id=st.integers(min_value=0, max_value=65535),
)
actions = st.builds(
    RicActionDefinition,
    action_id=st.integers(min_value=0, max_value=255),
    kind=st.sampled_from(RicActionKind),
    definition=st.binary(max_size=32),
    subsequent=st.booleans(),
)
setup_requests = st.builds(
    E2SetupRequest,
    node_id=node_ids,
    ran_functions=st.lists(function_items, max_size=5),
)
subscription_requests = st.builds(
    RicSubscriptionRequest,
    request=request_ids,
    ran_function_id=st.integers(min_value=0, max_value=4095),
    event_trigger=st.binary(max_size=64),
    actions=st.lists(actions, max_size=4),
)
indications = st.builds(
    RicIndication,
    request=request_ids,
    ran_function_id=st.integers(min_value=0, max_value=4095),
    action_id=st.integers(min_value=0, max_value=255),
    sequence=st.integers(min_value=0, max_value=2**31),
    kind=st.sampled_from(RicIndicationKind),
    header=st.binary(max_size=32),
    payload=st.binary(max_size=2048),
)


@given(message=setup_requests, codec_name=st.sampled_from(["asn", "fb", "pb"]))
@settings(max_examples=80, deadline=None)
def test_setup_roundtrip(message, codec_name):
    codec = get_codec(codec_name)
    assert decode_message(encode_message(message, codec), codec) == message


@given(message=subscription_requests, codec_name=st.sampled_from(["asn", "fb", "pb"]))
@settings(max_examples=80, deadline=None)
def test_subscription_roundtrip(message, codec_name):
    codec = get_codec(codec_name)
    assert decode_message(encode_message(message, codec), codec) == message


@given(message=indications, codec_name=st.sampled_from(["asn", "fb", "pb"]))
@settings(max_examples=80, deadline=None)
def test_indication_roundtrip(message, codec_name):
    codec = get_codec(codec_name)
    assert decode_message(encode_message(message, codec), codec) == message


@given(message=indications)
@settings(max_examples=40, deadline=None)
def test_cross_codec_sizes_ordered(message):
    """The wire-size relationship behind Fig. 7b holds for arbitrary
    indications: flat >= per (fixed-width scalars and size words)."""
    per = len(encode_message(message, get_codec("asn")))
    flat = len(encode_message(message, get_codec("fb")))
    assert flat >= per


@given(
    kind=st.sampled_from(CauseKind),
    value=st.integers(min_value=0, max_value=255),
    detail=st.text(max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_cause_roundtrip(kind, value, detail):
    cause = Cause(kind, value, detail)
    assert Cause.from_value(cause.to_value()) == cause
