"""Golden wire-format vectors for the E2AP codecs.

Pins the exact encoded bytes of every E2AP message type and every
registered E2SM payload schema under all three codecs.  Any codec
change that alters the wire format — intentionally or through an
"optimization" — fails here loudly instead of surfacing as a
cross-version interop break.

The original vectors in ``tests/data/golden_vectors.json`` were
captured from the pre word-level bit I/O codec implementations; the
optimized hot paths *and* the generated codec kernels
(:mod:`repro.core.codec.codegen`) must reproduce them byte for byte.
The kernel/interpretive equivalence itself is exercised by running the
whole module twice via the ``kernels`` fixture.
"""

import json
from pathlib import Path

import pytest

from repro.core.codec import codegen
from repro.core.codec.base import get_codec, materialize
from repro.core.codec.schema import payload_schema_names
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RanFunctionItem,
    RicActionAdmitted,
    RicActionDefinition,
    RicActionKind,
    RicActionNotAdmitted,
    RicRequestId,
    TnlInformation,
)
from repro.core.e2ap.procedures import Cause, CauseKind
from repro.core.e2ap.messages import (
    E2ConnectionUpdate,
    E2ConnectionUpdateAcknowledge,
    E2ConnectionUpdateFailure,
    E2NodeConfigurationUpdate,
    E2NodeConfigurationUpdateAcknowledge,
    E2NodeConfigurationUpdateFailure,
    E2SetupFailure,
    E2SetupRequest,
    E2SetupResponse,
    ErrorIndication,
    ResetRequest,
    ResetResponse,
    RicControlAcknowledge,
    RicControlFailure,
    RicControlRequest,
    RicIndication,
    RicIndicationKind,
    RicServiceQuery,
    RicServiceUpdate,
    RicServiceUpdateAcknowledge,
    RicServiceUpdateFailure,
    RicSubscriptionDeleteFailure,
    RicSubscriptionDeleteRequest,
    RicSubscriptionDeleteResponse,
    RicSubscriptionFailure,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
    decode_message,
    encode_message,
    message_types,
)
from repro.sm.base import decode_payload, encode_payload

VECTORS = json.loads(
    (Path(__file__).parent / "data" / "golden_vectors.json").read_text()
)

CODECS = ("asn", "fb", "pb")


def _messages():
    node = GlobalE2NodeId(plmn="00101", nb_id=42, kind=list(NodeKind)[0])
    cause = Cause(CauseKind.RIC_REQUEST, Cause.RAN_FUNCTION_ID_INVALID, "bad fid")
    request = RicRequestId(5, 11)
    return {
        "setup_request": E2SetupRequest(
            node_id=node,
            ran_functions=[
                RanFunctionItem(2, b"\x01\x02kpm-def", 1, "1.3.6.1"),
                RanFunctionItem(3, b"slice", 2, "1.3.6.2"),
            ],
        ),
        "setup_response": E2SetupResponse(
            ric_id=7, accepted_functions=[2, 3], rejected_functions=[9]
        ),
        "setup_failure": E2SetupFailure(cause=cause, time_to_wait_s=2.5),
        "reset_request": ResetRequest(
            cause=Cause(CauseKind.TRANSPORT, Cause.UNSPECIFIED)
        ),
        "reset_response": ResetResponse(),
        "error_indication": ErrorIndication(cause=cause, ran_function_id=7),
        "error_indication_no_fid": ErrorIndication(
            cause=Cause(CauseKind.PROTOCOL, Cause.UNSPECIFIED, "oops"),
            ran_function_id=None,
        ),
        "service_query": RicServiceQuery(known_functions=[2, 3, 142]),
        "service_update": RicServiceUpdate(
            added=[RanFunctionItem(4, b"new", 1, "1.3.6.9")], removed=[2]
        ),
        "service_update_ack": RicServiceUpdateAcknowledge(
            accepted=[4, 142], rejected=[9]
        ),
        "service_update_failure": RicServiceUpdateFailure(
            cause=Cause(CauseKind.RIC_SERVICE, Cause.FUNCTION_RESOURCE_LIMIT)
        ),
        "node_config_update": E2NodeConfigurationUpdate(
            node_id=node, config={"tac": "0001", "band": "n78"}
        ),
        "node_config_update_ack": E2NodeConfigurationUpdateAcknowledge(),
        "node_config_update_failure": E2NodeConfigurationUpdateFailure(
            cause=Cause(CauseKind.MISC, Cause.UNSPECIFIED)
        ),
        "connection_update": E2ConnectionUpdate(
            add=[TnlInformation("10.0.0.1", 36421)],
            remove=[TnlInformation("10.0.0.2", 36422)],
        ),
        "connection_update_ack": E2ConnectionUpdateAcknowledge(
            connected=[TnlInformation("10.0.0.1", 36421)]
        ),
        "connection_update_failure": E2ConnectionUpdateFailure(
            cause=Cause(CauseKind.TRANSPORT, Cause.UNSPECIFIED, "refused")
        ),
        "subscription_request": RicSubscriptionRequest(
            request=request,
            ran_function_id=2,
            event_trigger=b"\x00\x05trig",
            actions=[
                RicActionDefinition(
                    action_id=1, kind=list(RicActionKind)[0], definition=b"act"
                )
            ],
        ),
        "subscription_response": RicSubscriptionResponse(
            request=request,
            ran_function_id=2,
            admitted=[RicActionAdmitted(1)],
            not_admitted=[
                RicActionNotAdmitted(2, int(CauseKind.RIC_REQUEST), Cause.ACTION_NOT_SUPPORTED)
            ],
        ),
        "subscription_failure": RicSubscriptionFailure(
            request=request, ran_function_id=2, cause=cause
        ),
        "subscription_delete_request": RicSubscriptionDeleteRequest(
            request=request, ran_function_id=2
        ),
        "subscription_delete_response": RicSubscriptionDeleteResponse(
            request=request, ran_function_id=2
        ),
        "subscription_delete_failure": RicSubscriptionDeleteFailure(
            request=request,
            ran_function_id=2,
            cause=Cause(CauseKind.RIC_REQUEST, Cause.REQUEST_ID_UNKNOWN),
        ),
        "indication_small": RicIndication(
            request=request,
            ran_function_id=2,
            action_id=1,
            sequence=1234,
            kind=RicIndicationKind.REPORT,
            header=b"hdr",
            payload=b"p" * 100,
        ),
        "indication_1500": RicIndication(
            request=request,
            ran_function_id=2,
            action_id=1,
            sequence=99,
            kind=RicIndicationKind.INSERT,
            header=b"\xde\xad",
            payload=bytes(range(256)) * 5 + b"z" * 220,
        ),
        "control_request": RicControlRequest(
            request=RicRequestId(8, 21),
            ran_function_id=3,
            header=b"ch",
            payload=b"\x7f" * 64,
            ack_requested=True,
        ),
        "control_acknowledge": RicControlAcknowledge(
            request=RicRequestId(8, 21), ran_function_id=3, outcome=b"done"
        ),
        "control_failure": RicControlFailure(
            request=RicRequestId(8, 21),
            ran_function_id=3,
            cause=Cause(CauseKind.RIC_REQUEST, Cause.CONTROL_MESSAGE_INVALID),
        ),
    }


def _payloads():
    """One representative tree per registered E2SM payload schema."""
    return {
        "periodic_trigger": {"period_ms": 10.0},
        "kpm_report": {
            "style": 1,
            "measurements": [
                {"name": "DRB.RlcSduDelayDl", "value": 3.25},
                {"name": "DRB.UEThpDl", "value": 120.5},
            ],
            "granularity_ms": 10.0,
            "tstamp_ms": 12345.0,
        },
        "kpm_action": {"style": 1, "metrics": ["DRB.UEThpDl"]},
        "mac_stats_report": {
            "ues": [
                {
                    "rnti": 4660,
                    "cqi": 12,
                    "mcs_dl": 27,
                    "mcs_ul": 22,
                    "prbs_dl": 51,
                    "prbs_ul": 17,
                    "bytes_dl": 123456,
                    "bytes_ul": 65432,
                    "slice_id": 1,
                }
            ],
            "tstamp_ms": 777.0,
        },
        "rlc_stats_report": {
            "bearers": [
                {
                    "rnti": 4660,
                    "bearer_id": 3,
                    "buffer_bytes": 1500,
                    "buffer_pkts": 2,
                    "sojourn_ms": 0.5,
                    "tx_pdus": 100,
                    "tx_bytes": 150000,
                    "rx_pdus": 90,
                    "rx_bytes": 140000,
                    "dropped": 1,
                }
            ],
            "tstamp_ms": 777.0,
        },
        "pdcp_stats_report": {
            "bearers": [
                {
                    "rnti": 4660,
                    "bearer_id": 3,
                    "tx_pkts": 200,
                    "tx_bytes": 250000,
                    "rx_pkts": 190,
                    "rx_bytes": 240000,
                }
            ],
            "tstamp_ms": 777.0,
        },
        "ni_message": {"if": "s1ap", "proc": "attach", "pl": b"\x01\x02\x03", "dir": "ul"},
        "ni_action": {"if": "s1ap", "procs": ["attach", "detach"]},
        "ni_policy": {"if": "x2ap", "procs": ["handover"], "verdict": "drop"},
        "ni_insert_header": {"call_id": 42},
        "ni_resume": {"resume": True, "call_id": 42},
        "hw_ping": {"seq": 7, "data": b"p" * 100},
    }


@pytest.fixture(autouse=True, params=["kernels", "interpretive"])
def kernels(request):
    """Run every golden assertion on both codec paths.

    The generated kernels and the interpretive oracle must agree with
    the pinned bytes independently — this is the equivalence oath the
    codegen layer swears (ISSUE 6).
    """
    if request.param == "interpretive":
        with codegen.interpretive():
            yield
    else:
        yield


class TestGoldenVectors:
    @pytest.mark.parametrize("codec_name", CODECS)
    @pytest.mark.parametrize("message_name", sorted(_messages()))
    def test_exact_bytes(self, codec_name, message_name):
        message = _messages()[message_name]
        codec = get_codec(codec_name)
        expected = bytes.fromhex(VECTORS[f"{codec_name}:{message_name}"])
        assert encode_message(message, codec) == expected

    @pytest.mark.parametrize("codec_name", CODECS)
    @pytest.mark.parametrize("message_name", sorted(_messages()))
    def test_cached_encode_identical(self, codec_name, message_name):
        message = _messages()[message_name]
        codec = get_codec(codec_name)
        expected = bytes.fromhex(VECTORS[f"{codec_name}:{message_name}"])
        first = encode_message(message, codec)
        second = encode_message(message, codec)  # encoding is stateless
        assert first == expected
        assert second == expected

    @pytest.mark.parametrize("codec_name", CODECS)
    @pytest.mark.parametrize("message_name", sorted(_messages()))
    def test_golden_bytes_decode_back(self, codec_name, message_name):
        message = _messages()[message_name]
        codec = get_codec(codec_name)
        wire = bytes.fromhex(VECTORS[f"{codec_name}:{message_name}"])
        decoded = decode_message(wire, codec)
        assert type(decoded) is type(message)
        assert materialize(decoded.to_value()) == materialize(message.to_value())

    def test_every_message_type_is_covered(self):
        covered = {
            (int(type(m).procedure), int(type(m).msg_class))
            for m in _messages().values()
        }
        assert covered == set(message_types().keys())

    def test_every_vector_is_covered(self):
        names = {f"{c}:{m}" for c in CODECS for m in _messages()}
        names |= {f"{c}:payload:{p}" for c in CODECS for p in _payloads()}
        assert names == set(VECTORS)


class TestGoldenPayloads:
    def test_every_payload_schema_has_a_vector(self):
        assert sorted(_payloads()) == payload_schema_names()

    @pytest.mark.parametrize("codec_name", CODECS)
    @pytest.mark.parametrize("payload_name", sorted(_payloads()))
    def test_exact_bytes(self, codec_name, payload_name):
        tree = _payloads()[payload_name]
        expected = bytes.fromhex(VECTORS[f"{codec_name}:payload:{payload_name}"])
        assert encode_payload(tree, codec_name, schema=payload_name) == expected

    @pytest.mark.parametrize("codec_name", CODECS)
    @pytest.mark.parametrize("payload_name", sorted(_payloads()))
    def test_golden_bytes_decode_back(self, codec_name, payload_name):
        tree = _payloads()[payload_name]
        wire = bytes.fromhex(VECTORS[f"{codec_name}:payload:{payload_name}"])
        decoded = decode_payload(wire, codec_name, schema=payload_name)
        assert materialize(decoded) == tree
