"""Unit tests for the E2AP intermediate representation."""

import pytest

from repro.core.codec.base import CodecError, get_codec
from repro.core.e2ap import (
    Cause,
    CauseKind,
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
    GlobalE2NodeId,
    MessageClass,
    NodeKind,
    ProcedureCode,
    RanFunctionItem,
    ResetRequest,
    ResetResponse,
    RicControlAcknowledge,
    RicControlFailure,
    RicControlRequest,
    RicIndication,
    RicIndicationKind,
    RicRequestId,
    RicServiceUpdate,
    RicServiceUpdateAcknowledge,
    RicServiceUpdateFailure,
    RicSubscriptionDeleteFailure,
    RicSubscriptionDeleteRequest,
    RicSubscriptionDeleteResponse,
    RicSubscriptionFailure,
    RicServiceQuery,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
    decode_message,
    encode_message,
    message_types,
    peek_indication_keys,
    peek_procedure,
)
from repro.core.e2ap.ies import (
    RicActionAdmitted,
    RicActionDefinition,
    RicActionKind,
    RicActionNotAdmitted,
    TnlInformation,
)

NODE = GlobalE2NodeId(plmn="00101", nb_id=7, kind=NodeKind.CU)
REQ = RicRequestId(requestor_id=3, instance_id=44)
CAUSE = Cause(CauseKind.RIC_REQUEST, Cause.ADMISSION_REFUSED, "refused")

ALL_MESSAGES = [
    E2SetupRequest(node_id=NODE, ran_functions=[RanFunctionItem(1, b"def", 2, "oid.x")]),
    E2SetupResponse(ric_id=9, accepted_functions=[1, 2], rejected_functions=[3]),
    E2SetupFailure(cause=CAUSE, time_to_wait_s=1.5),
    ResetRequest(cause=CAUSE),
    ResetResponse(),
    ErrorIndication(cause=CAUSE, ran_function_id=5),
    RicServiceQuery(known_functions=[1, 2]),
    RicServiceUpdate(
        added=[RanFunctionItem(4, b"x", 1, "oid.a")],
        modified=[RanFunctionItem(5, b"y", 2, "oid.b")],
        removed=[6],
    ),
    RicServiceUpdateAcknowledge(accepted=[4, 5], rejected=[6]),
    RicServiceUpdateFailure(cause=CAUSE),
    E2NodeConfigurationUpdate(node_id=NODE, config={"k": "v", "j": "w"}),
    E2NodeConfigurationUpdateAcknowledge(),
    E2NodeConfigurationUpdateFailure(cause=CAUSE),
    E2ConnectionUpdate(add=[TnlInformation("ric-2", 0)], remove=[TnlInformation("x", 1)]),
    E2ConnectionUpdateAcknowledge(connected=[TnlInformation("ric-2", 0)]),
    E2ConnectionUpdateFailure(cause=CAUSE),
    RicSubscriptionRequest(
        request=REQ,
        ran_function_id=142,
        event_trigger=b"trig",
        actions=[RicActionDefinition(1, RicActionKind.REPORT, b"ad", True)],
    ),
    RicSubscriptionResponse(
        request=REQ,
        ran_function_id=142,
        admitted=[RicActionAdmitted(1)],
        not_admitted=[RicActionNotAdmitted(2, 0, 3)],
    ),
    RicSubscriptionFailure(request=REQ, ran_function_id=142, cause=CAUSE),
    RicSubscriptionDeleteRequest(request=REQ, ran_function_id=142),
    RicSubscriptionDeleteResponse(request=REQ, ran_function_id=142),
    RicSubscriptionDeleteFailure(request=REQ, ran_function_id=142, cause=CAUSE),
    RicIndication(
        request=REQ,
        ran_function_id=142,
        action_id=1,
        sequence=10,
        kind=RicIndicationKind.INSERT,
        header=b"h",
        payload=b"p" * 64,
    ),
    RicControlRequest(request=REQ, ran_function_id=146, header=b"h", payload=b"c"),
    RicControlAcknowledge(request=REQ, ran_function_id=146, outcome=b"ok"),
    RicControlFailure(request=REQ, ran_function_id=146, cause=CAUSE),
]


@pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
@pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_message_roundtrip(codec_name, message):
    codec = get_codec(codec_name)
    assert decode_message(encode_message(message, codec), codec) == message


def test_registry_covers_26_messages():
    assert len(message_types()) == 26


def test_registry_keys_match_classes():
    for (procedure, msg_class), cls in message_types().items():
        assert int(cls.procedure) == procedure
        assert int(cls.msg_class) == msg_class


def test_duplicate_registration_rejected():
    from repro.core.e2ap.messages import register_message

    class Fake(E2SetupRequest):
        pass

    with pytest.raises(ValueError):
        register_message("n f")(Fake)


@pytest.mark.parametrize("codec_name", ["asn", "fb"])
def test_peek_procedure(codec_name):
    codec = get_codec(codec_name)
    data = encode_message(ResetRequest(cause=CAUSE), codec)
    procedure, msg_class = peek_procedure(data, codec)
    assert procedure == ProcedureCode.RESET
    assert msg_class == MessageClass.INITIATING


@pytest.mark.parametrize("codec_name", ["asn", "fb"])
def test_peek_indication_keys(codec_name):
    codec = get_codec(codec_name)
    indication = RicIndication(
        request=REQ, ran_function_id=142, action_id=1, sequence=0, payload=b"x" * 500
    )
    data = encode_message(indication, codec)
    assert peek_indication_keys(data, codec) == (3, 44, 142)


def test_peek_indication_rejects_other_messages():
    codec = get_codec("fb")
    data = encode_message(ResetResponse(), codec)
    with pytest.raises(CodecError):
        peek_indication_keys(data, codec)


def test_unknown_message_key_raises():
    codec = get_codec("fb")
    data = codec.encode({"p": 250, "c": 0, "v": {}})
    with pytest.raises(CodecError, match="unknown E2AP"):
        decode_message(data, codec)


class TestIes:
    def test_cause_helpers(self):
        assert Cause.ric_request(1).kind is CauseKind.RIC_REQUEST
        assert Cause.ric_service(2).kind is CauseKind.RIC_SERVICE
        assert Cause.protocol(3).kind is CauseKind.PROTOCOL

    def test_node_label(self):
        assert NODE.label == "00101/7/CU"

    def test_request_id_tuple(self):
        assert REQ.as_tuple() == (3, 44)

    def test_ies_frozen(self):
        with pytest.raises(Exception):
            NODE.plmn = "999"

    def test_cross_codec_interop(self):
        """Encode with one codec, decode with the same name elsewhere —
        different codec instances must agree on the wire format."""
        from repro.core.codec.per import PerCodec

        message = ALL_MESSAGES[0]
        data = encode_message(message, PerCodec())
        assert decode_message(data, PerCodec()) == message
