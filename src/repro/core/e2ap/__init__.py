"""E2AP intermediate representation (§4.3).

The E2 Application Protocol carries management procedures between an E2
node (agent) and the RIC (server), and encapsulates service-model
payloads.  FlexRIC models every procedure "without loss of information
and independent of any particular encoding/decoding algorithms"; this
package is that model:

* :mod:`repro.core.e2ap.procedures` — procedure codes, message classes
  and cause values,
* :mod:`repro.core.e2ap.ies` — reusable information elements,
* :mod:`repro.core.e2ap.messages` — one dataclass per E2AP message and
  the codec-agnostic ``encode_message`` / ``decode_message`` entry
  points (including the zero-copy ``peek_*`` helpers used on the
  indication hot path).
"""

from repro.core.e2ap.procedures import (
    Cause,
    CauseKind,
    Criticality,
    MessageClass,
    ProcedureCode,
)
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RanFunctionItem,
    RicActionDefinition,
    RicActionKind,
    RicRequestId,
)
from repro.core.e2ap.messages import (
    E2Message,
    E2SetupRequest,
    E2SetupResponse,
    E2SetupFailure,
    ResetRequest,
    ResetResponse,
    ErrorIndication,
    RicServiceQuery,
    RicServiceUpdate,
    RicServiceUpdateAcknowledge,
    RicServiceUpdateFailure,
    E2NodeConfigurationUpdate,
    E2NodeConfigurationUpdateAcknowledge,
    E2NodeConfigurationUpdateFailure,
    E2ConnectionUpdate,
    E2ConnectionUpdateAcknowledge,
    E2ConnectionUpdateFailure,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
    RicSubscriptionFailure,
    RicSubscriptionDeleteRequest,
    RicSubscriptionDeleteResponse,
    RicSubscriptionDeleteFailure,
    RicIndication,
    RicIndicationKind,
    RicControlRequest,
    RicControlAcknowledge,
    RicControlFailure,
    decode_message,
    encode_message,
    message_types,
)

__all__ = [
    "Cause",
    "CauseKind",
    "Criticality",
    "MessageClass",
    "ProcedureCode",
    "GlobalE2NodeId",
    "NodeKind",
    "RanFunctionItem",
    "RicActionDefinition",
    "RicActionKind",
    "RicRequestId",
    "E2Message",
    "E2SetupRequest",
    "E2SetupResponse",
    "E2SetupFailure",
    "ResetRequest",
    "ResetResponse",
    "ErrorIndication",
    "RicServiceQuery",
    "RicServiceUpdate",
    "RicServiceUpdateAcknowledge",
    "RicServiceUpdateFailure",
    "E2NodeConfigurationUpdate",
    "E2NodeConfigurationUpdateAcknowledge",
    "E2NodeConfigurationUpdateFailure",
    "E2ConnectionUpdate",
    "E2ConnectionUpdateAcknowledge",
    "E2ConnectionUpdateFailure",
    "RicSubscriptionRequest",
    "RicSubscriptionResponse",
    "RicSubscriptionFailure",
    "RicSubscriptionDeleteRequest",
    "RicSubscriptionDeleteResponse",
    "RicSubscriptionDeleteFailure",
    "RicIndication",
    "RicIndicationKind",
    "RicControlRequest",
    "RicControlAcknowledge",
    "RicControlFailure",
    "decode_message",
    "encode_message",
    "message_types",
]
