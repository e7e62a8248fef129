"""E2AP procedure codes, message classes and causes.

Codes follow O-RAN.WG3.E2AP-v01.01 numbering where the specification
assigns one; the split into *initiating*, *successful outcome* and
*unsuccessful outcome* message classes mirrors the ASN.1 ``E2AP-PDU``
choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.core.codec.schema import wire


class ProcedureCode(IntEnum):
    """E2AP elementary procedures (subset numbering from the spec)."""

    E2_SETUP = 1
    ERROR_INDICATION = 2
    RESET = 3
    RIC_CONTROL = 4
    RIC_INDICATION = 5
    RIC_SERVICE_QUERY = 6
    RIC_SERVICE_UPDATE = 7
    RIC_SUBSCRIPTION = 8
    RIC_SUBSCRIPTION_DELETE = 9
    E2_NODE_CONFIGURATION_UPDATE = 10
    E2_CONNECTION_UPDATE = 11


class MessageClass(IntEnum):
    """Position of a message within its elementary procedure."""

    INITIATING = 0
    SUCCESSFUL = 1
    UNSUCCESSFUL = 2


class Criticality(IntEnum):
    """IE criticality as defined by E2AP."""

    REJECT = 0
    IGNORE = 1
    NOTIFY = 2


class CauseKind(IntEnum):
    """Top-level cause categories of the E2AP ``Cause`` choice."""

    RIC_REQUEST = 0
    RIC_SERVICE = 1
    TRANSPORT = 2
    PROTOCOL = 3
    MISC = 4


@wire("k v d")
@dataclass(frozen=True)
class Cause:
    """A (category, value) cause pair plus optional free-text detail."""

    kind: CauseKind
    value: int
    detail: str = ""

    # Well-known cause values used across the SDK.
    RAN_FUNCTION_ID_INVALID = 1
    ACTION_NOT_SUPPORTED = 2
    EXCESSIVE_ACTIONS = 3
    DUPLICATE_ACTION = 4
    FUNCTION_RESOURCE_LIMIT = 5
    REQUEST_ID_UNKNOWN = 6
    CONTROL_MESSAGE_INVALID = 7
    ADMISSION_REFUSED = 8
    UNSPECIFIED = 99

    @classmethod
    def ric_request(cls, value: int, detail: str = "") -> "Cause":
        return cls(CauseKind.RIC_REQUEST, value, detail)

    @classmethod
    def ric_service(cls, value: int, detail: str = "") -> "Cause":
        return cls(CauseKind.RIC_SERVICE, value, detail)

    @classmethod
    def protocol(cls, value: int, detail: str = "") -> "Cause":
        return cls(CauseKind.PROTOCOL, value, detail)
