"""E2AP information elements shared across messages.

Each IE is declared once, as a dataclass; :func:`~repro.core.codec.schema.wire`
derives its wire schema and generates the ``to_value``/``from_value``
pair that lowers it to the generic value tree and back.  Short
single-letter keys keep the PER-style wire size close to a
schema-driven encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.core.codec.schema import wire


class NodeKind(IntEnum):
    """What kind of E2 node an agent fronts (disaggregation, §4.1.1)."""

    ENB = 0     # monolithic 4G
    GNB = 1     # monolithic 5G
    CU = 2      # centralized unit
    DU = 3      # distributed unit
    CU_CP = 4   # CU control plane
    CU_UP = 5   # CU user plane


@wire("p n k")
@dataclass(frozen=True)
class GlobalE2NodeId:
    """Identity of an E2 node.

    ``plmn`` is the public land mobile network the node serves (e.g.
    ``"00101"``); ``nb_id`` identifies the base station; for
    disaggregated deployments ``nb_id`` is shared between the CU and DU
    parts of one logical base station, which is what lets the server's
    RAN management merge them into one RAN entity (§4.2.2).
    """

    plmn: str
    nb_id: int
    kind: NodeKind = NodeKind.GNB

    @property
    def label(self) -> str:
        return f"{self.plmn}/{self.nb_id}/{self.kind.name}"


@wire("i d r o")
@dataclass(frozen=True)
class RanFunctionItem:
    """Descriptor of one RAN function exposed by an E2 node.

    ``definition`` carries the service-model self-description (already
    SM-encoded bytes — the double-encoding structure of E2), ``oid`` the
    service-model object identifier used by controllers to recognize
    functions they understand.
    """

    ran_function_id: int
    definition: bytes
    revision: int = 1
    oid: str = ""


@wire("r i")
@dataclass(frozen=True)
class RicRequestId:
    """Identifies a subscription/control transaction.

    ``requestor_id`` names the requesting application within the
    controller; ``instance_id`` disambiguates parallel requests from
    the same requestor.
    """

    requestor_id: int
    instance_id: int

    def as_tuple(self) -> tuple:
        return (self.requestor_id, self.instance_id)


class RicActionKind(IntEnum):
    """The four E2SM service kinds (Appendix A.3)."""

    REPORT = 0
    INSERT = 1
    CONTROL = 2
    POLICY = 3


@wire("a k d s")
@dataclass(frozen=True)
class RicActionDefinition:
    """One action requested within a subscription.

    ``definition`` is SM-encoded bytes describing what to report or
    which policy to install; ``subsequent`` indicates whether the RAN
    should continue after an insert (wait/continue semantics).
    """

    action_id: int
    kind: RicActionKind
    definition: bytes = b""
    subsequent: bool = True


@wire("a")
@dataclass(frozen=True)
class RicActionAdmitted:
    """Outcome entry for an admitted action."""

    action_id: int


@wire("a k v")
@dataclass(frozen=True)
class RicActionNotAdmitted:
    """Outcome entry for a rejected action, with the rejection cause."""

    action_id: int
    cause_kind: int
    cause_value: int


@wire("a p")
@dataclass(frozen=True)
class TnlInformation:
    """Transport-network-layer endpoint for E2 connection updates."""

    address: str
    port: int
