"""Slicing control service model (SC SM, §6.1.2).

Abstracts the configuration of radio-resource slices in a
RAT-independent way: the SM "allows to configure the slice algorithm
(setting the slice scheduler) and a list of slices with
algorithm-specific parameters (selecting the user scheduler and
configuring its available resources)", plus the UE-to-slice
association.  The xApp stays oblivious of the RAT.

Control commands (value trees, SM-encoded):

* ``{"cmd": "set_algo", "algo": "none"|"static"|"nvs"}``
* ``{"cmd": "add_slice", "slice": {...SliceConfig...}}``
* ``{"cmd": "del_slice", "slice_id": int}``
* ``{"cmd": "assoc_ue", "rnti": int, "slice_id": int}``

Reports carry the current slice configuration and per-slice resource
usage, via the standard periodic trigger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Tuple

from repro.core.agent.ran_function import ControlOutcome, SubscriptionHandle
from repro.core.codec.schema import wire
from repro.core.e2ap.procedures import Cause
from repro.sm.base import (
    PeriodicReportFunction,
    SmInfo,
    StatsProvider,
    VisibilityFn,
    decode_payload,
    encode_payload,
)

INFO = SmInfo(name="SLICE_CTRL", oid="1.3.6.1.4.1.53148.1.1.2.146", default_function_id=146)

ALGO_NONE = "none"      # single scheduler, no slicing
ALGO_STATIC = "static"  # fixed resource partition, no sharing
ALGO_NVS = "nvs"        # NVS capacity/rate slicing (Kokku et al.)

KIND_CAPACITY = "capacity"
KIND_RATE = "rate"


@wire()
@dataclass(frozen=True)
class SliceConfig:
    """Algorithm-specific slice parameters.

    ``cap`` is the resource share for capacity slices (0..1];
    ``rate_mbps``/``ref_mbps`` parameterize NVS rate slices
    (reserved rate over reference rate, Appendix B).
    """

    slice_id: int
    label: str = ""
    kind: str = KIND_CAPACITY
    cap: float = 0.0
    rate_mbps: float = 0.0
    ref_mbps: float = 0.0
    ue_scheduler: str = "pf"

    @property
    def resource_share(self) -> float:
        """The NVS resource fraction this slice consumes."""
        if self.kind == KIND_CAPACITY:
            return self.cap
        if self.ref_mbps <= 0.0:
            raise ValueError(f"rate slice {self.slice_id} has no reference rate")
        return self.rate_mbps / self.ref_mbps


class SliceControlApi(Protocol):
    """What a MAC layer must expose for the SC SM to drive it.

    Implementations raise ``ValueError`` on admission-control failures
    (e.g. total resource share exceeding 1.0) — "it is the SM ... to
    perform sufficient admission control upon subscriptions of the
    controllers, and ensure that the requested operations are
    conflict-free" (§4.1.2).
    """

    def set_slice_algorithm(self, algo: str) -> None: ...

    def add_slice(self, config: SliceConfig) -> None: ...

    def delete_slice(self, slice_id: int) -> None: ...

    def associate_ue(self, rnti: int, slice_id: int) -> None: ...

    def slice_snapshot(self) -> dict: ...


# -- controller-side command builders ---------------------------------


def build_set_algo(algo: str, codec_name: str) -> bytes:
    return encode_payload({"cmd": "set_algo", "algo": algo}, codec_name)


def build_add_slice(config: SliceConfig, codec_name: str) -> bytes:
    return encode_payload({"cmd": "add_slice", "slice": config.to_value()}, codec_name)


def build_del_slice(slice_id: int, codec_name: str) -> bytes:
    return encode_payload({"cmd": "del_slice", "slice_id": slice_id}, codec_name)


def build_assoc_ue(rnti: int, slice_id: int, codec_name: str) -> bytes:
    return encode_payload({"cmd": "assoc_ue", "rnti": rnti, "slice_id": slice_id}, codec_name)


def parse_command(payload: bytes, codec_name: str) -> dict:
    tree = decode_payload(payload, codec_name)
    return {key: tree[key] for key in tree.keys()} if hasattr(tree, "keys") else dict(tree)


class SliceCtrlFunction(PeriodicReportFunction):
    """Agent-side SC SM: control handling plus periodic config reports."""

    def __init__(
        self,
        api: SliceControlApi,
        sm_codec: str = "fb",
        clock=None,
        visibility: Optional[VisibilityFn] = None,
        ran_function_id: Optional[int] = None,
    ) -> None:
        super().__init__(
            info=INFO,
            provider=lambda visible: api.slice_snapshot(),
            sm_codec=sm_codec,
            clock=clock,
            visibility=visibility,
            ran_function_id=ran_function_id,
        )
        self.api = api

    def on_control(self, origin: int, header: bytes, payload: bytes) -> ControlOutcome:
        try:
            command = decode_payload(payload, self.sm_codec)
            cmd = command["cmd"]
            if cmd == "set_algo":
                self.api.set_slice_algorithm(command["algo"])
            elif cmd == "add_slice":
                self.api.add_slice(SliceConfig.from_value(command["slice"]))
            elif cmd == "del_slice":
                self.api.delete_slice(command["slice_id"])
            elif cmd == "assoc_ue":
                self.api.associate_ue(command["rnti"], command["slice_id"])
            else:
                return ControlOutcome.fail(
                    Cause.ric_request(Cause.CONTROL_MESSAGE_INVALID, f"unknown cmd {cmd!r}")
                )
        except (KeyError, TypeError) as exc:
            return ControlOutcome.fail(
                Cause.ric_request(Cause.CONTROL_MESSAGE_INVALID, f"malformed command: {exc}")
            )
        except ValueError as exc:
            # Admission control refused the operation.
            return ControlOutcome.fail(
                Cause.ric_request(Cause.ADMISSION_REFUSED, str(exc))
            )
        return ControlOutcome.ok(encode_payload({"ok": True}, self.sm_codec))
