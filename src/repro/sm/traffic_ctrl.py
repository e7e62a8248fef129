"""Traffic control service model (TC SM, §6.1.1).

Abstracts flow configuration within the RAN "similarly to how OpenFlow
abstracts flows in a switch" (Fig. 10): a classifier segregates packets
into queues, a scheduler serves the queues, a pacer limits the rate
into the RLC.  The xApp of Fig. 11 drives this SM to fight bufferbloat:
it adds a second FIFO queue, installs a 5-tuple filter for the VoIP
flow, and loads the 5G-BDP pacer.

Control commands (value trees, SM-encoded):

* ``{"cmd": "add_queue", "queue_id": int}``
* ``{"cmd": "del_queue", "queue_id": int}``
* ``{"cmd": "add_filter", "filter": {...FiveTupleMatch...}, "queue_id", "prio"}``
* ``{"cmd": "del_filter", "filter_id": int}``
* ``{"cmd": "set_pacer", "kind": "none"|"bdp", "params": {...}}``
* ``{"cmd": "set_sched", "kind": "fifo"|"rr"}``

Reports carry per-queue statistics (backlog, sojourn time, drops) via
the standard periodic trigger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.core.agent.ran_function import ControlOutcome
from repro.core.codec.schema import wire
from repro.core.e2ap.procedures import Cause
from repro.sm.base import (
    PeriodicReportFunction,
    SmInfo,
    VisibilityFn,
    decode_payload,
    encode_payload,
)

INFO = SmInfo(name="TRAFFIC_CTRL", oid="1.3.6.1.4.1.53148.1.1.2.147", default_function_id=147)

PACER_NONE = "none"
PACER_BDP = "bdp"
SCHED_FIFO = "fifo"
SCHED_RR = "rr"


@wire("sa da sp dp pr")
@dataclass(frozen=True)
class FiveTupleMatch:
    """OSI classifier match; empty string / 0 fields are wildcards."""

    src_addr: str = ""
    dst_addr: str = ""
    src_port: int = 0
    dst_port: int = 0
    protocol: str = ""


class TcApi(Protocol):
    """What the TC dataplane exposes for the TC SM to drive it."""

    def add_queue(self, queue_id: int) -> None: ...

    def del_queue(self, queue_id: int) -> None: ...

    def add_filter(self, match: FiveTupleMatch, queue_id: int, prio: int) -> int: ...

    def del_filter(self, filter_id: int) -> None: ...

    def set_pacer(self, kind: str, params: Dict[str, float]) -> None: ...

    def set_scheduler(self, kind: str) -> None: ...

    def queue_snapshot(self) -> dict: ...


# -- controller-side command builders ---------------------------------


def build_target(rnti: int, bearer_id: int, codec_name: str) -> bytes:
    """Control *header*: which bearer's pipeline the command addresses.

    ``rnti=0`` / ``bearer_id=0`` are wildcards (apply to every attached
    pipeline) — convenient for cell-wide policy installation.
    """
    return encode_payload({"rnti": rnti, "bearer_id": bearer_id}, codec_name)


def parse_target(header: bytes, codec_name: str) -> tuple:
    """Decode a control header; empty header means wildcard."""
    if not header:
        return 0, 0
    tree = decode_payload(header, codec_name)
    return tree["rnti"], tree["bearer_id"]


def build_add_queue(queue_id: int, codec_name: str) -> bytes:
    return encode_payload({"cmd": "add_queue", "queue_id": queue_id}, codec_name)


def build_del_queue(queue_id: int, codec_name: str) -> bytes:
    return encode_payload({"cmd": "del_queue", "queue_id": queue_id}, codec_name)


def build_add_filter(match: FiveTupleMatch, queue_id: int, prio: int, codec_name: str) -> bytes:
    return encode_payload(
        {"cmd": "add_filter", "filter": match.to_value(), "queue_id": queue_id, "prio": prio},
        codec_name,
    )


def build_del_filter(filter_id: int, codec_name: str) -> bytes:
    return encode_payload({"cmd": "del_filter", "filter_id": filter_id}, codec_name)


def build_set_pacer(kind: str, params: Dict[str, float], codec_name: str) -> bytes:
    return encode_payload({"cmd": "set_pacer", "kind": kind, "params": dict(params)}, codec_name)


def build_set_sched(kind: str, codec_name: str) -> bytes:
    return encode_payload({"cmd": "set_sched", "kind": kind}, codec_name)


#: Live view of the node's per-bearer pipelines: (rnti, bearer) -> TcApi.
PipelineDirectory = Callable[[], Dict[Tuple[int, int], TcApi]]


class TrafficCtrlFunction(PeriodicReportFunction):
    """Agent-side TC SM: control handling plus periodic queue reports.

    ``pipelines`` returns the node's live per-bearer TC pipelines;
    controls are routed by the (rnti, bearer) target in the control
    header (wildcards fan out to every pipeline).
    """

    def __init__(
        self,
        pipelines: PipelineDirectory,
        sm_codec: str = "fb",
        clock=None,
        visibility: Optional[VisibilityFn] = None,
        ran_function_id: Optional[int] = None,
    ) -> None:
        super().__init__(
            info=INFO,
            provider=lambda visible: self._snapshot(visible),
            sm_codec=sm_codec,
            clock=clock,
            visibility=visibility,
            ran_function_id=ran_function_id,
        )
        self.pipelines = pipelines

    def _snapshot(self, visible) -> dict:
        bearers = []
        for (rnti, bearer_id), api in sorted(self.pipelines().items()):
            if visible is not None and rnti not in visible:
                continue
            entry = api.queue_snapshot()
            entry["rnti"] = rnti
            entry["bearer_id"] = bearer_id
            bearers.append(entry)
        return {"bearers": bearers}

    def _targets(self, header: bytes) -> List[TcApi]:
        rnti, bearer_id = parse_target(header, self.sm_codec)
        matches = [
            api
            for (pipe_rnti, pipe_bearer), api in sorted(self.pipelines().items())
            if (rnti == 0 or pipe_rnti == rnti)
            and (bearer_id == 0 or pipe_bearer == bearer_id)
        ]
        return matches

    def on_control(self, origin: int, header: bytes, payload: bytes) -> ControlOutcome:
        targets = self._targets(header)
        if not targets:
            return ControlOutcome.fail(
                Cause.ric_request(Cause.CONTROL_MESSAGE_INVALID, "no matching pipeline")
            )
        try:
            command = decode_payload(payload, self.sm_codec)
            cmd = command["cmd"]
            result: Any = {"ok": True}
            for api in targets:
                if cmd == "add_queue":
                    api.add_queue(command["queue_id"])
                elif cmd == "del_queue":
                    api.del_queue(command["queue_id"])
                elif cmd == "add_filter":
                    filter_id = api.add_filter(
                        FiveTupleMatch.from_value(command["filter"]),
                        command["queue_id"],
                        command["prio"],
                    )
                    result = {"ok": True, "filter_id": filter_id}
                elif cmd == "del_filter":
                    api.del_filter(command["filter_id"])
                elif cmd == "set_pacer":
                    params_tree = command["params"]
                    params = {key: params_tree[key] for key in params_tree.keys()}
                    api.set_pacer(command["kind"], params)
                elif cmd == "set_sched":
                    api.set_scheduler(command["kind"])
                else:
                    return ControlOutcome.fail(
                        Cause.ric_request(
                            Cause.CONTROL_MESSAGE_INVALID, f"unknown cmd {cmd!r}"
                        )
                    )
        except (KeyError, TypeError) as exc:
            return ControlOutcome.fail(
                Cause.ric_request(Cause.CONTROL_MESSAGE_INVALID, f"malformed command: {exc}")
            )
        except ValueError as exc:
            return ControlOutcome.fail(Cause.ric_request(Cause.ADMISSION_REFUSED, str(exc)))
        return ControlOutcome.ok(encode_payload(result, self.sm_codec))
