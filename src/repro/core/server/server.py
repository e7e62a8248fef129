"""FlexRIC server core (§4.2.2).

Multiplexes agent connections and dispatches E2AP messages between
agents and iApps.  Design properties carried over from the paper:

* **event-driven** — iApps are invoked only when messages arrive,
  never by polling;
* **stateless indication path** — an indication is routed by a single
  O(1) lookup on its request id; with the FlatBuffers-style codec the
  id is read zero-copy from the raw bytes (no decode pass);
* **no SM logic** — the server implements no service model and never
  requests information by itself; iApps trigger all SM communication.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.codec.base import Codec, CodecError, get_codec
from repro.core.e2ap.ies import GlobalE2NodeId, RicActionDefinition, RicRequestId
from repro.core.e2ap.messages import (
    E2Message,
    E2NodeConfigurationUpdate,
    E2NodeConfigurationUpdateAcknowledge,
    E2SetupFailure,
    E2SetupRequest,
    E2SetupResponse,
    ErrorIndication,
    INDICATION_KINDS,
    RicControlAcknowledge,
    RicControlFailure,
    RicControlRequest,
    RicIndication,
    RicServiceQuery,
    RicServiceUpdate,
    RicServiceUpdateAcknowledge,
    RicSubscriptionDeleteFailure,
    RicSubscriptionDeleteRequest,
    RicSubscriptionDeleteResponse,
    RicSubscriptionFailure,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
    encode_message,
)
from repro.core.e2ap.procedures import Cause, CauseKind, ProcedureCode
from repro.core.overload import AdmissionController, OverloadConfig, frame_classifier
from repro.core.server import events as topics
from repro.core.server.events import EventBus
from repro.core.server.iapp import IApp
from repro.core.server.randb import AgentRecord, RanDatabase
from repro.core.server.submgr import (
    SinkHandle,
    SubscriptionCallbacks,
    SubscriptionManager,
    SubscriptionRecord,
)
from repro.core.transport.base import (
    DisconnectReason,
    Endpoint,
    Listener,
    Transport,
    TransportEvents,
)
from repro.metrics.counters import counter_values, gauge_values, get_counter
from repro.metrics.cpu import CpuMeter
from repro.metrics.memory import MemoryMeter
from repro.metrics.trace import TRACER as _TRACER


@dataclass
class ServerConfig:
    """Static server configuration.

    This is the paper's server (§4.2.2, §4.4): one event loop per
    transport, indications dispatched inline on it, one process
    (:class:`repro.core.server.workers.MultiProcServer` runs several).
    Every transport hands drained batches to :meth:`Server._on_messages`.
    """

    ric_id: int = 1
    e2ap_codec: str = "fb"
    #: grace window (seconds) a disconnected node is kept *stale* in
    #: the RANDB awaiting re-attachment.  0 (default) keeps the legacy
    #: behaviour: disconnect purges the node and its subscriptions.
    stale_grace_s: float = 0.0
    #: idle interval after which a RIC service query keepalive is sent
    #: (0 disables liveness probing).
    keepalive_interval_s: float = 0.0
    #: unanswered keepalives tolerated before the node is declared
    #: silently dead and pushed down the stale path.
    keepalive_misses: int = 3
    #: overload discipline (DESIGN.md §13): the class-aware shed rule
    #: on the TCP drain, setup/subscription admission control.
    #: None (default) keeps the unbounded legacy behaviour exactly.
    overload: Optional[OverloadConfig] = None


#: hoisted: the indication hot loop compares against this constant.
_IND_CODE = int(ProcedureCode.RIC_INDICATION)


def _procedure_name(procedure: int) -> str:
    """Span label for a procedure code; tolerant of unknown codes."""
    try:
        return ProcedureCode(procedure).name.lower()
    except ValueError:
        return f"procedure_{procedure}"


class IndicationEvent:
    """A RIC indication as delivered to an iApp.

    Built from the row ``decode_route`` returns for a ``RicIndication``
    — ``(r, i, f, a, s, k, h, m)``, its ``@wire`` leaves in wire order,
    the same tuple from every codec and lane — so every field is a
    plain slot.  A row that does not fit (wrong length, a ``kind``
    outside :class:`RicIndicationKind`) fails *here*, inside the ingest
    loop's containment, before any iApp sees it.
    """

    __slots__ = (
        "conn_id", "route_key", "requestor_id", "instance_id",
        "ran_function_id", "action_id", "sequence", "kind", "header", "payload",
    )

    def __init__(self, conn_id: int, row: tuple) -> None:
        self.conn_id = conn_id
        (requestor, instance, self.ran_function_id, self.action_id,
         self.sequence, kind, self.header, self.payload) = row
        self.requestor_id = requestor
        self.instance_id = instance
        #: ``(requestor, instance)`` — the submgr routing key.
        self.route_key = (requestor, instance)
        try:
            self.kind = INDICATION_KINDS[kind]
        except (KeyError, TypeError):
            raise CodecError(f"{kind!r} is not a RicIndicationKind", "RicIndication", "k") from None

    @property
    def request(self) -> RicRequestId:
        return RicRequestId(self.requestor_id, self.instance_id)

    def full(self) -> RicIndication:
        """Materialize the complete dataclass (tests, relays)."""
        return RicIndication(
            self.request, self.ran_function_id, self.action_id, self.sequence,
            self.kind, self.header, self.payload,
        )


@dataclass
class _ConnState:
    """Server-side state of one agent connection."""

    conn_id: int
    endpoint: Endpoint
    record: Optional[AgentRecord] = None  # set after E2 setup
    #: monotonic timestamp of the last message from this agent.
    last_seen: float = 0.0
    #: keepalive queries sent since ``last_seen`` moved.
    pending_queries: int = 0
    #: controls awaiting an outcome: request tuple → (RAN function,
    #: ``on_outcome``).  Answered by the agent or, when the connection
    #: is lost first, by :meth:`Server._unroute`.
    controls: Dict[Tuple[int, int], Tuple[int, Callable[[E2Message], None]]] = field(
        default_factory=dict
    )


@dataclass
class _StaleNode:
    """A disconnected node riding out its grace window."""

    record: AgentRecord
    subscriptions: List[SubscriptionRecord]
    deadline: float


class Server:
    """The controller side of the FlexRIC SDK."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        cpu_meter: Optional[CpuMeter] = None,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServerConfig()
        #: injectable clock (tests drive grace/keepalive deadlines
        #: with a fake time source; production uses ``time.monotonic``).
        self.time_fn = time_fn
        self.codec: Codec = get_codec(self.config.e2ap_codec)
        #: one-pass (procedure, class, body) extraction for the ingest
        #: loop: a message as its dataclass, an indication as its row;
        #: a codec without kernels (``pb``) is walked in full and its
        #: body built the same way.
        self._decode_route = self.codec.decode_route
        #: frames received, over every transport this server listens on.
        self._rx_frames = get_counter("server.rx.frames")
        self._node_label = f"ric-{self.config.ric_id}"
        self.cpu = cpu_meter or CpuMeter(f"server-{self.config.ric_id}")
        self.memory = MemoryMeter(f"server-{self.config.ric_id}")
        self.events = EventBus()
        self.randb = RanDatabase()
        self.submgr = SubscriptionManager()
        self._iapps: List[IApp] = []
        #: the routing tables, by connection id and by ``id(endpoint)``:
        #: written in place under ``_slow_lock``, read with one bare
        #: ``get`` on the per-message paths (DESIGN.md §10).
        self._conns: Dict[int, _ConnState] = {}
        self._by_endpoint: Dict[int, _ConnState] = {}
        self._conn_ids = itertools.count(1)
        #: (conn_id, ErrorIndication) pairs received from agents.
        self.errors_seen: List[Tuple[int, E2Message]] = []
        self._control_instances = itertools.count(1)
        self._listeners: List[Listener] = []
        #: serializes the stateful slow path (setup, subscription and
        #: control outcomes, lifecycle, every write to the routing
        #: tables) across the loops of every transport this server
        #: listens on and foreign threads' API calls.  The indication
        #: hot path never takes it.
        self._slow_lock = threading.RLock()
        #: stale nodes awaiting re-attachment, keyed by node identity.
        self._stale: Dict[GlobalE2NodeId, _StaleNode] = {}
        #: overload discipline (None = legacy unbounded behaviour).
        self.overload = self.config.overload
        self._classify = (
            frame_classifier(self.codec) if self.overload is not None else None
        )
        self.admission = (
            AdmissionController(self.overload, time_fn=self.time_fn)
            if self.overload is not None
            else None
        )
        self.memory.track("randb", lambda: self.randb)
        self.memory.track("submgr", lambda: self.submgr)

    # -- lifecycle -----------------------------------------------------

    def transport_events(self) -> TransportEvents:
        """This server's ingest callbacks, bundled for a transport.

        ``listen`` is the one way connections reach the server; this is
        public only as a test seam, so a test can wrap the ingest (log
        every delivery) around a transport it listens on itself.  With a
        grace window or keepalives, the loop also ticks the liveness pass.
        """
        live = self.config.keepalive_interval_s > 0 or self.config.stale_grace_s > 0
        return TransportEvents(
            on_connected=self._on_connected,
            on_disconnected=self._on_disconnected,
            on_messages=self._on_messages,
            on_tick=self._liveness_pass if live else None,
        )

    def listen(self, transport: Transport, address: str) -> Listener:
        """Accept agent connections on ``address``."""
        listener = transport.listen(address, self.transport_events())
        self._listeners.append(listener)
        return listener

    def create_transport(self, kind: str = "tcp") -> Transport:
        """Build a transport wired to this server's overload policy.

        ``tcp``, the one selector loop, is the only kind.
        """
        if kind == "tcp":
            from repro.core.transport.tcp import TcpTransport

            return TcpTransport(overload=self.overload, classify=self._classify)
        raise ValueError(f"unknown transport kind: {kind!r}")

    def add_iapp(self, iapp: IApp) -> None:
        """Attach an internal application."""
        self._iapps.append(iapp)
        iapp.attach(self)

    def iapps(self) -> List[IApp]:
        return list(self._iapps)

    def close(self) -> None:
        for listener in self._listeners:
            listener.close()
        for state in list(self._conns.values()):
            if not state.endpoint.closed:
                state.endpoint.close()

    # -- iApp-facing API -------------------------------------------------

    def subscribe(
        self,
        conn_id: int,
        ran_function_id: int,
        event_trigger: bytes,
        actions: List[RicActionDefinition],
        callbacks: SubscriptionCallbacks,
        requestor_id: Optional[int] = None,
    ) -> "SubscriptionRecord | SinkHandle":
        """Send a subscription request on behalf of an iApp/xApp.

        Under overload discipline a subscription storm past the token
        bucket / concurrent-cap is refused locally: the record is never
        registered and ``callbacks.on_failure`` fires synchronously
        with an ADMISSION_REFUSED cause — the same signature a remote
        :class:`RicSubscriptionFailure` would have.

        Single-encode fan-out (DESIGN.md §15): a request whose wire
        parameters (connection, RAN function, event trigger, actions,
        requestor) match a live subscription never reaches the agent:
        the callbacks attach as an extra sink on the existing record
        and a :class:`SinkHandle` (attribute-compatible with the
        record) identifying this subscriber is returned — pass it back
        to :meth:`unsubscribe` to detach exactly this sink.  Find and
        attach-or-create are one atomic step in the submgr, so equal
        requests racing from several threads still put one request on
        the wire.  Admission still gates the call (a storm of
        duplicates is still a storm), but the pending slot is released
        immediately — no wire confirm is outstanding.
        """
        admission = self.admission
        if admission is not None and not admission.admit_subscription():
            record = SubscriptionRecord(
                self.submgr.mint_request(requestor_id), conn_id, ran_function_id, callbacks
            )
            cause = Cause.ric_request(
                Cause.ADMISSION_REFUSED, "subscription admission refused (overload)"
            )
            if callbacks.on_failure is not None:
                callbacks.on_failure(RicSubscriptionFailure(record.request, ran_function_id, cause))
            return record
        record = self.submgr.create(
            conn_id, ran_function_id, callbacks, actions, requestor_id, event_trigger, share=True
        )
        if isinstance(record, SinkHandle):
            if admission is not None:
                admission.release_subscription()
            return record
        request = RicSubscriptionRequest(
            request=record.request,
            ran_function_id=ran_function_id,
            event_trigger=event_trigger,
            actions=actions,
        )
        try:
            self._send(conn_id, request)
        except (ConnectionError, OSError, CodecError) as exc:
            # Never on the wire: nothing may share or wait on the record.
            cause = Cause.ric_request(Cause.UNSPECIFIED, f"request not sent: {exc}")
            failure = RicSubscriptionFailure(record.request, ran_function_id, cause)
            self.submgr.withdraw(record, failure)
            if admission is not None:
                admission.release_subscription()
            raise
        return record

    def unsubscribe(self, record: "SubscriptionRecord | SinkHandle") -> None:
        """Request deletion of an existing subscription.

        Pass back whatever :meth:`subscribe` returned: a
        :class:`SinkHandle` detaches exactly that subscriber's sink,
        and the primary record hands the subscription to the earliest
        remaining sink.  The wire delete goes out only when the last
        subscriber is gone, so other iApps riding the subscription
        keep receiving.
        """
        if self.submgr.detach_sink(record):
            return
        message = RicSubscriptionDeleteRequest(
            request=record.request, ran_function_id=record.ran_function_id
        )
        self._send(record.conn_id, message)

    def control(
        self,
        conn_id: int,
        ran_function_id: int,
        header: bytes,
        payload: bytes,
        on_outcome: Optional[Callable[[E2Message], None]] = None,
        ack_requested: bool = True,
        requestor_id: int = 1,
    ) -> RicRequestId:
        """Send a control request; ``on_outcome`` receives ack/failure.

        ``on_outcome`` is called exactly once: with the agent's answer,
        or with a ``RicControlFailure`` (TRANSPORT cause) when the
        connection is lost first.  A control that cannot be sent raises
        instead and leaves nothing pending.
        """
        request = RicRequestId(
            requestor_id=requestor_id, instance_id=next(self._control_instances)
        )
        message = RicControlRequest(
            request=request,
            ran_function_id=ran_function_id,
            header=header,
            payload=payload,
            ack_requested=ack_requested,
        )
        if on_outcome is None:
            self._send(conn_id, message)
            return request
        key = request.as_tuple()
        with self._slow_lock:
            # Registered under the writer lock: ``_unroute`` either sees
            # this entry or has already taken the connection away.
            state = self._conns.get(conn_id)
            if state is None or state.endpoint.closed:
                raise ConnectionError(f"no live agent connection {conn_id}")
            state.controls[key] = (ran_function_id, on_outcome)
        try:
            self._send(conn_id, message)
        except (ConnectionError, OSError):
            # Still pending: the error is its outcome.  Gone: a racing
            # ``_unroute`` has already answered it.
            if state.controls.pop(key, None) is not None:
                raise
        return request

    def control_many(
        self,
        conn_id: int,
        ran_function_id: int,
        payloads: Sequence[bytes],
        header: bytes = b"",
        ack_requested: bool = True,
        requestor_id: int = 1,
    ) -> List[RicRequestId]:
        """Send a burst of control requests in one coalesced write.

        Semantically identical to calling :meth:`control` once per
        payload (same request-id allocation, same ordering); the batch
        reaches the agent's endpoint through ``send_many`` so a stream
        transport pays one syscall for the whole burst.
        """
        messages: List[E2Message] = []
        ids: List[RicRequestId] = []
        for payload in payloads:
            request = RicRequestId(
                requestor_id=requestor_id, instance_id=next(self._control_instances)
            )
            ids.append(request)
            messages.append(
                RicControlRequest(
                    request=request,
                    ran_function_id=ran_function_id,
                    header=header,
                    payload=payload,
                    ack_requested=ack_requested,
                )
            )
        self._send_batch(conn_id, messages)
        return ids

    def agents(self) -> List[AgentRecord]:
        return self.randb.agents()

    def send_to_agent(self, conn_id: int, message: E2Message) -> None:
        """Escape hatch for relays/virtualization layers."""
        self._send(conn_id, message)

    def overload_state(self) -> Dict[str, Any]:
        """Operator-facing snapshot of the overload discipline.

        Drop counters, queue pressure gauges and admission state in
        one JSON-able dict; served northbound via the ``/metrics/
        overload`` route so :class:`StatsMonitorIApp` and dashboards
        can see degradation as it happens, not post-mortem.
        """
        counters = counter_values()
        gauges = gauge_values()
        return {
            "enabled": self.overload is not None,
            "drops": {
                name: value
                for name, value in counters.items()
                if name.startswith("overload.") and value
            },
            "admission": {
                "rejects": {
                    name: value
                    for name, value in counters.items()
                    if name.startswith("server.admission.") and value
                },
                "state": self.admission.state() if self.admission else None,
            },
            "queues": {
                name: value
                for name, value in gauges.items()
                if name.startswith("queue.")
            },
        }

    # -- transport events ----------------------------------------------

    def _on_connected(self, endpoint: Endpoint) -> None:
        state = _ConnState(
            conn_id=next(self._conn_ids),
            endpoint=endpoint,
            last_seen=self.time_fn(),
        )
        with self._slow_lock:
            self._conns[state.conn_id] = state
            self._by_endpoint[id(endpoint)] = state

    def _on_disconnected(
        self, endpoint: Endpoint, reason: Optional[DisconnectReason] = None
    ) -> None:
        with self._slow_lock:
            state = self._by_endpoint.get(id(endpoint))
            if state is None:
                return
            if self._unroute(state, "connection lost") and state.record is not None:
                self._node_lost(state.record, state.conn_id, reason)

    def _unroute(self, state: _ConnState, detail: str) -> bool:
        """Take ``state`` out of both routing tables; callers hold
        ``_slow_lock``.  True if this call removed it: only that caller
        reports the node lost, however many paths notice the loss (a
        keepalive send that fails closes the endpoint, which reports
        the disconnect re-entrantly before the send raises).

        A reader racing this sees the entry or does not — the same
        window a message already in flight during a disconnect always
        had.  Every control still outstanding on the connection gets
        its one outcome here: a lost connection never answers.
        """
        removed = self._conns.pop(state.conn_id, None) is not None
        self._by_endpoint.pop(id(state.endpoint), None)
        controls, state.controls = state.controls, {}
        cause = Cause(kind=CauseKind.TRANSPORT, value=Cause.UNSPECIFIED, detail=detail)
        for (requestor, instance), (ran_function_id, callback) in controls.items():
            failure = RicControlFailure(RicRequestId(requestor, instance), ran_function_id, cause)
            try:
                callback(failure)
            # An outcome callback's bug is the iApp's, as on the ingest
            # loop: the teardown still completes.
            except Exception:  # repro-lint: disable=RL002
                get_counter("server.iapp.callback_error").incr()
        return removed

    def _node_lost(
        self,
        record: AgentRecord,
        conn_id: int,
        reason: Optional[DisconnectReason],
    ) -> None:
        """Common exit for transport-reported and keepalive-declared
        deaths: purge immediately, or park in the grace window."""
        if self.config.stale_grace_s <= 0:
            # Legacy lifecycle: a disconnect is terminal.
            self.submgr.drop_conn(conn_id)
            self.randb.remove_agent(conn_id)
            self._resync_admission_pending()
            self._publish(topics.AGENT_DISCONNECTED, record)
            self._tell_iapps("on_agent_disconnected", record)
            return
        now = self.time_fn()
        self.randb.mark_stale(conn_id, now)
        parked = self.submgr.park_conn(conn_id)
        stale = self._stale.get(record.node_id)
        if stale is None:
            self._stale[record.node_id] = _StaleNode(
                record=record,
                subscriptions=parked,
                deadline=now + self.config.stale_grace_s,
            )
        else:
            # Node died again inside its window (e.g. a recovery whose
            # link flapped immediately); extend and merge.
            stale.subscriptions = list({id(r): r for r in stale.subscriptions + parked}.values())
            stale.deadline = now + self.config.stale_grace_s
        get_counter("server.node.stale").incr()
        self._resync_admission_pending()
        self._publish(topics.NODE_STALE, record)

    def _publish(self, topic: str, payload: Any) -> None:
        """One bus publish, contained.  ``EventBus.publish`` propagates
        a subscriber's exception; here that is the iApp's bug, while
        the caller (a node's teardown on the transport loop, a setup, a
        liveness pass) belongs to every node."""
        try:
            self.events.publish(topic, payload)
        except Exception:  # repro-lint: disable=RL002
            get_counter("server.iapp.callback_error").incr()

    def _tell_iapps(self, hook: str, arg: Any) -> None:
        """Call ``hook`` on every iApp, each contained on its own: one
        raising iApp does not keep the node from the others."""
        for iapp in self._iapps:
            try:
                getattr(iapp, hook)(arg)
            except Exception:  # repro-lint: disable=RL002
                get_counter("server.iapp.callback_error").incr()

    def _resync_admission_pending(self) -> None:
        """Recount outstanding subscriptions after a lifecycle event.

        Node loss parks or drops requests whose confirm/fail outcomes
        will never arrive; an exact recount (rare-path O(n)) keeps the
        admission controller's concurrent cap from leaking slots.
        """
        if self.admission is None:
            return
        pending = sum(not rec.confirmed for rec in self.submgr.active_records())
        self.admission.set_pending(pending)

    def _on_messages(self, endpoint: Endpoint, batch: Sequence[bytes]) -> None:
        """The single ingest: one call per drained wakeup, any transport.

        Liveness bookkeeping and the CPU-meter section are paid once
        per batch; each frame costs one ``decode_route``.  With
        tracing enabled every message records its own ``decode`` span
        (and ``dispatch`` for the slow path; the submgr records the
        indication's) right here — the batch is never re-dispatched.
        """
        state = self._by_endpoint.get(id(endpoint))
        if state is None:
            return
        # Any traffic proves the agent alive: reset the keepalive state.
        state.last_seen = self.time_fn()
        state.pending_queries = 0
        self._rx_frames.incr(len(batch))
        # Hot loop: every name the loop touches is a local.
        route = self._decode_route
        deliver = self.submgr.deliver_indication
        conn_id = state.conn_id
        conns = self._conns
        tracer = _TRACER
        traced = tracer.enabled
        if traced:
            tracer.node = self._node_label
        began = time.perf_counter_ns()
        try:
            for data in batch:
                start = time.perf_counter() if traced else 0.0
                try:
                    # A body that does not fit its class fails in the
                    # route (an indication's row, in IndicationEvent):
                    # contained with the frames that do not decode at all.
                    procedure, msg_class, body = route(data)
                    event = IndicationEvent(conn_id, body) if procedure == _IND_CODE else None
                except CodecError:
                    # A corrupted frame (chaos transport, buggy peer)
                    # must not take the transport thread down.
                    self._count_decode_error()
                    continue
                if event is not None:
                    # Routed on header scalars only.
                    if traced:
                        tracer.record(
                            "decode", start, event.route_key, procedure="ric_indication"
                        )
                    try:
                        deliver(event)
                    # An iApp's bug is the iApp's: the loop and the
                    # rest of the batch belong to every other node.
                    except Exception:  # repro-lint: disable=RL002
                        get_counter("server.iapp.callback_error").incr()
                    continue
                if traced:
                    name = _procedure_name(procedure)
                    tracer.record("decode", start, procedure=name)
                    start = time.perf_counter()
                # Unknown procedures and classes a RIC has no use for
                # are ignored (forward compat).
                handler = _SLOW_PATH.get((procedure, msg_class))
                if handler is not None:
                    try:
                        with self._slow_lock:
                            # A failed send since the lookup (a reply in
                            # this batch, a foreign thread's API call) may
                            # have unrouted the connection: its node, and
                            # what this message is about, are gone.
                            if conns.get(conn_id) is state:
                                handler(self, state, body)
                    # Outcome callbacks and bus subscribers run in here:
                    # the same containment as the indication lane above.
                    except Exception:  # repro-lint: disable=RL002
                        get_counter("server.iapp.callback_error").incr()
                if traced:
                    tracer.record("dispatch", start, procedure=name)
        finally:
            # One CPU-meter section per batch, without the context
            # manager's three frames on a one-message wake-up.
            self.cpu.charge((time.perf_counter_ns() - began) / 1e9)

    @staticmethod
    def _count_decode_error() -> None:
        get_counter("server.rx.decode_error").incr()
        get_counter("decode.contained").incr()

    # -- slow-path handlers: one per message class, see _SLOW_PATH -------

    def _on_subscription_response(
        self, state: _ConnState, message: RicSubscriptionResponse
    ) -> None:
        self.submgr.confirm(message)
        if self.admission is not None:
            self.admission.release_subscription()

    def _on_subscription_failure(self, state: _ConnState, message: RicSubscriptionFailure) -> None:
        self.submgr.fail(message)
        if self.admission is not None:
            self.admission.release_subscription()

    def _on_subscription_deleted(
        self, state: _ConnState, message: RicSubscriptionDeleteResponse
    ) -> None:
        self.submgr.deleted(message)

    def _on_subscription_delete_failure(
        self, state: _ConnState, message: RicSubscriptionDeleteFailure
    ) -> None:
        self.submgr.remove(message.request)

    def _on_control_outcome(self, state: _ConnState, message: E2Message) -> None:
        pending = state.controls.pop(message.request.as_tuple(), None)
        if pending is not None:
            pending[1](message)

    def _on_config_update(self, state: _ConnState, message: E2NodeConfigurationUpdate) -> None:
        if state.record is not None:
            state.record.config.update(message.config)
            self._publish(topics.NODE_CONFIG_UPDATED, (state.record, message))
        self._reply(state, E2NodeConfigurationUpdateAcknowledge())

    def _on_error_indication(self, state: _ConnState, message: ErrorIndication) -> None:
        self.errors_seen.append((state.conn_id, message))
        self._publish(topics.ERROR_INDICATED, (state.record, message))

    def _handle_setup(self, state: _ConnState, request: E2SetupRequest) -> None:
        admission = self.admission
        if admission is not None:
            retry_after = admission.admit_setup()
            if retry_after is not None:
                # Explicit refusal instead of queueing forever: the
                # agent sees an E2SetupFailure with a retry hint and
                # an orderly close, so its reconnect backoff retries
                # later instead of hammering a collapsing server.
                try:
                    state.endpoint.send(
                        encode_message(
                            E2SetupFailure(
                                cause=Cause.ric_request(
                                    Cause.ADMISSION_REFUSED,
                                    "setup admission refused (overload)",
                                ),
                                time_to_wait_s=retry_after,
                            ),
                            self.codec,
                        )
                    )
                    state.endpoint.close()
                except (ConnectionError, OSError):
                    pass
                return
        existing = self.randb.find_node(request.node_id)
        if existing is not None and not existing.stale:
            # Same node identity on a new connection while the old one
            # still looks alive: the old link is defunct (half-open
            # socket the server has not noticed).  Supersede it through
            # the normal loss path so subscriptions park when a grace
            # window is configured.
            old = self._conns.get(existing.conn_id)
            if old is not None:
                self._unroute(old, "superseded by re-attach")
                try:
                    if not old.endpoint.closed:
                        old.endpoint.close()
                except (ConnectionError, OSError):
                    pass
            self._node_lost(
                existing,
                existing.conn_id,
                DisconnectReason(DisconnectReason.PROTOCOL, "superseded by re-attach"),
            )
            existing = self.randb.find_node(request.node_id)
        stale = self._stale.get(request.node_id)
        if existing is not None and existing.stale and stale is not None:
            self._recover_node(state, existing, stale, request)
            return
        record = AgentRecord(
            conn_id=state.conn_id,
            node_id=request.node_id,
            functions={item.ran_function_id: item for item in request.ran_functions},
        )
        state.record = record
        entity, formed_now = self.randb.add_agent(record)
        response = E2SetupResponse(
            ric_id=self.config.ric_id,
            accepted_functions=sorted(record.functions),
        )
        state.endpoint.send(encode_message(response, self.codec))
        self._publish(topics.AGENT_CONNECTED, record)
        self._tell_iapps("on_agent_connected", record)
        if formed_now:
            self._publish(topics.RAN_FORMED, entity)
            self._tell_iapps("on_ran_formed", entity)

    def _recover_node(
        self,
        state: _ConnState,
        record: AgentRecord,
        stale: _StaleNode,
        request: E2SetupRequest,
    ) -> None:
        """A stale node re-attached inside its grace window.

        The old :class:`AgentRecord` is revived onto the fresh
        connection (no RAN_FORMED flap, no iApp ``on_agent_connected``)
        and every parked subscription is re-issued verbatim — same RIC
        request id — so iApp callbacks resume without the iApp ever
        learning about the outage.
        """
        self._stale.pop(record.node_id, None)
        self.randb.revive(record, state.conn_id)
        # The setup request is authoritative for the function table:
        # the node may have rebooted with a different SM inventory.
        record.functions = {
            item.ran_function_id: item for item in request.ran_functions
        }
        state.record = record
        response = E2SetupResponse(
            ric_id=self.config.ric_id,
            accepted_functions=sorted(record.functions),
        )
        state.endpoint.send(encode_message(response, self.codec))
        parked = [rec for rec in stale.subscriptions if rec.parked]
        self.submgr.adopt(parked, state.conn_id)
        for rec in parked:
            resync = RicSubscriptionRequest(
                request=rec.request,
                ran_function_id=rec.ran_function_id,
                event_trigger=rec.event_trigger,
                actions=list(rec.actions),
            )
            try:
                state.endpoint.send(encode_message(resync, self.codec))
            except (ConnectionError, OSError):
                break
        get_counter("server.node.recovered").incr()
        if self.admission is not None:
            # Slow-start: re-admission ramps back to nominal so the
            # reconnect storm that follows a recovery cannot retrigger
            # the overload the node just survived.
            self.admission.note_recovery()
        self._publish(topics.NODE_RECOVERED, record)

    # -- liveness (keepalive + grace expiry) ---------------------------

    def _liveness_pass(self) -> None:
        """The loop's ``on_tick``: a raising pass is counted, not fatal."""
        try:
            self.keepalive_tick()
        except Exception:  # repro-lint: disable=RL002
            get_counter("server.liveness.errors").incr()

    def keepalive_tick(self, now: Optional[float] = None) -> int:
        """One liveness pass; returns the number of queries sent.

        Agents idle past ``keepalive_interval_s`` get a
        :class:`RicServiceQuery`; any reply (any traffic) resets their
        miss count.  After ``keepalive_misses`` unanswered probes the
        node is declared silently dead and pushed down the stale path.
        Also expires stale nodes whose grace window ran out.  A TCP loop
        runs it each tick; over the in-process transport, the caller.
        """
        now = self.time_fn() if now is None else now
        with self._slow_lock:
            return self._keepalive_tick_locked(now)

    def _keepalive_tick_locked(self, now: float) -> int:
        sent = 0
        if self.config.keepalive_interval_s > 0:
            for state in list(self._conns.values()):
                if state.record is None:
                    continue
                if now - state.last_seen < self.config.keepalive_interval_s:
                    continue
                if state.pending_queries >= self.config.keepalive_misses:
                    self._declare_dead(state)
                    continue
                # Count the probe *before* sending: over a synchronous
                # transport the agent's reply (which zeroes the miss
                # count) arrives inside the send call itself.
                state.pending_queries += 1
                try:
                    state.endpoint.send(
                        encode_message(
                            RicServiceQuery(
                                known_functions=sorted(state.record.functions)
                            ),
                            self.codec,
                        )
                    )
                    sent += 1
                    get_counter("server.keepalive.sent").incr()
                except (ConnectionError, OSError):
                    self._declare_dead(state)
        self.expire_stale(now)
        return sent

    def _declare_dead(self, state: _ConnState) -> None:
        """Keepalive verdict: the link looks up but the agent is gone
        (unless the transport reported it first)."""
        if not self._unroute(state, "missed keepalives"):
            return
        get_counter("server.keepalive.dead").incr()
        try:
            if not state.endpoint.closed:
                state.endpoint.close()
        except (ConnectionError, OSError):
            pass
        if state.record is not None:
            self._node_lost(
                state.record,
                state.conn_id,
                DisconnectReason(DisconnectReason.KEEPALIVE, "missed keepalives"),
            )

    def expire_stale(self, now: Optional[float] = None) -> int:
        """Garbage-collect stale nodes past their deadline.

        Each parked subscription gets a terminal failure callback so
        its iApp can release resources; the node finally leaves the
        RANDB and ``AGENT_DISCONNECTED`` / ``on_agent_disconnected``
        fire — the legacy teardown, merely delayed by the grace window.
        """
        now = self.time_fn() if now is None else now
        expired = [
            node_id
            for node_id, stale in self._stale.items()
            if now >= stale.deadline
        ]
        for node_id in expired:
            stale = self._stale.pop(node_id)
            record = stale.record
            self.randb.remove_agent(record.conn_id)
            for rec in stale.subscriptions:
                if not rec.parked:
                    continue
                failure = RicSubscriptionFailure(
                    request=rec.request,
                    ran_function_id=rec.ran_function_id,
                    cause=Cause(
                        kind=CauseKind.TRANSPORT,
                        value=Cause.UNSPECIFIED,
                        detail="node grace window expired",
                    ),
                )
                # An ``on_failure`` that raises must not leave the rest
                # of this node's records, or the next nodes, unexpired.
                try:
                    self.submgr.terminal_fail(rec, failure)
                except Exception:  # repro-lint: disable=RL002
                    get_counter("server.iapp.callback_error").incr()
            get_counter("server.node.expired").incr()
            self._publish(topics.NODE_EXPIRED, record)
            self._publish(topics.AGENT_DISCONNECTED, record)
            self._tell_iapps("on_agent_disconnected", record)
        return len(expired)

    def _handle_service_update(self, state: _ConnState, update: RicServiceUpdate) -> None:
        if state.record is None:
            return
        self.randb.update_functions(
            state.conn_id,
            added=update.added + update.modified,
            removed=update.removed,
        )
        ack = RicServiceUpdateAcknowledge(
            accepted=[item.ran_function_id for item in update.added + update.modified]
        )
        self._reply(state, ack)
        self._publish(topics.FUNCTIONS_UPDATED, (state.record, update.added))

    # -- internals ------------------------------------------------------

    def _reply(self, state: _ConnState, message: E2Message) -> None:
        """Acknowledge a node's request on its connection.  A node that
        left meanwhile is no iApp's bug: the failed send has torn the
        endpoint down and reported the loss."""
        try:
            state.endpoint.send(encode_message(message, self.codec))
        except (ConnectionError, OSError):
            pass

    def _send(self, conn_id: int, message: E2Message) -> None:
        state = self._conns.get(conn_id)
        if state is None or state.endpoint.closed:
            raise ConnectionError(f"no live agent connection {conn_id}")
        if _TRACER.enabled:
            _TRACER.node = self._node_label
        began = time.perf_counter_ns()
        try:
            data = encode_message(message, self.codec)
        finally:
            self.cpu.charge((time.perf_counter_ns() - began) / 1e9)
        state.endpoint.send(data)

    def _send_batch(self, conn_id: int, messages: Sequence[E2Message]) -> None:
        if not messages:
            return
        state = self._conns.get(conn_id)
        if state is None or state.endpoint.closed:
            raise ConnectionError(f"no live agent connection {conn_id}")
        if _TRACER.enabled:
            _TRACER.node = self._node_label
        began = time.perf_counter_ns()
        try:
            batch = [encode_message(message, self.codec) for message in messages]
        finally:
            self.cpu.charge((time.perf_counter_ns() - began) / 1e9)
        state.endpoint.send_many(batch)


_Handler = Callable[[Server, _ConnState, Any], None]

_HANDLERS: Dict[type, _Handler] = {
    E2SetupRequest: Server._handle_setup,
    RicSubscriptionResponse: Server._on_subscription_response,
    RicSubscriptionFailure: Server._on_subscription_failure,
    RicSubscriptionDeleteResponse: Server._on_subscription_deleted,
    RicSubscriptionDeleteFailure: Server._on_subscription_delete_failure,
    RicControlAcknowledge: Server._on_control_outcome,
    RicControlFailure: Server._on_control_outcome,
    RicServiceUpdate: Server._handle_service_update,
    E2NodeConfigurationUpdate: Server._on_config_update,
    ErrorIndication: Server._on_error_indication,
}

#: (procedure, class) → handler for everything off the indication
#: path: one ``get`` dispatches a frame the route has already built
#: into its dataclass.  A class a RIC has no use for is still decoded
#: (a malformed body is contained and counted) and then ignored.
_SLOW_PATH: Dict[Tuple[int, int], _Handler] = {
    (int(cls.procedure), int(cls.msg_class)): handler for cls, handler in _HANDLERS.items()
}
