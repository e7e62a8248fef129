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
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.cow import publish_snapshot
from repro.analysis.markers import cow_mutator, cow_snapshot
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
    RicControlAcknowledge,
    RicControlFailure,
    RicControlRequest,
    RicIndication,
    RicIndicationKind,
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
    message_types,
)
from repro.core.e2ap.procedures import Cause, CauseKind, ProcedureCode
from repro.core.overload import AdmissionController, OverloadConfig, frame_classifier
from repro.core.server import events as topics
from repro.core.server.events import EventBus
from repro.core.server.iapp import IApp
from repro.core.server.randb import AgentRecord, RanDatabase, RanEntity
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
    transport, indications dispatched inline on it, one process unless
    ``workers`` says otherwise.  Every transport hands drained batches
    to :meth:`Server._on_messages`.
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
    #: overload discipline (DESIGN.md §13): bounded class-aware ingest
    #: queues, setup/subscription admission control, degrade states.
    #: None (default) keeps the unbounded legacy behaviour exactly.
    overload: Optional[OverloadConfig] = None
    #: multiprocess ingest (DESIGN.md §14): N > 0 runs N worker
    #: *processes*, each owning a full server + SO_REUSEPORT listener,
    #: supervised by :class:`repro.core.server.workers.MultiProcServer`.
    #: 0 (default) keeps everything in this process.  A ``Server``
    #: built directly ignores the field — it configures the supervisor,
    #: which forks workers with ``workers=0`` copies of this config.
    workers: int = 0


#: hoisted: the indication hot loop compares against this constant.
_IND_CODE = int(ProcedureCode.RIC_INDICATION)

#: (procedure, class) → dataclass for everything off the indication path.
_MESSAGE_TYPES = message_types()


def _procedure_name(procedure: int) -> str:
    """Span label for a procedure code; tolerant of unknown codes."""
    try:
        return ProcedureCode(procedure).name.lower()
    except ValueError:
        return f"procedure_{procedure}"


class IndicationEvent:
    """A RIC indication as delivered to an iApp.

    The routing scalars (request id, function id, action, sequence) are
    read once at construction into plain attributes — the envelope
    kernel has already materialised them, so every later read is an
    attribute load — and a body that does not carry them fails *here*,
    inside the ingest loop's containment.  ``kind``, ``header`` and the
    SM ``payload`` are read from the body when accessed; with kernels
    off the body is a lazy view over the receive buffer, the paper's
    zero-copy dispatch.
    """

    __slots__ = (
        "conn_id", "_body", "route_key", "requestor_id", "instance_id",
        "ran_function_id", "action_id", "sequence",
    )

    def __init__(self, conn_id: int, body: Any) -> None:
        self.conn_id = conn_id
        self._body = body
        request = body["q"]
        self.requestor_id = requestor = request["r"]
        self.instance_id = instance = request["i"]
        #: ``(requestor, instance)`` — the submgr routing key.
        self.route_key = (requestor, instance)
        self.ran_function_id = body["f"]
        self.action_id = body["a"]
        self.sequence = body["s"]

    @property
    def request(self) -> RicRequestId:
        return RicRequestId(self.requestor_id, self.instance_id)

    @property
    def kind(self) -> RicIndicationKind:
        return RicIndicationKind(self._body["k"])

    @property
    def header(self) -> bytes:
        return self._body["h"]

    @property
    def payload(self) -> bytes:
        return self._body["m"]

    def full(self) -> RicIndication:
        """Materialize the complete dataclass (tests, relays)."""
        return RicIndication.from_value(self._body)


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
    #: cached ``server.shard.N.rx`` counter for this connection's
    #: ingest loop — 0 unless the endpoint names an in-process shard
    #: (resolved lazily on the first batch delivery).
    rx_counter: Any = None


@dataclass
class _StaleNode:
    """A disconnected node riding out its grace window."""

    record: AgentRecord
    subscriptions: List[SubscriptionRecord]
    deadline: float


@cow_snapshot("_route_by_endpoint", "_route_conns")
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
        #: loop; a codec without one (``pb``) is walked in full.
        self._decode_route = getattr(self.codec, "decode_route", self._generic_route)
        self._node_label = f"ric-{self.config.ric_id}"
        self.cpu = cpu_meter or CpuMeter(f"server-{self.config.ric_id}")
        self.memory = MemoryMeter(f"server-{self.config.ric_id}")
        self.events = EventBus()
        self.randb = RanDatabase()
        self.submgr = SubscriptionManager()
        self._iapps: List[IApp] = []
        self._conns: Dict[int, _ConnState] = {}
        self._conn_ids = itertools.count(1)
        self._by_endpoint: Dict[int, _ConnState] = {}
        self._pending_controls: Dict[Tuple[int, int], Callable[[E2Message], None]] = {}
        #: (conn_id, ErrorIndication) pairs received from agents.
        self.errors_seen: List[Tuple[int, E2Message]] = []
        self._control_instances = itertools.count(1)
        self._listeners: List[Listener] = []
        self._lock = threading.Lock()
        #: copy-on-write routing snapshots (see ``_rebuild_routes``):
        #: read lock-free on the per-message hot paths, replaced under
        #: ``_lock`` whenever connection state changes.
        self._route_by_endpoint: Dict[int, _ConnState] = publish_snapshot({})
        self._route_conns: Dict[int, _ConnState] = publish_snapshot({})
        #: serializes the stateful slow path (setup, subscription
        #: outcomes, lifecycle) across the ingest loops of every
        #: transport this server listens on and the liveness tick.  The
        #: indication hot path never takes it.  Always acquired
        #: *outside* ``_lock``.
        self._slow_lock = threading.RLock()
        #: stale nodes awaiting re-attachment, keyed by node identity.
        self._stale: Dict[GlobalE2NodeId, _StaleNode] = {}
        self._liveness_thread: Optional[threading.Thread] = None
        self._liveness_running = False
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

        Public so adopted connections (the accept-and-hand-off fallback
        of DESIGN.md §14, where sockets arrive via fd passing rather
        than a local listener) wire into the same dispatch pipeline.
        """
        return TransportEvents(
            on_connected=self._on_connected,
            on_disconnected=self._on_disconnected,
            on_messages=self._on_messages,
        )

    def listen(self, transport: Transport, address: str) -> Listener:
        """Accept agent connections on ``address``."""
        listener = transport.listen(address, self.transport_events())
        self._listeners.append(listener)
        return listener

    def create_transport(self, kind: str = "tcp") -> Transport:
        """Build a transport wired to this server's overload policy.

        ``tcp`` is the one selector loop; ``inproc`` the synchronous
        transport, whose inline delivery has no queue to bound —
        admission control is what applies in-process.
        """
        if kind == "tcp":
            from repro.core.transport.tcp import TcpTransport

            return TcpTransport(overload=self.overload, classify=self._classify)
        if kind == "inproc":
            from repro.core.transport.inproc import InProcTransport

            return InProcTransport()
        raise ValueError(f"unknown transport kind: {kind!r}")

    def add_iapp(self, iapp: IApp) -> None:
        """Attach an internal application."""
        self._iapps.append(iapp)
        iapp.attach(self)

    def iapps(self) -> List[IApp]:
        return list(self._iapps)

    def close(self) -> None:
        self.stop_liveness()
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
        self._send(conn_id, request)
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
        """Send a control request; ``on_outcome`` receives ack/failure."""
        request = RicRequestId(
            requestor_id=requestor_id, instance_id=next(self._control_instances)
        )
        if on_outcome is not None:
            self._pending_controls[request.as_tuple()] = on_outcome
        message = RicControlRequest(
            request=request,
            ran_function_id=ran_function_id,
            header=header,
            payload=payload,
            ack_requested=ack_requested,
        )
        self._send(conn_id, message)
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

    def entity_of(self, conn_id: int) -> Optional[RanEntity]:
        record = self.randb.agent(conn_id)
        if record is None:
            return None
        return self.randb.entity(record.node_id.plmn, record.node_id.nb_id)

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

    @cow_mutator
    def _rebuild_routes(self) -> None:
        """Publish fresh routing snapshots; callers hold ``_lock``.

        The snapshots are plain dicts that are *replaced*, never
        mutated, so ingest threads may read them without locking (a
        dict-reference load is atomic under the GIL).  A reader racing
        a rebuild sees the previous snapshot — the same window a
        message already in flight during a disconnect always had.
        ``publish_snapshot`` is the identity in production; under
        ``REPRO_ANALYSIS=1`` it returns a mutation-raising proxy.
        """
        self._route_by_endpoint = publish_snapshot(dict(self._by_endpoint))
        self._route_conns = publish_snapshot(dict(self._conns))

    def _on_connected(self, endpoint: Endpoint) -> None:
        state = _ConnState(
            conn_id=next(self._conn_ids),
            endpoint=endpoint,
            last_seen=self.time_fn(),
        )
        with self._lock:
            self._conns[state.conn_id] = state
            self._by_endpoint[id(endpoint)] = state
            self._rebuild_routes()

    def _on_disconnected(
        self, endpoint: Endpoint, reason: Optional[DisconnectReason] = None
    ) -> None:
        with self._slow_lock:
            with self._lock:
                state = self._by_endpoint.pop(id(endpoint), None)
                if state is not None:
                    self._conns.pop(state.conn_id, None)
                self._rebuild_routes()
            if state is None or state.record is None:
                return
            self._node_lost(state.record, state.conn_id, reason)

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
            self.events.publish(topics.AGENT_DISCONNECTED, record)
            for iapp in self._iapps:
                iapp.on_agent_disconnected(record)
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
        self.events.publish(topics.NODE_STALE, record)

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

    def _generic_route(self, data: bytes) -> Tuple[int, int, Any]:
        tree = self.codec.decode(data)
        return tree["p"], tree["c"], tree["v"]

    def _on_messages(self, endpoint: Endpoint, batch: Sequence[bytes]) -> None:
        """The single ingest: one call per drained wakeup, any transport.

        Liveness bookkeeping and the CPU-meter section are paid once
        per batch; each frame costs one ``decode_route``.  With
        tracing enabled every message records its own ``decode`` span
        (and ``dispatch`` for the slow path; the submgr records the
        indication's) right here — the batch is never re-dispatched.
        """
        state = self._route_by_endpoint.get(id(endpoint))
        if state is None:
            return
        # Any traffic proves the agent alive: reset the keepalive state.
        state.last_seen = self.time_fn()
        state.pending_queries = 0
        if state.rx_counter is None:
            shard = getattr(endpoint, "shard", 0)
            state.rx_counter = get_counter(f"server.shard.{shard}.rx")
        state.rx_counter.incr(len(batch))
        # Hot loop: every name the loop touches is a local.
        route = self._decode_route
        deliver = self.submgr.deliver_indication
        conn_id = state.conn_id
        tracer = _TRACER
        traced = tracer.enabled
        if traced:
            tracer.node = self._node_label
        began = time.perf_counter_ns()
        try:
            for data in batch:
                start = time.perf_counter() if traced else 0.0
                try:
                    procedure, msg_class, body = route(data)
                    # The header scalars are read here, so a body that
                    # does not fit the indication class is contained
                    # with the frames that do not decode at all.
                    event = IndicationEvent(conn_id, body) if procedure == _IND_CODE else None
                except (CodecError, KeyError, TypeError, ValueError, IndexError, struct.error):
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
                cls = _MESSAGE_TYPES.get((procedure, msg_class))
                if cls is None:
                    continue  # unknown procedures are ignored (forward compat)
                try:
                    message = cls.from_value(body)
                except CodecError:
                    # Well-framed, but the body does not fit the class
                    # (enum out of range, scalar for a struct): the
                    # same containment as an undecodable frame.
                    self._count_decode_error()
                    continue
                if traced:
                    name = _procedure_name(procedure)
                    tracer.record("decode", start, procedure=name)
                    start = time.perf_counter()
                try:
                    with self._slow_lock:
                        self._handle_slow_path(state, message)
                # Outcome callbacks and bus subscribers run in here: the
                # same containment as the indication lane above.
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

    def _handle_slow_path(self, state: _ConnState, message: E2Message) -> None:
        if isinstance(message, E2SetupRequest):
            self._handle_setup(state, message)
        elif isinstance(message, (RicSubscriptionResponse, RicSubscriptionFailure)):
            if isinstance(message, RicSubscriptionResponse):
                self.submgr.confirm(message)
            else:
                self.submgr.fail(message)
            if self.admission is not None:
                self.admission.release_subscription()
        elif isinstance(message, RicSubscriptionDeleteResponse):
            self.submgr.deleted(message)
        elif isinstance(message, RicSubscriptionDeleteFailure):
            self.submgr.remove(message.request)
        elif isinstance(message, (RicControlAcknowledge, RicControlFailure)):
            callback = self._pending_controls.pop(message.request.as_tuple(), None)
            if callback is not None:
                callback(message)
        elif isinstance(message, RicServiceUpdate):
            self._handle_service_update(state, message)
        elif isinstance(message, E2NodeConfigurationUpdate):
            if state.record is not None:
                state.record.config.update(message.config)
                self.events.publish(topics.NODE_CONFIG_UPDATED, (state.record, message))
            state.endpoint.send(
                encode_message(E2NodeConfigurationUpdateAcknowledge(), self.codec)
            )
        elif isinstance(message, ErrorIndication):
            self.errors_seen.append((state.conn_id, message))
            self.events.publish(topics.ERROR_INDICATED, (state.record, message))
        # Messages a RIC has no use for are ignored (forward compat).

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
            with self._lock:
                old = self._conns.pop(existing.conn_id, None)
                if old is not None:
                    self._by_endpoint.pop(id(old.endpoint), None)
                self._rebuild_routes()
            if old is not None and not old.endpoint.closed:
                try:
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
        self.events.publish(topics.AGENT_CONNECTED, record)
        for iapp in self._iapps:
            iapp.on_agent_connected(record)
        if formed_now:
            self.events.publish(topics.RAN_FORMED, entity)
            for iapp in self._iapps:
                iapp.on_ran_formed(entity)

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
        self.events.publish(topics.NODE_RECOVERED, record)

    # -- liveness (keepalive + grace expiry) ---------------------------

    def keepalive_tick(self, now: Optional[float] = None) -> int:
        """One liveness pass; returns the number of queries sent.

        Agents idle past ``keepalive_interval_s`` get a
        :class:`RicServiceQuery`; any reply (the service update, or any
        other traffic) resets their miss count.  After
        ``keepalive_misses`` unanswered probes the node is declared
        silently dead and pushed down the stale path.  Also expires
        stale nodes whose grace window ran out.
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
        """Keepalive verdict: the link looks up but the agent is gone."""
        get_counter("server.keepalive.dead").incr()
        with self._lock:
            self._by_endpoint.pop(id(state.endpoint), None)
            self._conns.pop(state.conn_id, None)
            self._rebuild_routes()
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
                if rec.parked:
                    self.submgr.terminal_fail(
                        rec,
                        RicSubscriptionFailure(
                            request=rec.request,
                            ran_function_id=rec.ran_function_id,
                            cause=Cause(
                                kind=CauseKind.TRANSPORT,
                                value=Cause.UNSPECIFIED,
                                detail="node grace window expired",
                            ),
                        ),
                    )
            get_counter("server.node.expired").incr()
            self.events.publish(topics.NODE_EXPIRED, record)
            self.events.publish(topics.AGENT_DISCONNECTED, record)
            for iapp in self._iapps:
                iapp.on_agent_disconnected(record)
        return len(expired)

    def start_liveness(self, period_s: float = 1.0) -> None:
        """Run :meth:`keepalive_tick` on a daemon thread every
        ``period_s`` seconds (production convenience; tests drive the
        tick directly with an injected clock)."""
        if self._liveness_thread is not None:
            return
        self._liveness_running = True

        def _loop() -> None:
            while self._liveness_running:
                time.sleep(period_s)
                if not self._liveness_running:
                    break
                try:
                    self.keepalive_tick()
                # The liveness daemon must survive any tick failure —
                # a dead keepalive thread silently disables the whole
                # stale/park/adopt lifecycle.
                except Exception:  # repro-lint: disable=RL002
                    get_counter("server.liveness.errors").incr()

        self._liveness_thread = threading.Thread(
            target=_loop, name="e2-liveness", daemon=True
        )
        self._liveness_thread.start()

    def stop_liveness(self) -> None:
        self._liveness_running = False
        thread = self._liveness_thread
        self._liveness_thread = None
        if thread is not None and thread.is_alive():
            thread.join(timeout=2.0)

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
        state.endpoint.send(encode_message(ack, self.codec))
        self.events.publish(topics.FUNCTIONS_UPDATED, (state.record, update.added))

    # -- internals ------------------------------------------------------

    def _send(self, conn_id: int, message: E2Message) -> None:
        state = self._route_conns.get(conn_id)
        if state is None or state.endpoint.closed:
            raise ConnectionError(f"no live agent connection {conn_id}")
        if _TRACER.enabled:
            _TRACER.node = self._node_label
        with self.cpu.measure():
            data = encode_message(message, self.codec)
        state.endpoint.send(data)

    def _send_batch(self, conn_id: int, messages: Sequence[E2Message]) -> None:
        if not messages:
            return
        state = self._route_conns.get(conn_id)
        if state is None or state.endpoint.closed:
            raise ConnectionError(f"no live agent connection {conn_id}")
        if _TRACER.enabled:
            _TRACER.node = self._node_label
        with self.cpu.measure():
            batch = [encode_message(message, self.codec) for message in messages]
        state.endpoint.send_many(batch)
