"""The FlexRIC agent (§4.1.1).

Wires a base station's RAN functions to one or more controllers:

* performs the E2 setup procedure on connect, advertising the node
  identity and registered RAN functions,
* decodes incoming E2AP messages through the configured outer codec
  and dispatches them to RAN functions via the generic API,
* implements :class:`IndicationSink` so RAN functions emit indications
  without touching encoding or transport,
* manages additional controllers (E2 connection update) and the
  UE-to-controller association.

CPU spent in the agent (encode/decode/dispatch) is charged to an
optional :class:`~repro.metrics.cpu.CpuMeter`, which is how Fig. 6
separates agent overhead from base-station load.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from functools import partial
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.codec.base import Codec, CodecError, get_codec
from repro.core.e2ap.ies import GlobalE2NodeId, RanFunctionItem
from repro.core.e2ap.messages import (
    E2ConnectionUpdate,
    E2ConnectionUpdateAcknowledge,
    E2Message,
    E2NodeConfigurationUpdate,
    E2NodeConfigurationUpdateAcknowledge,
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
    RicSubscriptionDeleteFailure,
    RicSubscriptionDeleteRequest,
    RicSubscriptionDeleteResponse,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
    RicServiceQuery,
    RicServiceUpdate,
    RicServiceUpdateAcknowledge,
    decode_message,
    encode_message,
)
from repro.core.e2ap.procedures import Cause
from repro.core.agent.multi_controller import ControllerRegistry, LinkState, UeControllerMap
from repro.core.agent.ran_function import (
    DECODE_ERRORS,
    ControlOutcome,
    IndicationSink,
    RanFunction,
    SubscriptionHandle,
    count_contained_decode,
)
from repro.core.agent.reconnect import ReconnectPolicy, Scheduler, timer_scheduler
from repro.core.e2ap.ies import RicActionDefinition
from repro.core.transport.base import (
    ConnectTimeout,
    DisconnectReason,
    Endpoint,
    Transport,
    TransportEvents,
)
from repro.metrics.counters import discard_gauge, get_counter, get_gauge
from repro.metrics.cpu import CpuMeter
from repro.metrics.trace import TRACER as _TRACER


@dataclass
class _JournalEntry:
    """One live subscription, as admitted by a RAN function.

    The journal is what survives a link death: on reconnect the agent
    re-admits each entry locally so RAN functions resume emitting
    without waiting for the server's resync (and without any iApp
    involvement) — the two mechanisms are idempotent against each
    other because re-subscription replaces, never duplicates.
    """

    #: the handle the RAN function admitted, re-admitted as is.
    handle: SubscriptionHandle
    event_trigger: bytes
    actions: List[RicActionDefinition]


@dataclass
class AgentConfig:
    """Static agent configuration.

    ``e2ap_codec`` picks the outer encoding (``"asn"`` or ``"fb"``,
    §4.3); setup timeout applies to socket transports only.
    """

    node_id: GlobalE2NodeId
    e2ap_codec: str = "fb"
    setup_timeout_s: float = 5.0


class Agent(IndicationSink):
    """E2 agent: the base-station side of the FlexRIC SDK."""

    def __init__(
        self,
        config: AgentConfig,
        transport: Transport,
        cpu_meter: Optional[CpuMeter] = None,
    ) -> None:
        self.config = config
        self.transport = transport
        self.codec: Codec = get_codec(config.e2ap_codec)
        self.cpu = cpu_meter or CpuMeter(f"agent-{config.node_id.label}")
        self.controllers = ControllerRegistry()
        self.ue_map = UeControllerMap()
        self._functions: Dict[int, RanFunction] = {}
        self._endpoints: Dict[int, Endpoint] = {}
        self._setup_done: Dict[int, threading.Event] = {}
        self._setup_ok: Dict[int, bool] = {}
        #: called when a controller asks this agent to attach elsewhere.
        self.on_connection_update: Optional[Callable[[E2ConnectionUpdate], None]] = None
        # -- lifecycle resilience (opt-in via enable_reconnect) -------
        self._reconnect_policy: Optional[ReconnectPolicy] = None
        self._scheduler: Scheduler = timer_scheduler
        self._on_give_up: Optional[Callable[[int], None]] = None
        self._reconnect_rng = random.Random(0)
        #: journal of live subscriptions, keyed by handle key.
        self._journal: Dict[Tuple, _JournalEntry] = {}
        #: total successful reconnects across all links.
        self.reconnects = 0
        #: indications discarded while a link was down (reconnect mode).
        self.indications_dropped = 0

    # -- RAN function registration ------------------------------------

    def register_function(self, function: RanFunction) -> None:
        """Add a RAN function; its id must be unique within the node."""
        if function.ran_function_id in self._functions:
            raise ValueError(f"duplicate RAN function id {function.ran_function_id}")
        function.bind(self)
        self._functions[function.ran_function_id] = function

    def functions(self) -> List[RanFunction]:
        return list(self._functions.values())

    def get_function(self, ran_function_id: int) -> Optional[RanFunction]:
        return self._functions.get(ran_function_id)

    # -- controller connections ---------------------------------------

    def enable_reconnect(
        self,
        policy: Optional[ReconnectPolicy] = None,
        scheduler: Optional[Scheduler] = None,
        on_give_up: Optional[Callable[[int], None]] = None,
    ) -> ReconnectPolicy:
        """Opt links into the self-healing lifecycle.

        With a policy installed, a network-side disconnect no longer
        tears a link down: the agent walks the backoff ladder, re-runs
        E2 setup on success, and replays the subscription journal so
        RAN functions resume emitting.  ``scheduler`` injects the
        timing source (defaults to daemon timers; tests pass a
        :class:`~repro.core.agent.reconnect.ManualScheduler`);
        ``on_give_up`` fires with the origin once a link is declared
        DEAD.
        """
        self._reconnect_policy = policy or ReconnectPolicy()
        if scheduler is not None:
            self._scheduler = scheduler
        self._on_give_up = on_give_up
        self._reconnect_rng = random.Random(self._reconnect_policy.seed)
        return self._reconnect_policy

    def connect(self, address: str) -> int:
        """Attach to a controller and run E2 setup.

        Returns the controller *origin* index.  Raises
        ``ConnectionError`` if setup is refused or times out — in
        which case the partial link state (setup events, registry
        entry, endpoint) is rolled back so a retried ``connect`` to
        the same address starts clean.
        """
        origin = self.connect_async(address)
        done = self._setup_done[origin]
        if not done.wait(self.config.setup_timeout_s):
            self._abort_link(origin)
            raise ConnectionError(f"E2 setup timed out towards {address}")
        if not self._setup_ok[origin]:
            self._abort_link(origin)
            raise ConnectionError(f"E2 setup refused by {address}")
        return origin

    def connect_async(self, address: str) -> int:
        """Start attaching to a controller without waiting for setup.

        Used where blocking would deadlock the dispatch context — e.g.
        handling an E2 connection update *inside* a message callback
        (§4.1.2): the setup exchange completes once the current
        dispatch returns.
        """
        link = self.controllers.add(address)
        origin = link.origin
        self._setup_done[origin] = threading.Event()
        self._setup_ok[origin] = False
        self._set_link_state(origin, LinkState.CONNECTING)
        try:
            endpoint = self.transport.connect(address, self._link_events(origin))
        except (ConnectionError, OSError):
            self._abort_link(origin)
            raise
        # The endpoint may already be registered: over a synchronous
        # transport the whole setup exchange ran inside ``connect``.
        self._endpoints.setdefault(origin, endpoint)
        return origin

    def _link_events(self, origin: int) -> TransportEvents:
        return TransportEvents(
            on_connected=lambda endpoint: self._send_setup(origin, endpoint),
            on_message=partial(self._handle, origin),
            on_disconnected=lambda endpoint, reason=None: self._disconnected(origin, reason),
        )

    def _abort_link(self, origin: int) -> None:
        """Roll back a half-open link (setup timeout or refusal)."""
        self._setup_done.pop(origin, None)
        self._setup_ok.pop(origin, None)
        endpoint = self._endpoints.pop(origin, None)
        if endpoint is not None and not endpoint.closed:
            endpoint.close()
        self.controllers.remove(origin)
        self._set_state_gauge(origin, LinkState.DEAD)

    def disconnect(self, origin: int) -> None:
        endpoint = self._endpoints.pop(origin, None)
        if endpoint is not None and not endpoint.closed:
            endpoint.close()
        self.controllers.remove(origin)
        self._set_state_gauge(origin, LinkState.DEAD)

    def _disconnected(self, origin: int, reason: Optional[DisconnectReason] = None) -> None:
        self._endpoints.pop(origin, None)
        link = self.controllers.get(origin)
        if link is None:
            return  # torn down locally already
        local = reason is not None and reason.code == DisconnectReason.LOCAL
        if self._reconnect_policy is None or local:
            self.controllers.remove(origin)
            self._set_state_gauge(origin, LinkState.DEAD)
            return
        # Network-side death with a policy installed: degrade and walk
        # the backoff ladder instead of giving the link up.
        link.connected = False
        link.reconnect_attempts = 0
        self._set_link_state(origin, LinkState.DEGRADED)
        self._schedule_reconnect(origin, attempt=1)

    # -- reconnect state machine --------------------------------------

    def _schedule_reconnect(self, origin: int, attempt: int) -> None:
        policy = self._reconnect_policy
        link = self.controllers.get(origin)
        if policy is None or link is None or link.state == LinkState.DEAD:
            return
        if policy.exhausted(attempt):
            self.controllers.remove(origin)
            self._set_state_gauge(origin, LinkState.DEAD)
            get_counter("agent.reconnect.giveup").incr()
            if self._on_give_up is not None:
                self._on_give_up(origin)
            return
        delay = policy.delay_for(attempt, self._reconnect_rng)
        self._scheduler(delay, lambda: self._try_reconnect(origin, attempt))

    def _try_reconnect(self, origin: int, attempt: int) -> None:
        link = self.controllers.get(origin)
        if link is None or link.state in (LinkState.DEAD, LinkState.READY):
            return
        link.reconnect_attempts = attempt
        self._set_link_state(origin, LinkState.RECONNECTING)
        get_counter("agent.reconnect.attempt").incr()
        # Drop any half-open endpoint from a previous attempt.
        stale = self._endpoints.pop(origin, None)
        if stale is not None and not stale.closed:
            stale.close()
        self._setup_done[origin] = threading.Event()
        self._setup_ok[origin] = False
        try:
            endpoint = self.transport.connect(link.address, self._link_events(origin))
        except (ConnectionError, OSError) as exc:
            # A bounded connect timeout (TCP transport) is counted
            # separately: it means the peer is reachable-but-silent
            # rather than refusing, which reads differently in a
            # post-mortem of a reconnect storm.
            if isinstance(exc, ConnectTimeout):
                get_counter("agent.reconnect.connect_timeout").incr()
            self._schedule_reconnect(origin, attempt + 1)
            return
        self._endpoints.setdefault(origin, endpoint)
        if link.state != LinkState.READY:
            self._set_link_state(origin, LinkState.CONNECTING)
            # Setup answer pending: give it one timeout, then retry the
            # whole attempt (covers the request or response being lost).
            self._scheduler(
                self.config.setup_timeout_s,
                lambda: self._check_setup(origin, attempt, endpoint),
            )

    def _check_setup(self, origin: int, attempt: int, endpoint: Endpoint) -> None:
        link = self.controllers.get(origin)
        if link is None or link.state in (LinkState.DEAD, LinkState.READY):
            return
        if self._endpoints.get(origin) is not endpoint:
            return  # a newer attempt took over
        self._endpoints.pop(origin, None)
        if not endpoint.closed:
            endpoint.close()
        self._set_link_state(origin, LinkState.DEGRADED)
        self._schedule_reconnect(origin, attempt + 1)

    def _link_ready(self, origin: int) -> None:
        """Setup accepted; mark READY and resume live subscriptions."""
        link = self.controllers.get(origin)
        was_reconnect = link is not None and not link.connected
        if link is not None:
            link.connected = True
            if was_reconnect:
                link.reconnects += 1
                link.reconnect_attempts = 0
        self._set_link_state(origin, LinkState.READY)
        if was_reconnect:
            self.reconnects += 1
            get_counter("agent.reconnect.success").incr()
            self._replay_journal(origin)

    def _replay_journal(self, origin: int) -> None:
        """Re-admit every journaled subscription of ``origin``.

        Runs straight against the RAN functions (no wire round-trip),
        so indications resume even before the server's resync request
        arrives; both paths re-admit the same handle key, which RAN
        functions treat as replacement, keeping replay idempotent.
        """
        for entry in list(self._journal.values()):
            handle = entry.handle
            if handle.origin != origin:
                continue
            function = self._functions.get(handle.ran_function_id)
            if function is None:
                continue
            function.on_subscription(handle, entry.event_trigger, list(entry.actions))
            get_counter("agent.journal.replayed").incr()

    def _set_link_state(self, origin: int, state: LinkState) -> None:
        link = self.controllers.get(origin)
        if link is not None:
            link.state = state
        self._set_state_gauge(origin, state)

    def _set_state_gauge(self, origin: int, state: LinkState) -> None:
        name = f"agent.{self.config.node_id.label}.link.{origin}.state"
        if state == LinkState.DEAD:
            # A dead link's gauge would otherwise sit at 5 forever in
            # every later snapshot; drop it so exports show live links.
            discard_gauge(name)
            return
        get_gauge(name).set(int(state))

    def _send_setup(self, origin: int, endpoint: Endpoint) -> None:
        items = [
            RanFunctionItem(
                ran_function_id=function.ran_function_id,
                definition=function.definition_bytes(),
                revision=function.revision,
                oid=function.oid,
            )
            for function in self._functions.values()
        ]
        request = E2SetupRequest(node_id=self.config.node_id, ran_functions=items)
        endpoint.send(encode_message(request, self.codec))

    def announce_config(self, origin: int, config: Dict[str, str]) -> None:
        """Report a node-level configuration change (E2 node config
        update procedure); the server stores it in the RANDB."""
        self._send(
            origin,
            E2NodeConfigurationUpdate(node_id=self.config.node_id, config=dict(config)),
        )

    def announce_error(self, origin: int, cause: Cause, ran_function_id: Optional[int] = None) -> None:
        """Raise an E2AP error indication towards a controller."""
        self._send(origin, ErrorIndication(cause=cause, ran_function_id=ran_function_id))

    def announce_function_update(self, origin: int, added: List[RanFunction]) -> None:
        """Send a RIC service update for functions added at runtime."""
        update = RicServiceUpdate(
            added=[
                RanFunctionItem(
                    ran_function_id=function.ran_function_id,
                    definition=function.definition_bytes(),
                    revision=function.revision,
                    oid=function.oid,
                )
                for function in added
            ]
        )
        self._send(origin, update)

    # -- IndicationSink -------------------------------------------------

    def send_indication(self, origin: int, indication: RicIndication) -> None:
        endpoint = self._indication_endpoint(origin, pending=1)
        if endpoint is None:
            return
        began = perf_counter_ns()
        try:
            data = encode_message(indication, self.codec)
        finally:
            self.cpu.charge((perf_counter_ns() - began) / 1e9)
        try:
            endpoint.send(data)
        except (ConnectionError, OSError):
            self._count_dropped(1)

    def send_indications(self, origin: int, indications: Sequence[RicIndication]) -> None:
        if not indications:
            return
        endpoint = self._indication_endpoint(origin, pending=len(indications))
        if endpoint is None:
            return
        began = perf_counter_ns()
        try:
            batch = [encode_message(message, self.codec) for message in indications]
        finally:
            self.cpu.charge((perf_counter_ns() - began) / 1e9)
        try:
            endpoint.send_many(batch)
        except (ConnectionError, OSError):
            self._count_dropped(len(batch))

    def _indication_endpoint(self, origin: int, pending: int) -> Optional[Endpoint]:
        """Endpoint for the indication plane, honouring link state.

        Indications are periodic and tolerant to loss; while a link is
        degraded/reconnecting they are *discarded* (and counted)
        rather than raised on — the RAN function keeps producing and
        the stream resumes seamlessly once the link is READY.  Without
        a reconnect policy the legacy contract holds: dead link raises.
        """
        endpoint = self._endpoints.get(origin)
        link = self.controllers.get(origin)
        usable = (
            endpoint is not None
            and not endpoint.closed
            and (link is None or link.state == LinkState.READY)
        )
        if usable:
            return endpoint
        if self._reconnect_policy is not None:
            self._count_dropped(pending)
            return None
        raise ConnectionError(f"no live connection for origin {origin}")

    def _count_dropped(self, count: int) -> None:
        self.indications_dropped += count
        get_counter("agent.indications.dropped").incr(count)

    def _send(self, origin: int, message: E2Message) -> None:
        endpoint = self._endpoints.get(origin)
        if endpoint is None or endpoint.closed:
            raise ConnectionError(f"no live connection for origin {origin}")
        began = perf_counter_ns()
        try:
            data = encode_message(message, self.codec)
        finally:
            self.cpu.charge((perf_counter_ns() - began) / 1e9)
        endpoint.send(data)

    # -- message handling ----------------------------------------------

    def _handle(self, origin: int, endpoint: Endpoint, data: bytes) -> None:
        # Re-register the delivering endpoint: over a synchronous
        # transport the setup reply arrives before ``transport.connect``
        # returns, i.e. before connect_async stored the endpoint.
        current = self._endpoints.get(origin)
        if current is None or current.closed or current is endpoint:
            self._endpoints[origin] = endpoint
        tracer = _TRACER
        if tracer.enabled:
            tracer.node = self.config.node_id.label
        began = perf_counter_ns()
        try:
            try:
                message = decode_message(data, self.codec)
            except CodecError as exc:
                # A corrupted frame must never take the link's dispatch
                # context down; count it and tell the controller.
                get_counter("agent.rx.decode_error").incr()
                get_counter("decode.contained").incr()
                self._safe_reply(
                    endpoint,
                    ErrorIndication(
                        cause=Cause.protocol(Cause.UNSPECIFIED, f"undecodable: {exc}")
                    ),
                )
                return
            trace_start = time.perf_counter() if tracer.enabled else 0.0
            handler = _DISPATCH.get(type(message))
            if handler is not None:
                reply = handler(self, origin, message)
            else:
                reply = ErrorIndication(
                    cause=Cause.protocol(
                        Cause.UNSPECIFIED, f"unhandled {type(message).__name__}"
                    )
                )
            if trace_start:
                request = getattr(message, "request", None)
                tracer.record(
                    "dispatch",
                    trace_start,
                    request.as_tuple() if request is not None else None,
                    procedure=message.procedure.name.lower(),
                )
            if reply is not None:
                self._safe_reply(endpoint, reply)
        finally:
            self.cpu.charge((perf_counter_ns() - began) / 1e9)

    def _safe_reply(self, endpoint: Endpoint, reply: E2Message) -> None:
        try:
            endpoint.send(encode_message(reply, self.codec))
        except (ConnectionError, OSError):
            # Link died under the reply; the disconnect path handles it.
            get_counter("agent.tx.reply_failed").incr()

    # -- message handlers: one per message class, see _DISPATCH ---------

    def _on_setup_response(self, origin: int, message: E2SetupResponse) -> None:
        self._setup_ok[origin] = True
        done = self._setup_done.get(origin)
        if done is not None:
            done.set()
        self._link_ready(origin)

    def _on_setup_failure(self, origin: int, message: E2SetupFailure) -> None:
        self._setup_ok[origin] = False
        done = self._setup_done.get(origin)
        if done is not None:
            done.set()

    def _on_acknowledge(self, origin: int, message: E2Message) -> None:
        """Pure acknowledgements (e.g. of keepalive-triggered service
        updates) end the transaction; answering them with an error
        would ping-pong forever."""

    def _handle_subscription(
        self, origin: int, message: RicSubscriptionRequest
    ) -> E2Message:
        function = self._functions.get(message.ran_function_id)
        if function is None:
            return RicSubscriptionFailureFactory(message, "no such RAN function")
        handle = SubscriptionHandle(origin, message.request, message.ran_function_id)
        admitted, not_admitted = function.on_subscription(
            handle, message.event_trigger, message.actions
        )
        if admitted:
            self._journal[handle.key()] = _JournalEntry(
                handle, bytes(message.event_trigger), list(message.actions)
            )
        return RicSubscriptionResponse(
            request=message.request,
            ran_function_id=message.ran_function_id,
            admitted=admitted,
            not_admitted=not_admitted,
        )

    def _handle_subscription_delete(
        self, origin: int, message: RicSubscriptionDeleteRequest
    ) -> E2Message:
        function = self._functions.get(message.ran_function_id)
        handle = SubscriptionHandle(origin, message.request, message.ran_function_id)
        if function is None or not function.on_subscription_delete(handle):
            return RicSubscriptionDeleteFailure(
                request=message.request,
                ran_function_id=message.ran_function_id,
                cause=Cause.ric_request(Cause.REQUEST_ID_UNKNOWN),
            )
        self._journal.pop(handle.key(), None)
        return RicSubscriptionDeleteResponse(
            request=message.request, ran_function_id=message.ran_function_id
        )

    def _handle_control(self, origin: int, message: RicControlRequest) -> Optional[E2Message]:
        function = self._functions.get(message.ran_function_id)
        if function is None:
            return RicControlFailure(
                request=message.request,
                ran_function_id=message.ran_function_id,
                cause=Cause.ric_request(Cause.RAN_FUNCTION_ID_INVALID),
            )
        try:
            outcome = function.on_control(origin, message.header, message.payload)
        except DECODE_ERRORS:
            # One containment for every SM: a payload its decoder
            # rejects is answered, never raised into the transport loop.
            count_contained_decode()
            outcome = ControlOutcome.fail(Cause.ric_request(Cause.CONTROL_MESSAGE_INVALID))
        if not message.ack_requested and outcome.success:
            return None
        if outcome.success:
            return RicControlAcknowledge(
                request=message.request,
                ran_function_id=message.ran_function_id,
                outcome=outcome.outcome,
            )
        return RicControlFailure(
            request=message.request,
            ran_function_id=message.ran_function_id,
            cause=outcome.cause or Cause.ric_request(Cause.UNSPECIFIED),
        )

    def _handle_service_query(self, origin: int, message: RicServiceQuery) -> E2Message:
        """Answer a RIC service query with the function inventory.

        Functions the RIC already knows are omitted; everything else is
        (re)announced as added."""
        known = set(message.known_functions)
        added = [
            RanFunctionItem(
                ran_function_id=function.ran_function_id,
                definition=function.definition_bytes(),
                revision=function.revision,
                oid=function.oid,
            )
            for function in self._functions.values()
            if function.ran_function_id not in known
        ]
        return RicServiceUpdate(added=added)

    def _handle_connection_update(self, origin: int, message: E2ConnectionUpdate) -> E2Message:
        connected = []
        for tnl in message.add:
            # Non-blocking: we are inside a message callback; waiting for
            # the new setup here would deadlock single-threaded dispatch.
            self.connect_async(
                tnl.address if not tnl.port else f"{tnl.address}:{tnl.port}"
            )
            connected.append(tnl)
        if self.on_connection_update is not None:
            self.on_connection_update(message)
        return E2ConnectionUpdateAcknowledge(connected=connected)

    def _reset(self, origin: int, message: ResetRequest) -> E2Message:
        for function in self._functions.values():
            for key in list(function.subscriptions):
                function.on_subscription_delete(function.subscriptions[key])
        self._journal.clear()
        return ResetResponse()


def RicSubscriptionFailureFactory(message: RicSubscriptionRequest, detail: str):
    """Build a subscription failure mirroring ``message``'s ids."""
    from repro.core.e2ap.messages import RicSubscriptionFailure

    return RicSubscriptionFailure(
        request=message.request,
        ran_function_id=message.ran_function_id,
        cause=Cause.ric_request(Cause.RAN_FUNCTION_ID_INVALID, detail),
    )


#: (procedure, class) → handler, keyed by the registered dataclass that
#: pair decodes to: one ``get`` dispatches a message.  A class missing
#: here is answered with an ``ErrorIndication``.
_DISPATCH: Dict[type, Callable[[Agent, int, E2Message], Optional[E2Message]]] = {
    E2SetupResponse: Agent._on_setup_response,
    E2SetupFailure: Agent._on_setup_failure,
    RicSubscriptionRequest: Agent._handle_subscription,
    RicSubscriptionDeleteRequest: Agent._handle_subscription_delete,
    RicControlRequest: Agent._handle_control,
    E2ConnectionUpdate: Agent._handle_connection_update,
    RicServiceQuery: Agent._handle_service_query,
    ResetRequest: Agent._reset,
    RicServiceUpdateAcknowledge: Agent._on_acknowledge,
    E2NodeConfigurationUpdateAcknowledge: Agent._on_acknowledge,
}
