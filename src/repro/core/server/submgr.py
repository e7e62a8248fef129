"""Subscription management (§4.2.2).

Keeps track of existing subscriptions and delivers arriving
subscription-related messages to the corresponding iApps.  The lookup
key is the RIC request id the server minted for the subscription; with
the FlatBuffers-style codec the server reads that key zero-copy from
the raw indication bytes, which is the mechanism behind the 4x CPU gap
of Fig. 8b.

Concurrency model: the indication hot path runs on the ingest loop
of every transport the server listens on, beside writers on foreign
threads (iApps and other API callers), and does exactly one
``_records.get(key)`` per indication, never iterating — a single-key
``get`` racing a single-key ``d[k] = v`` / ``d.pop(k)`` is atomic in
CPython, so it takes no lock.  Every mutation happens under ``_lock``
and writes ``_records`` in place, so a subscription write costs the
same at 10 and at 10 000 standing records.  A reader sees a record
just before or just after the write — at worst an indication routes
to a record that was just removed or misses one that was just created,
the same races a network reordering already produces.  Anything that
*iterates* a table does so under ``_lock``.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.counters import get_counter
from repro.metrics.trace import TRACER as _TRACER
from repro.core.e2ap.ies import RicActionDefinition, RicRequestId
from repro.core.e2ap.messages import (
    RicSubscriptionDeleteResponse,
    RicSubscriptionFailure,
    RicSubscriptionResponse,
)


@dataclass
class SubscriptionCallbacks:
    """Callbacks an iApp provides with a subscription request (§4.2.2).

    All optional; ``on_indication`` receives the server's lazy
    :class:`~repro.core.server.server.IndicationEvent`.
    """

    on_success: Optional[Callable[[RicSubscriptionResponse], None]] = None
    on_failure: Optional[Callable[[RicSubscriptionFailure], None]] = None
    on_indication: Optional[Callable[["IndicationEventLike"], None]] = None
    on_deleted: Optional[Callable[[RicSubscriptionDeleteResponse], None]] = None


# Structural alias: anything exposing request/ran_function_id/payload.
IndicationEventLike = object


#: everything the agent sees on the wire; equal keys may share a record.
ShareKey = Tuple[int, int, int, bytes, Tuple[RicActionDefinition, ...]]


#: ``slots`` is a 3.10 dataclass keyword; 3.9 builds the same record with a ``__dict__``.
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTTED)
class SubscriptionRecord:
    """One live (or pending) subscription."""

    request: RicRequestId
    conn_id: int
    ran_function_id: int
    callbacks: SubscriptionCallbacks
    actions: List[RicActionDefinition] = field(default_factory=list)
    confirmed: bool = False
    indications_seen: int = 0
    #: the event trigger the iApp subscribed with, kept so the server
    #: can re-issue the request verbatim when a stale node recovers.
    event_trigger: bytes = b""
    #: True while the owning node is stale: the record is retained
    #: (same request id) but awaiting resync to a fresh connection.
    parked: bool = False
    #: number of times this subscription was resynced after a node
    #: recovery (diagnostics for the chaos suite).
    resyncs: int = 0
    #: additional iApp sinks sharing this wire subscription (single-
    #: encode fan-out, DESIGN.md §15): the agent encodes and frames one
    #: indication, the server hands the same decoded event to the
    #: primary callbacks and every extra sink.
    extra_sinks: List[SubscriptionCallbacks] = field(default_factory=list)
    #: the confirm response, kept so a sink attaching after the wire
    #: subscription confirmed can replay ``on_success`` immediately.
    response: Optional["RicSubscriptionResponse"] = None
    #: this record's :data:`ShareKey`, computed once by the submgr and
    #: recomputed only when :meth:`SubscriptionManager.adopt` re-homes it.
    share_key: Optional[ShareKey] = None
    #: set by the holder's first ``unsubscribe``; a repeat is a no-op.
    released: bool = False


class SinkHandle:
    """Per-attach handle onto a shared :class:`SubscriptionRecord`.

    Returned by :meth:`SubscriptionManager.attach_sink` (and therefore
    by ``Server.subscribe`` when a request rides an existing wire
    subscription).  The handle remembers *which* callbacks this
    subscriber attached, so ``unsubscribe`` detaches exactly that sink
    — not an arbitrary one.  Attribute reads delegate to the shared
    record, so callers can keep treating the return value of
    ``subscribe`` as a record (``.request``, ``.confirmed``, ...).
    """

    __slots__ = ("record", "sink", "released")

    def __init__(self, record: SubscriptionRecord, sink: SubscriptionCallbacks) -> None:
        self.record = record
        self.sink = sink
        #: set by this subscriber's first ``unsubscribe``; a repeat is a no-op.
        self.released = False

    def __getattr__(self, name):
        return getattr(self.record, name)


_Bucket = Dict[Tuple[int, int], SubscriptionRecord]  # request key -> record

#: share-index order: creation order, as request ids are minted in it.
_creation_order = attrgetter("request.instance_id")


def _share_key(record: SubscriptionRecord) -> ShareKey:
    return (
        record.conn_id, record.ran_function_id, record.request.requestor_id,
        record.event_trigger, tuple(record.actions),
    )


def _notify(subscribers: List[SubscriptionCallbacks], hook: str, message) -> None:
    """Call ``hook`` on every subscriber that set one; never under ``_lock``."""
    for callbacks in subscribers:
        handler = getattr(callbacks, hook)
        if handler is not None:
            handler(message)


class SubscriptionManager:
    """Mints request ids, tracks records, dispatches by key."""

    def __init__(self, requestor_id: int = 1) -> None:
        self.requestor_id = requestor_id
        self._instance_ids = itertools.count(1)
        #: the routing table: written in place under ``_lock``, read
        #: with one lock-free ``get`` per indication on the hot path.
        self._records: _Bucket = {}
        #: live non-parked records by share key, earliest-created first
        #: (a record mid-resync is not a safe attach target, so parking
        #: leaves this index).  Tuples: one record per key is the norm.
        self._by_share: Dict[ShareKey, Tuple[SubscriptionRecord, ...]] = {}
        #: records by connection; parked ones stay under the dead
        #: connection until :meth:`adopt` re-homes them.
        self._by_conn: Dict[int, _Bucket] = {}
        #: parked records; ``len(self) - parked_count`` are active.
        self.parked_count = 0
        self._lock = threading.RLock()

    def _join(self, key: Tuple[int, int], record: SubscriptionRecord) -> None:
        """Index ``record`` (request key ``key``); caller holds ``_lock``."""
        self._by_conn.setdefault(record.conn_id, {})[key] = record
        self.parked_count += record.parked
        if not record.parked:
            alone = (record,)
            peers = self._by_share.setdefault(record.share_key, alone)
            if peers is not alone:
                # Only an adopted record can be older than its peers.
                self._by_share[record.share_key] = tuple(
                    sorted(peers + alone, key=_creation_order)
                )

    def _leave(self, key: Tuple[int, int], record: SubscriptionRecord) -> None:
        """Inverse of :meth:`_join`; call *before* changing conn/parked."""
        conn = self._by_conn[record.conn_id]
        del conn[key]
        if not conn:
            del self._by_conn[record.conn_id]
        self.parked_count -= record.parked
        if not record.parked:
            peers = self._by_share.pop(record.share_key)
            if len(peers) > 1:
                self._by_share[record.share_key] = tuple(r for r in peers if r is not record)

    def mint_request(self, requestor_id: Optional[int] = None) -> RicRequestId:
        """A fresh request id, registered nowhere (a locally refused
        request still needs one for its failure callback)."""
        return RicRequestId(
            requestor_id=self.requestor_id if requestor_id is None else requestor_id,
            instance_id=next(self._instance_ids),
        )

    def create(
        self,
        conn_id: int,
        ran_function_id: int,
        callbacks: SubscriptionCallbacks,
        actions: Optional[List[RicActionDefinition]] = None,
        requestor_id: Optional[int] = None,
        event_trigger: bytes = b"",
        share: bool = False,
    ) -> "SubscriptionRecord | SinkHandle":
        """Allocate a request id and register the pending record.

        ``requestor_id`` may be overridden per subscription so a
        controller hosting several applications keeps their
        transactions distinguishable (xApp multiplexing, §6.3).  With
        ``share`` a :meth:`find_shared` match is attached to instead
        (as :meth:`attach_sink`) — find-or-create in one critical
        section, so equal concurrent requests create one record.
        """
        actions = list(actions or ())
        event_trigger = bytes(event_trigger)
        requestor = self.requestor_id if requestor_id is None else requestor_id
        share_key = (conn_id, ran_function_id, requestor, event_trigger, tuple(actions))
        with self._lock:  # ids minted under the lock: table order is creation order
            peers = self._by_share.get(share_key) if share else None
            if not peers:
                instance = next(self._instance_ids)
                record = SubscriptionRecord(
                    RicRequestId(requestor, instance), conn_id, ran_function_id, callbacks,
                    actions, event_trigger=event_trigger, share_key=share_key,
                )
                key = (requestor, instance)
                self._records[key] = record
                self._join(key, record)
                return record
            shared = peers[0]
            shared.extra_sinks.append(callbacks)
            response = shared.response if shared.confirmed else None
        return self._attached(shared, callbacks, response)

    def lookup(self, requestor_id: int, instance_id: int) -> Optional[SubscriptionRecord]:
        """O(1) lock-free dispatch lookup on the indication hot path."""
        return self._records.get((requestor_id, instance_id))

    def confirm(self, response: RicSubscriptionResponse) -> Optional[SubscriptionRecord]:
        # The confirmed/response flip and the subscriber snapshot are one
        # step under _lock so a concurrently attaching sink gets
        # on_success exactly once: it appended before this snapshot
        # (notified below) or after, in which case the attach saw
        # confirmed=True and replays the stored response itself.
        request = response.request
        with self._lock:
            record = self._records.get((request.requestor_id, request.instance_id))
            if record is None:
                return None
            record.response = response
            record.confirmed = True
            subscribers = [record.callbacks, *record.extra_sinks]
        _notify(subscribers, "on_success", response)
        return record

    def _retire(self, request: RicRequestId, hook: str = "", message=None):
        """Unregister the record, then call ``hook`` on its subscribers of that moment."""
        key = (request.requestor_id, request.instance_id)
        with self._lock:
            record = self._records.pop(key, None)
            if record is None:
                return None
            self._leave(key, record)
            subscribers = [record.callbacks, *record.extra_sinks]
        if hook:
            _notify(subscribers, hook, message)
        return record

    def withdraw(self, record: SubscriptionRecord, failure: RicSubscriptionFailure) -> None:
        """Retire a record whose request never reached the wire.  Its
        creator learns that from the send error; every sink that
        attached meanwhile gets ``failure`` once."""
        key = (record.request.requestor_id, record.request.instance_id)
        with self._lock:
            if self._records.get(key) is not record:
                return
            del self._records[key]
            self._leave(key, record)
            sinks = list(record.extra_sinks)
        _notify(sinks, "on_failure", failure)

    def fail(self, failure: RicSubscriptionFailure) -> Optional[SubscriptionRecord]:
        return self._retire(failure.request, "on_failure", failure)

    def remove(self, request: RicRequestId) -> Optional[SubscriptionRecord]:
        return self._retire(request)

    def deleted(self, response: RicSubscriptionDeleteResponse) -> Optional[SubscriptionRecord]:
        return self._retire(response.request, "on_deleted", response)

    # -- shared wire subscriptions (single-encode fan-out) -------------

    def find_shared(
        self,
        conn_id: int,
        ran_function_id: int,
        event_trigger: bytes,
        actions: Optional[List[RicActionDefinition]],
        requestor_id: Optional[int],
    ) -> Optional[SubscriptionRecord]:
        """The earliest-created live record with an equal :data:`ShareKey`
        (parked records are not in the index): one dict lookup."""
        requestor = self.requestor_id if requestor_id is None else requestor_id
        key = (conn_id, ran_function_id, requestor, bytes(event_trigger), tuple(actions or ()))
        with self._lock:
            peers = self._by_share.get(key)
            return peers[0] if peers else None

    def attach_sink(
        self, record: SubscriptionRecord, callbacks: SubscriptionCallbacks
    ) -> SinkHandle:
        """Add an extra sink to a shared record (no wire traffic).

        A sink attaching after the wire subscription confirmed gets the
        stored response replayed, so its ``on_success`` contract holds
        (exactly once: see :meth:`confirm`).
        """
        with self._lock:
            record.extra_sinks.append(callbacks)
            response = record.response if record.confirmed else None
        return self._attached(record, callbacks, response)

    def _attached(self, record, callbacks: SubscriptionCallbacks, response) -> SinkHandle:
        """The rest of an attach, outside ``_lock``: it runs iApp code."""
        get_counter("server.subscription.shared").incr()
        if response is not None and callbacks.on_success is not None:
            callbacks.on_success(response)
        return SinkHandle(record, callbacks)

    def detach_sink(self, handle) -> bool:
        """Detach one subscriber from a shared record.

        ``handle`` is either the :class:`SinkHandle` an attach returned
        (detaches exactly that sink) or the plain
        :class:`SubscriptionRecord` the primary subscriber holds (the
        earliest-attached extra sink, if any, is promoted to primary so
        the wire subscription survives the primary leaving).  Each
        holder detaches once: a repeat, or a record that was never
        registered (refused by admission) or is already gone, detaches
        nothing.

        Returns True when there is nothing for the caller to send;
        False means this was the last subscriber and the caller owns
        the actual wire delete.
        """
        with self._lock:
            if handle.released:
                return True
            handle.released = True
            if isinstance(handle, SinkHandle):
                record = handle.record
                for i, sink in enumerate(record.extra_sinks):
                    if sink is handle.sink:
                        # New list, never in-place: deliver_indication
                        # iterates extra_sinks lock-free.
                        record.extra_sinks = (
                            record.extra_sinks[:i] + record.extra_sinks[i + 1 :]
                        )
                        return True
                if record.callbacks is not handle.sink:
                    return True  # neither an extra sink nor the promoted primary
            else:
                record = handle
            request = record.request
            if self._records.get((request.requestor_id, request.instance_id)) is not record:
                return True
            # Primary leaving: promote the earliest-attached sink so
            # the subscribers still riding the record keep receiving.
            if record.extra_sinks:
                promoted = record.extra_sinks[0]
                record.extra_sinks = record.extra_sinks[1:]
                record.callbacks = promoted
                return True
        return False

    def deliver_indication(self, event) -> Optional[SubscriptionRecord]:
        """Route an indication to its iApp; returns the record or None.

        ``event`` carries its ``route_key`` as a plain attribute, so
        routing is one ``get``; the payload is only touched by the iApp.
        With tracing enabled the lookup plus the iApp callback are
        recorded as one ``dispatch`` span, correlated on the request id
        — the "dispatch-to-iApp" stage of the Fig. 9 decomposition.
        """
        tracer = _TRACER
        trace_start = time.perf_counter() if tracer.enabled else 0.0
        key = event.route_key
        record = self._records.get(key)
        if record is None:
            return None
        record.indications_seen += 1
        on_indication = record.callbacks.on_indication
        if on_indication is not None:
            on_indication(event)
        sinks = record.extra_sinks
        if sinks:
            # Fan-out without re-encode: every extra sink sees the same
            # decoded event the wire delivered once.  Each sink served
            # here is one encode+frame+send the agent did not perform.
            get_counter("encode.reuse").incr(len(sinks))
            for sink in sinks:
                if sink.on_indication is not None:
                    sink.on_indication(event)
        if trace_start:
            tracer.record(
                "dispatch",
                trace_start,
                key,
                procedure="ric_indication",
            )
        return record

    def records_for_conn(self, conn_id: int) -> List[SubscriptionRecord]:
        with self._lock:
            return list(self._by_conn.get(conn_id, {}).values())

    def drop_conn(self, conn_id: int) -> int:
        """Purge all subscriptions of a vanished agent; returns count."""
        with self._lock:
            records = self.records_for_conn(conn_id)
            for record in records:
                self._retire(record.request)
        return len(records)

    # -- stale-node lifecycle (server resync) -------------------------

    def park_conn(self, conn_id: int) -> List[SubscriptionRecord]:
        """Park a stale node's subscriptions instead of purging them.

        The records keep their request ids — the whole point: when the
        node re-attaches within its grace window the server re-issues
        the same requests and the iApps' callbacks never notice the
        outage.  Returns the records parked now.
        """
        with self._lock:
            parked = [r for r in self.records_for_conn(conn_id) if not r.parked]
            for record in parked:
                key = record.request.as_tuple()
                self._leave(key, record)
                record.parked = True
                record.confirmed = False
                self._join(key, record)
        return parked

    def adopt(self, records: List[SubscriptionRecord], new_conn_id: int) -> None:
        """Re-home parked records onto the recovered node's connection,
        re-keying them in the share index under the new ``conn_id``.
        Records purged while parked (a racing ``drop_conn``) stay gone."""
        with self._lock:
            for record in records:
                key = record.request.as_tuple()
                if self._records.get(key) is not record:
                    continue
                self._leave(key, record)
                record.conn_id = new_conn_id
                record.parked = False
                record.resyncs += 1
                record.share_key = _share_key(record)
                self._join(key, record)

    def terminal_fail(self, record: SubscriptionRecord, failure: RicSubscriptionFailure) -> None:
        """Grace expired: remove the record, telling its iApps it is gone for good."""
        self._retire(record.request, "on_failure", failure)

    def parked_records(self) -> List[SubscriptionRecord]:
        with self._lock:
            return [record for record in self._records.values() if record.parked]

    def active_records(self) -> List[SubscriptionRecord]:
        """Non-parked records (the chaos suite's duplicate check)."""
        with self._lock:
            return [record for record in self._records.values() if not record.parked]

    def __len__(self) -> int:
        return len(self._records)
