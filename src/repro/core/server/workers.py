"""Multiprocess ingest: N worker processes behind one port (§14).

Loops in one interpreter share one interpreter lock and buy nothing
(DESIGN.md §10), so parallelism here is a matter of processes:
:class:`MultiProcServer` forks ``ServerConfig.workers`` worker
*processes*, each owning a complete
:class:`~repro.core.server.server.Server` — its own one-loop
``TcpTransport``, its own overload :class:`QueuePressure`, its own
metrics registry — plus an ``SO_REUSEPORT`` listener on the shared port
so the kernel spreads incoming E2 connections across workers with no
userspace coordination.

Coordination that *is* needed flows over one duplex pipe per worker:

* **control** (parent → worker): declarative
  :class:`SubscriptionPolicy` routing snapshots.  A policy is
  *replaced, never mutated*; the parent republishes the full current
  set on every change and to every respawned worker, and each worker
  applies it copy-on-write against its local subscription state.
* **stats** (worker → parent): periodic counter/gauge snapshots the
  supervisor merges into one :meth:`overload_state` / ``/metrics``
  view, so dashboards see the fleet as one server.

Without ``SO_REUSEPORT`` the supervisor falls back to an explicit
accept-and-hand-off path: it accepts centrally and passes raw fds to
workers round-robin via ``multiprocessing.reduction.send_handle`` —
loudly (``server.reuseport.fallback``), never silently single-listener.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.e2ap.ies import RicActionDefinition
from repro.core.server import events as topics
from repro.core.server.server import Server, ServerConfig
from repro.core.server.shmsnap import SnapshotReader, SnapshotWriter
from repro.core.server.submgr import SubscriptionCallbacks
from repro.core.transport import tcp as tcp_mod
from repro.core.transport.tcp import TcpTransport
from repro.metrics.counters import (
    counter_values,
    discard_gauge,
    gauge_values,
    get_counter,
    get_gauge,
    reset_all,
)

#: respawns tolerated per worker slot before the supervisor gives up
#: on it (counted in ``server.worker.giveup``).
RESPAWN_LIMIT = 5

#: worker-side heartbeat: unsolicited stats pushes at most this often.
_STATS_PUSH_INTERVAL_S = 0.25


@dataclass
class SubscriptionPolicy:
    """One declarative, picklable routing-snapshot entry.

    The multiprocess analogue of an iApp calling
    :meth:`Server.subscribe`: "every connected node exposing
    ``ran_function_id`` gets this subscription".  Workers apply it to
    the agents they own (connections land on exactly one worker) and
    re-apply it to agents that attach or re-attach later, so a policy
    survives worker crashes and node flaps without parent involvement
    per event.
    """

    ran_function_id: int
    event_trigger: bytes = b""
    actions: Tuple[RicActionDefinition, ...] = ()
    requestor_id: Optional[int] = None
    #: assigned by the parent on publish; workers dedup on it.
    policy_id: int = 0

    def __post_init__(self) -> None:
        self.actions = tuple(self.actions)


class _PolicyManager:
    """Worker-side application of the published policy snapshot.

    Tracks which (conn, policy) pairs are already subscribed so a
    republished snapshot (the parent always sends the full set) is
    idempotent.  Indications delivered through policy subscriptions are
    counted in ``server.policy.indications`` — the number the parent
    aggregates for the throughput view.
    """

    def __init__(self, server: Server) -> None:
        self._server = server
        self._lock = threading.Lock()
        self._policies: Dict[int, SubscriptionPolicy] = {}
        #: (conn_id, policy_id) pairs already subscribed.
        self._applied: set = set()
        self._ind_counter = get_counter("server.policy.indications")
        server.events.subscribe(topics.AGENT_CONNECTED, self._on_agent)
        server.events.subscribe(topics.NODE_RECOVERED, self._on_agent)
        server.events.subscribe(topics.AGENT_DISCONNECTED, self._on_gone)

    def set_policies(self, policies: List[SubscriptionPolicy]) -> None:
        with self._lock:
            self._policies = {p.policy_id: p for p in policies}
            live = {p.policy_id for p in policies}
            self._applied = {
                pair for pair in self._applied if pair[1] in live
            }
        for record in self._server.agents():
            self._apply_to(record)

    def _on_agent(self, record) -> None:
        self._apply_to(record)

    def _on_gone(self, record) -> None:
        # AGENT_DISCONNECTED is the *terminal* exit (a stale node in
        # its grace window publishes NODE_STALE instead and keeps its
        # parked policy subscriptions for adopt-on-recovery).
        key = self._node_key(record)
        with self._lock:
            self._applied = {pair for pair in self._applied if pair[0] != key}

    @staticmethod
    def _node_key(record) -> str:
        return str(getattr(record, "node_id", ""))

    def _apply_to(self, record) -> None:
        conn_id = getattr(record, "conn_id", None)
        if conn_id is None:
            return
        # Keyed by node identity, not conn id: a node re-attaching
        # inside its grace window gets its parked subscriptions adopted
        # by the server, so re-applying the policy there would
        # double-subscribe it.
        key = self._node_key(record)
        with self._lock:
            todo = [
                policy
                for policy in self._policies.values()
                if (key, policy.policy_id) not in self._applied
                and policy.ran_function_id in record.functions
            ]
            for policy in todo:
                self._applied.add((key, policy.policy_id))
        for policy in todo:
            try:
                self._server.subscribe(
                    conn_id=conn_id,
                    ran_function_id=policy.ran_function_id,
                    event_trigger=policy.event_trigger,
                    actions=list(policy.actions),
                    callbacks=SubscriptionCallbacks(
                        on_indication=self._on_indication
                    ),
                    requestor_id=policy.requestor_id,
                )
            except (ConnectionError, KeyError):
                # The link died between the event and the subscribe;
                # the next attach re-applies.
                with self._lock:
                    self._applied.discard((key, policy.policy_id))

    def _on_indication(self, event) -> None:
        self._ind_counter.incr()


def _stats_payload(server: Server, scratch: Optional[dict] = None) -> dict:
    """Build (or refill) one stats push payload.

    ``scratch`` lets the worker's 250 ms heartbeat reuse one top-level
    dict per process instead of allocating a fresh one per tick — the
    pipe pickles the contents at send time, so reuse is safe.
    """
    payload = scratch if scratch is not None else {}
    counters = counter_values()
    payload["pid"] = os.getpid()
    payload["agents"] = len(server.agents())
    payload["subscriptions"] = len(server.submgr) - server.submgr.parked_count
    payload["indications"] = counters.get("server.policy.indications", 0)
    payload["counters"] = {k: v for k, v in counters.items() if v}
    payload["gauges"] = gauge_values()
    return payload


def _stats_fingerprint(payload: dict) -> tuple:
    """Change detector for unsolicited pushes.

    Excludes the skip counter itself — otherwise every skip would make
    the next tick look changed and pushes would merely alternate.
    """
    counters = {
        k: v
        for k, v in payload["counters"].items()
        if k != "server.stats.push_skipped"
    }
    return (
        payload["agents"],
        payload["subscriptions"],
        counters,
        payload["gauges"],
    )


def _worker_main(
    index: int,
    host: str,
    port: int,
    config: ServerConfig,
    policies: List[SubscriptionPolicy],
    conn,
    use_reuseport: bool,
    snapshot: Optional[SnapshotReader] = None,
) -> None:
    """Entry point of one worker process.

    Builds a complete single-process server (``workers=0``), binds its
    own reuseport listener (or waits for handed-off fds), applies the
    routing-policy snapshot it was forked with, then serves its control
    pipe until told to stop or orphaned.
    """
    # The forked registry carries the parent's pre-fork values; the
    # worker's stats must start from zero or the merged view
    # double-counts everything the parent did before the fork.
    reset_all()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates shutdown
    server = Server(replace(config, workers=0))
    transport = TcpTransport(
        reuseport=use_reuseport,
        overload=server.overload,
        classify=server._classify,
    )
    events = server.transport_events()
    if use_reuseport:
        server.listen(transport, f"{host}:{port}")
    transport.start()
    manager = _PolicyManager(server)
    manager.set_policies(policies)
    try:
        conn.send(("ready", index, port))
    except (OSError, BrokenPipeError):
        return
    _worker_loop(index, server, transport, manager, conn, events, snapshot)


def _worker_loop(
    index: int,
    server: Server,
    transport: TcpTransport,
    manager: _PolicyManager,
    conn,
    events,
    snapshot: Optional[SnapshotReader] = None,
) -> None:
    """The worker's bounded-blocking control loop (RL004-audited)."""
    parent_pid = os.getppid()
    last_push = time.monotonic()
    running = True
    #: reused across ticks (allocation satellite of DESIGN.md §15);
    #: the pipe pickles at send time, so reuse never aliases a message.
    scratch: dict = {}
    last_pushed: Optional[tuple] = None
    push_skipped = get_counter("server.stats.push_skipped")
    while running:
        if os.getppid() != parent_pid:
            break  # orphaned: the supervisor died without a stop
        try:
            has_msg = conn.poll(0.05)
        except (OSError, EOFError):
            break
        if has_msg:
            try:
                msg = conn.recv()  # repro-lint: disable=RL004 — bounded by the poll(0.05) above
            except (EOFError, OSError):
                break
            running = _handle_command(
                index, msg, server, transport, manager, conn, events, snapshot
            )
            continue
        now = time.monotonic()
        if now - last_push >= _STATS_PUSH_INTERVAL_S:
            last_push = now
            payload = _stats_payload(server, scratch)
            fingerprint = _stats_fingerprint(payload)
            if fingerprint == last_pushed:
                # Nothing moved since the last heartbeat: the parent's
                # merged view is already current; skip the pickle+pipe.
                push_skipped.incr()
                continue
            try:
                conn.send(("stats", index, None, payload))
            except (OSError, BrokenPipeError):
                break
            last_pushed = fingerprint
    try:
        server.close()
        transport.stop()
    except RuntimeError:
        pass  # loud-teardown report has nowhere to go; process exits anyway
    try:
        conn.send(("bye", index))
        conn.close()
    except (OSError, BrokenPipeError):
        pass


def _handle_command(
    index: int,
    msg: tuple,
    server: Server,
    transport: TcpTransport,
    manager: _PolicyManager,
    conn,
    events,
    snapshot: Optional[SnapshotReader] = None,
) -> bool:
    """Apply one control-pipe command; returns False on ``stop``."""
    kind = msg[0]
    if kind == "stop":
        return False
    if kind == "policies":
        manager.set_policies(list(msg[1]))
    elif kind == "policy_gen":
        # Shared-memory publication: the pipe carried only the nudge;
        # the payload is read (seqlock) out of the parent's segment.
        applied = False
        if snapshot is not None:
            try:
                got = snapshot.read()
            except RuntimeError:
                got = None
            if got is not None:
                generation, payload = got
                try:
                    policies = pickle.loads(payload)
                except (pickle.UnpicklingError, EOFError, ValueError, TypeError):
                    policies = None
                if policies is not None:
                    manager.set_policies(list(policies))
                    get_counter("server.policy.shm_reads").incr()
                    get_gauge("server.policy.generation").set(generation)
                    applied = True
        if not applied:
            # Loud fallback: ask the parent for the pickled snapshot
            # over the pipe (counted on both sides).
            get_counter("server.policy.shm_fallback").incr()
            try:
                conn.send(("need_policies", index))
            except (OSError, BrokenPipeError):
                return False
    elif kind == "stats":
        try:
            conn.send(("stats", index, msg[1], _stats_payload(server)))
        except (OSError, BrokenPipeError):
            return False
    elif kind == "socket":
        # Accept-and-hand-off fallback: the parent accepted, we own it.
        from multiprocessing import reduction

        fd = reduction.recv_handle(conn)
        transport.adopt(socket.socket(fileno=fd), events)
    return True


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker slot."""

    index: int
    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    ready: threading.Event = field(default_factory=threading.Event)
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    stats: dict = field(default_factory=dict)
    stats_seq: int = 0
    respawns: int = 0
    failed: bool = False
    closed: bool = False

    def send(self, msg: tuple) -> bool:
        try:
            with self.send_lock:
                self.conn.send(msg)
            return True
        except (OSError, BrokenPipeError, ValueError):
            return False

    def send_pickled(self, wire: bytes) -> bool:
        """Send an already-pickled message (``conn.recv`` unpickles it).

        Lets a broadcast serialize a large snapshot once and push the
        same buffer to every worker instead of re-pickling per pipe.
        """
        try:
            with self.send_lock:
                self.conn.send_bytes(wire)
            return True
        except (OSError, BrokenPipeError, ValueError):
            return False


_FORK_GUARD_INSTALLED = False


def _install_fork_guard() -> None:
    """Make the metrics registry fork-safe.

    The supervisor forks (respawn) from a thread while transport loops
    of other components may hold a registry stripe lock mid-insert; the
    child would inherit the held lock with no thread to release it and
    deadlock on its first ``get_counter``.  Acquiring every registry
    lock across the fork (in fixed order) guarantees the child starts
    with all of them released.
    """
    global _FORK_GUARD_INSTALLED
    if _FORK_GUARD_INSTALLED or not hasattr(os, "register_at_fork"):
        return
    from repro.metrics import counters as metrics_registry

    locks = (metrics_registry._REGISTRY_LOCK,) + tuple(metrics_registry._LOCK_POOL)

    def _acquire_all() -> None:
        for lock in locks:
            lock.acquire()

    def _release_all() -> None:
        for lock in reversed(locks):
            lock.release()

    os.register_at_fork(
        before=_acquire_all,
        after_in_parent=_release_all,
        after_in_child=_release_all,
    )
    _FORK_GUARD_INSTALLED = True


class MultiProcServer:
    """Supervisor for ``config.workers`` single-process servers.

    One shared TCP port, N forked workers, policy snapshots
    republished over control pipes, per-worker stats merged into one
    view.  The parent holds the port (a bound, *non-listening*
    reuseport socket — only listening sockets participate in kernel
    connection spreading, so the reservation never steals an accept)
    and supervises: a worker that dies is respawned with the current
    policy snapshot, up to :data:`RESPAWN_LIMIT` times per slot.
    """

    def __init__(
        self,
        config: ServerConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        start_method: str = "fork",
    ) -> None:
        if config.workers < 1:
            raise ValueError(f"MultiProcServer needs workers >= 1, got {config.workers}")
        self.config = config
        self._host = host
        self._requested_port = port
        self._ctx = multiprocessing.get_context(start_method)
        self._handles: Dict[int, _WorkerHandle] = {}
        self._policies: Dict[int, SubscriptionPolicy] = {}
        self._policy_seq = itertools.count(1)
        self._stats_seq = itertools.count(1)
        self._lock = threading.Lock()
        self._stats_cond = threading.Condition(self._lock)
        self._running = False
        self._stopped = False
        self._port: Optional[int] = None
        self._reserve_sock: Optional[socket.socket] = None
        self._accept_sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._supervisor: Optional[threading.Thread] = None
        self._rr = itertools.count()
        self.reuseport = tcp_mod.reuseport_available()
        #: shared-memory snapshot segment (DESIGN.md §15).  Fork-only:
        #: workers inherit the parent's mapping; under other start
        #: methods the pickled pipe path is used, loudly counted.
        self._start_method = start_method
        self._snap_writer: Optional[SnapshotWriter] = None
        self._snap_reader: Optional[SnapshotReader] = None

    # -- lifecycle ---------------------------------------------------

    def start(self, ready_timeout_s: float = 15.0) -> None:
        """Reserve the port, fork the workers, wait until all listen."""
        if self._running:
            return
        _install_fork_guard()
        self._running = True
        if self._start_method == "fork" and self._snap_writer is None:
            try:
                self._snap_writer = SnapshotWriter()
                self._snap_reader = self._snap_writer.reader()
            except (OSError, ImportError):
                # No shared memory on this host: the pipe path still
                # works — degrade loudly, never silently.
                get_counter("server.policy.shm_fallback").incr()
                self._snap_writer = None
                self._snap_reader = None
        if self.reuseport:
            self._reserve_sock = self._reserve_port()
        else:
            # Loud degradation (never silent single-listener): count
            # once, accept centrally, hand fds to workers.
            get_counter("server.reuseport.fallback").incr()
            self._accept_sock = self._central_listener()
        get_gauge("server.workers").set(self.config.workers)
        for index in range(self.config.workers):
            self._handles[index] = self._spawn(index)
        self._supervisor = threading.Thread(
            target=self._supervise, name="e2-worker-supervisor", daemon=True
        )
        self._supervisor.start()
        deadline = time.monotonic() + ready_timeout_s
        for handle in self._handles.values():
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not handle.ready.wait(timeout=remaining):
                self.stop()
                raise RuntimeError(
                    f"worker {handle.index} failed to become ready within "
                    f"{ready_timeout_s}s"
                )
        if not self.reuseport:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="e2-accept-handoff", daemon=True
            )
            self._accept_thread.start()

    def _reserve_port(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self._host, self._requested_port))
        self._port = sock.getsockname()[1]
        return sock

    def _central_listener(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._requested_port))
        sock.listen(128)
        sock.settimeout(0.2)
        self._port = sock.getsockname()[1]
        return sock

    def _spawn(self, index: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        with self._lock:
            policies = list(self._policies.values())
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                self._host,
                self._port,
                self.config,
                policies,
                child_conn,
                self.reuseport,
                self._snap_reader,
            ),
            name=f"e2-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        get_counter("server.worker.spawned").incr()
        get_gauge(f"server.worker.{index}.alive").set(0)
        return _WorkerHandle(index=index, process=process, conn=parent_conn)

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("MultiProcServer not started")
        return self._port

    @property
    def address(self) -> str:
        return f"{self._host}:{self.port}"

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop workers and supervision threads (idempotent, loud)."""
        if self._stopped:
            return
        self._stopped = True
        self._running = False
        for handle in self._handles.values():
            if not handle.failed:
                handle.send(("stop",))
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout_s)
            if self._supervisor.is_alive():
                get_counter("transport.stop.stuck").incr()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout_s)
        for sock in (self._accept_sock, self._reserve_sock):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        deadline = time.monotonic() + timeout_s
        for handle in self._handles.values():
            remaining = max(0.1, deadline - time.monotonic())
            handle.process.join(timeout=remaining)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(timeout=2.0)
            handle.closed = True
            try:
                handle.conn.close()
            except OSError:
                pass
            discard_gauge(f"server.worker.{handle.index}.alive")
        discard_gauge("server.workers")
        if self._snap_writer is not None:
            self._snap_writer.close(unlink=True)
            self._snap_writer = None
            self._snap_reader = None
            discard_gauge("server.policy.generation")

    # -- policy (routing snapshot) publication -----------------------

    def subscribe_all(self, policy: SubscriptionPolicy) -> SubscriptionPolicy:
        """Publish one more routing-policy entry to every worker.

        Returns the policy with its assigned ``policy_id``.  The full
        current snapshot is re-broadcast (replaced, never mutated):
        a worker cannot share the parent's dicts, so it gets a copy.
        """
        with self._lock:
            if policy.policy_id == 0:
                policy.policy_id = next(self._policy_seq)
            self._policies[policy.policy_id] = policy
            snapshot = list(self._policies.values())
        self._broadcast_policies(snapshot)
        return policy

    def unsubscribe_all(self, policy_id: int) -> None:
        with self._lock:
            self._policies.pop(policy_id, None)
            snapshot = list(self._policies.values())
        self._broadcast_policies(snapshot)

    def _broadcast_policies(self, snapshot: List[SubscriptionPolicy]) -> None:
        targets = [
            handle
            for handle in self._handles.values()
            if handle.ready.is_set() and not handle.failed
        ]
        if self._snap_writer is not None:
            payload = pickle.dumps(snapshot)
            try:
                generation = self._snap_writer.publish(payload)
            except ValueError:
                # Oversize snapshot: this publish takes the pipe path.
                get_counter("server.policy.shm_fallback").incr()
            else:
                get_counter("server.policy.shm_publish").incr()
                get_gauge("server.policy.generation").set(generation)
                for handle in targets:
                    handle.send(("policy_gen", generation))
                return
        # Pickle the full message once; every pipe gets the same buffer.
        wire = pickle.dumps(("policies", snapshot))
        get_counter("server.policy.pickle_bytes").incr(len(wire) * len(targets))
        for handle in targets:
            handle.send_pickled(wire)

    # -- supervision -------------------------------------------------

    def _supervise(self) -> None:
        """Bounded-blocking supervision loop (RL004-audited).

        Drains worker pipes (stats, ready, bye), detects dead workers
        by liveness *and* pipe EOF, and respawns them with the current
        policy snapshot — the snapshot republication that makes worker
        crash recovery invisible to iApps.
        """
        while self._running:
            handles = list(self._handles.values())
            conns = [h.conn for h in handles if not h.closed and not h.failed]
            if not conns:
                time.sleep(0.05)
                continue
            try:
                readable = multiprocessing.connection.wait(conns, timeout=0.1)
            except OSError:
                readable = []
            by_conn = {id(h.conn): h for h in handles}
            for conn in readable:
                handle = by_conn.get(id(conn))
                if handle is None:
                    continue
                try:
                    msg = conn.recv()  # repro-lint: disable=RL004 — bounded by connection.wait above
                except (EOFError, OSError):
                    self._worker_died(handle)
                    continue
                self._handle_message(handle, msg)
            for handle in list(self._handles.values()):
                if (
                    not handle.closed
                    and not handle.failed
                    and not handle.process.is_alive()
                ):
                    self._worker_died(handle)

    def _handle_message(self, handle: _WorkerHandle, msg: tuple) -> None:
        kind = msg[0]
        if kind == "ready":
            get_gauge(f"server.worker.{handle.index}.alive").set(1)
            handle.ready.set()
            # Republication on (re)attach: the worker was forked with a
            # snapshot, but a policy published between fork and ready
            # would be lost without this explicit sync.  With the shm
            # segment active the sync is a generation nudge — the
            # respawned worker reads the segment the parent still
            # holds, so the generation survives any worker death.
            writer = self._snap_writer
            if writer is not None and writer.generation > 0:
                handle.send(("policy_gen", writer.generation))
                return
            with self._lock:
                snapshot = list(self._policies.values())
            if snapshot:
                wire = pickle.dumps(("policies", snapshot))
                get_counter("server.policy.pickle_bytes").incr(len(wire))
                handle.send_pickled(wire)
        elif kind == "need_policies":
            # Worker could not serve itself from the shm segment
            # (unreadable, torn, or unpicklable payload): answer with
            # the pickled pipe path, loudly counted.
            with self._lock:
                snapshot = list(self._policies.values())
            wire = pickle.dumps(("policies", snapshot))
            get_counter("server.policy.pickle_bytes").incr(len(wire))
            handle.send_pickled(wire)
        elif kind == "stats":
            _kind, _index, seq, payload = msg
            with self._stats_cond:
                handle.stats = payload
                if seq is not None and seq > handle.stats_seq:
                    handle.stats_seq = seq
                self._stats_cond.notify_all()
        # "bye" needs no action: liveness reaping handles the exit.

    def _worker_died(self, handle: _WorkerHandle) -> None:
        """Reap a dead worker and respawn its slot (bounded)."""
        if handle.closed or handle.failed:
            return
        handle.closed = True
        get_gauge(f"server.worker.{handle.index}.alive").set(0)
        handle.process.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        if not self._running:
            return
        get_counter("server.worker.restarts").incr()
        if handle.respawns + 1 > RESPAWN_LIMIT:
            get_counter("server.worker.giveup").incr()
            handle.failed = True
            return
        replacement = self._spawn(handle.index)
        replacement.respawns = handle.respawns + 1
        self._handles[handle.index] = replacement

    def kill_worker(self, index: int) -> int:
        """Test/chaos hook: SIGKILL a worker; returns the killed pid."""
        handle = self._handles[index]
        pid = handle.process.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    @property
    def restarts(self) -> int:
        return sum(h.respawns for h in self._handles.values())

    # -- accept-and-hand-off fallback --------------------------------

    def _pick_worker(self) -> Optional[_WorkerHandle]:
        """Round-robin over live, ready workers."""
        candidates = [
            h
            for h in self._handles.values()
            if h.ready.is_set() and not h.closed and not h.failed
        ]
        if not candidates:
            return None
        return candidates[next(self._rr) % len(candidates)]

    def _accept_loop(self) -> None:
        """Bounded-blocking central accept loop (no-reuseport fallback).

        The listener carries a 0.2 s accept timeout so the loop
        observes ``stop()`` promptly; each accepted socket is handed to
        one worker via fd passing and closed locally (the worker holds
        its own duplicated fd).
        """
        sock = self._accept_sock
        while self._running:
            try:
                conn_sock, _addr = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            handle = self._pick_worker()
            if handle is None:
                conn_sock.close()
                continue
            try:
                from multiprocessing import reduction

                with handle.send_lock:
                    handle.conn.send(("socket",))
                    reduction.send_handle(
                        handle.conn, conn_sock.fileno(), handle.process.pid
                    )
                get_counter("server.worker.handoff").incr()
            except (OSError, BrokenPipeError):
                pass
            finally:
                conn_sock.close()

    # -- merged stats ------------------------------------------------

    def stats(self, refresh: bool = True, timeout_s: float = 2.0) -> Dict[int, dict]:
        """Per-worker stats snapshots, freshly requested by default."""
        if refresh:
            seq = next(self._stats_seq)
            targets = [
                h
                for h in self._handles.values()
                if h.ready.is_set() and not h.closed and not h.failed
            ]
            for handle in targets:
                handle.send(("stats", seq))
            deadline = time.monotonic() + timeout_s
            with self._stats_cond:
                while any(h.stats_seq < seq for h in targets if not h.closed):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._stats_cond.wait(timeout=min(remaining, 0.05))
        with self._lock:
            return {
                index: dict(handle.stats)
                for index, handle in self._handles.items()
                if handle.stats
            }

    def total_indications(self, refresh: bool = True) -> int:
        return sum(
            s.get("indications", 0) for s in self.stats(refresh=refresh).values()
        )

    def agents_total(self, refresh: bool = True) -> int:
        return sum(s.get("agents", 0) for s in self.stats(refresh=refresh).values())

    def merged_counters(self, refresh: bool = True) -> Dict[str, int]:
        """Counters summed across workers (monotonic, so sums compose)."""
        merged: Dict[str, int] = {}
        for stats in self.stats(refresh=refresh).values():
            for name, value in stats.get("counters", {}).items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def metrics_snapshot(self, refresh: bool = True) -> dict:
        """One JSON-able fleet view: merged counters + per-worker gauges.

        Gauges are point-in-time per process, so they are namespaced
        ``worker.<i>.<name>`` rather than summed (a depth of 3 in one
        worker and 5 in another is not a depth of 8 anywhere).
        """
        per_worker = self.stats(refresh=refresh)
        gauges = {}
        for index, stats in per_worker.items():
            for name, value in stats.get("gauges", {}).items():
                gauges[f"worker.{index}.{name}"] = value
        return {
            "workers": {
                index: {
                    k: v for k, v in stats.items() if k not in ("counters", "gauges")
                }
                for index, stats in per_worker.items()
            },
            "counters": self._merge_counter_stats(per_worker),
            "gauges": gauges,
        }

    @staticmethod
    def _merge_counter_stats(per_worker: Dict[int, dict]) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for stats in per_worker.values():
            for name, value in stats.get("counters", {}).items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def overload_state(self, refresh: bool = True) -> dict:
        """Fleet-wide analogue of :meth:`Server.overload_state`.

        Same shape as the single-process snapshot (drops, admission
        rejects, queue gauges) so the northbound ``/metrics/overload``
        route and :class:`StatsMonitorIApp` can serve either.
        """
        per_worker = self.stats(refresh=refresh)
        counters = self._merge_counter_stats(per_worker)
        queues = {}
        for index, stats in per_worker.items():
            for name, value in stats.get("gauges", {}).items():
                if name.startswith("queue."):
                    queues[f"worker.{index}.{name}"] = value
        return {
            "enabled": self.config.overload is not None,
            "workers": sum(
                1
                for h in self._handles.values()
                if not h.closed and not h.failed and h.process.is_alive()
            ),
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
                "state": None,  # admission state is per-worker; see stats()
            },
            "queues": queues,
        }

    # -- context manager ---------------------------------------------

    def __enter__(self) -> "MultiProcServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
