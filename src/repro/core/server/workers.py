"""Multiprocess ingest: N worker processes behind one port (§14).

Loops in one interpreter share one interpreter lock and buy nothing
(DESIGN.md §10), so parallelism here is a matter of processes:
:class:`MultiProcServer` forks ``workers`` worker *processes*, each
owning a complete :class:`~repro.core.server.server.Server` — its own
one-loop ``TcpTransport``, its own overload :class:`QueuePressure`,
its own metrics registry — plus an ``SO_REUSEPORT`` listener on the
shared port so the kernel spreads incoming E2 connections across
workers with no userspace coordination.  A worker process is one
thread: :func:`_worker_loop` steps the transport inline and serves
the control pipe between steps.

Coordination that *is* needed flows over one duplex pipe per worker:

* **control** (parent → worker): declarative
  :class:`SubscriptionPolicy` routing snapshots.  A policy is
  *replaced, never mutated*; the parent sends the full current set on
  every change and to every worker that reports ready (spawned or
  respawned), and each worker applies it against its local
  subscription state.
* **stats** (worker → parent): counter/gauge snapshots, sent only in
  answer to a numbered request, which the parent merges into one
  :meth:`overload_state` / ``/metrics`` view, so dashboards see the
  fleet as one server.

The tier needs Linux: ``SO_REUSEPORT`` to share the port and the
``fork`` start method to hand each worker its configuration.  Without
``SO_REUSEPORT`` :meth:`MultiProcServer.start` raises before it forks
anything.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.e2ap.ies import RicActionDefinition
from repro.core.server import events as topics
from repro.core.server.server import Server, ServerConfig
from repro.core.server.submgr import SubscriptionCallbacks, SubscriptionRecord
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

#: a worker serves its control pipe (and checks for orphaning) at
#: most this often, between steps of its TCP loop.
_PIPE_S = 0.05


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

    Keeps what :meth:`Server.subscribe` returned per (node, policy) so
    a republished snapshot (the parent always sends the full set) is
    idempotent, and a policy that left it is unsubscribed.  Indications
    delivered through policy subscriptions are counted in
    ``server.policy.indications`` — the number the parent aggregates
    for the throughput view.  Every call runs on the worker's one loop
    thread, so nothing here is locked.
    """

    def __init__(self, server: Server) -> None:
        self._server = server
        self._policies: Dict[int, SubscriptionPolicy] = {}
        #: (node key, policy id) -> its subscription.
        self._records: Dict[Tuple[str, int], SubscriptionRecord] = {}
        self._ind_counter = get_counter("server.policy.indications")
        server.events.subscribe(topics.AGENT_CONNECTED, self._apply_to)
        server.events.subscribe(topics.NODE_RECOVERED, self._apply_to)
        server.events.subscribe(topics.FUNCTIONS_UPDATED, self._on_functions)
        server.events.subscribe(topics.AGENT_DISCONNECTED, self._on_gone)

    def set_policies(self, policies: List[SubscriptionPolicy]) -> None:
        self._policies = {p.policy_id: p for p in policies}
        for pair in [pair for pair in self._records if pair[1] not in self._policies]:
            self._drop(self._records.pop(pair))
        for agent in self._server.agents():
            self._apply_to(agent)

    def _on_functions(self, payload) -> None:
        # A RAN function added at runtime (RIC service update).
        self._apply_to(payload[0])

    def _on_gone(self, record) -> None:
        # AGENT_DISCONNECTED is the *terminal* exit (a stale node in
        # its grace window publishes NODE_STALE instead and keeps its
        # parked policy subscriptions for adopt-on-recovery); the
        # server has already retired this node's records.
        key = self._node_key(record)
        for pair in [pair for pair in self._records if pair[0] == key]:
            del self._records[pair]

    @staticmethod
    def _node_key(record) -> str:
        return str(getattr(record, "node_id", ""))

    def _drop(self, record) -> None:
        try:
            self._server.unsubscribe(record)
        except OSError:
            # No live link (a stale node's parked record, or a send
            # that failed): retire it here so a recovery does not
            # adopt it.
            self._server.submgr.remove(record.request)

    def _apply_to(self, record) -> None:
        conn_id = getattr(record, "conn_id", None)
        if conn_id is None:
            return
        # Keyed by node identity, not conn id: a node re-attaching
        # inside its grace window gets its parked subscriptions adopted
        # by the server, so re-applying the policy there would
        # double-subscribe it.
        key = self._node_key(record)
        for policy in self._policies.values():
            pair = (key, policy.policy_id)
            if pair in self._records or policy.ran_function_id not in record.functions:
                continue
            try:
                self._records[pair] = self._server.subscribe(
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
                continue

    def _on_indication(self, event) -> None:
        self._ind_counter.incr()


def _stats_payload(server: Server) -> dict:
    """One stats reply payload."""
    counters = counter_values()
    return {
        "pid": os.getpid(),
        "agents": len(server.agents()),
        "subscriptions": len(server.submgr) - server.submgr.parked_count,
        "indications": counters.get("server.policy.indications", 0),
        "counters": {k: v for k, v in counters.items() if v},
        "gauges": gauge_values(),
    }


def _worker_main(index: int, host: str, port: int, config: ServerConfig, conn) -> None:
    """Entry point of one worker process.

    Builds a complete single-process server, binds its own reuseport
    listener on the shared port, reports ready (the parent answers with
    the routing-policy snapshot), then runs :func:`_worker_loop` on
    this, the process's only thread, until told to stop or orphaned.
    """
    # The forked registry carries the parent's pre-fork values; the
    # worker's stats must start from zero or the merged view
    # double-counts everything the parent did before the fork.
    reset_all()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates shutdown
    server = Server(config)
    transport = TcpTransport(
        reuseport=True,
        overload=server.overload,
        classify=server._classify,
    )
    server.listen(transport, f"{host}:{port}")
    manager = _PolicyManager(server)
    try:
        conn.send(("ready", index, port))
    except (OSError, BrokenPipeError):
        return
    _worker_loop(index, server, transport, manager, conn)


def _worker_loop(
    index: int,
    server: Server,
    transport: TcpTransport,
    manager: _PolicyManager,
    conn,
) -> None:
    """The worker's one loop: its TCP I/O and its pipe.

    Each pass steps the transport inline (``_poll`` also runs the
    liveness ``on_tick``).  At most every :data:`_PIPE_S` — one clock
    read per step decides — it checks for orphaning and serves the
    commands the pipe holds, so a flooded worker still answers within
    one pipe period and pays no extra syscall per wake-up.  A stats
    reply ends the pipe pass: a parent that asks again at once gets
    its next answer after at least one more period of I/O, never a
    copy of the last one.
    """
    parent_pid = os.getppid()
    next_pipe = 0.0
    running = True
    while running:
        transport.step(_PIPE_S)
        now = time.monotonic()
        if now < next_pipe:
            continue
        next_pipe = now + _PIPE_S
        if os.getppid() != parent_pid:
            break  # orphaned: the supervisor died without a stop
        try:
            while conn.poll(0):
                msg = conn.recv()  # bounded by the poll(0) above
                if msg[0] == "stop":
                    running = False
                    break
                if msg[0] == "policies":
                    manager.set_policies(list(msg[1]))
                    continue
                # ("stats", seq): the reply ends the pass.
                conn.send(("stats", index, msg[1], _stats_payload(server)))
                break
        except (OSError, EOFError):
            break
    server.close()
    transport.stop()
    try:
        conn.send(("bye", index))
        conn.close()
    except (OSError, BrokenPipeError):
        pass


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
    """Supervisor for ``workers`` single-process servers.

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
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"MultiProcServer needs workers >= 1, got {workers}")
        self.config = config
        self.workers = workers
        self._host = host
        self._requested_port = port
        self._ctx = multiprocessing.get_context("fork")
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
        self._supervisor: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------

    def start(self, ready_timeout_s: float = 15.0) -> None:
        """Reserve the port, fork the workers, wait until all listen."""
        if self._running:
            return
        if not tcp_mod.reuseport_available():
            raise RuntimeError(
                "MultiProcServer needs SO_REUSEPORT to share its port across workers"
            )
        _install_fork_guard()
        self._running = True
        self._reserve_sock = self._reserve_port()
        get_gauge("server.workers").set(self.workers)
        for index in range(self.workers):
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

    def _reserve_port(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self._host, self._requested_port))
        self._port = sock.getsockname()[1]
        return sock

    def _spawn(self, index: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, self._host, self._port, self.config, child_conn),
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
        if self._reserve_sock is not None:
            try:
                self._reserve_sock.close()
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
        self._broadcast_policies()
        return policy

    def unsubscribe_all(self, policy_id: int) -> None:
        """Withdraw one policy; every worker unsubscribes its nodes."""
        with self._lock:
            self._policies.pop(policy_id, None)
        self._broadcast_policies()

    def _broadcast_policies(
        self, targets: Optional[List[_WorkerHandle]] = None
    ) -> None:
        """Send the current snapshot to ``targets`` (every ready worker
        by default)."""
        if targets is None:
            targets = [
                handle
                for handle in self._handles.values()
                if handle.ready.is_set() and not handle.failed
            ]
        with self._lock:
            msg = ("policies", list(self._policies.values()))
        for handle in targets:
            handle.send(msg)

    # -- supervision -------------------------------------------------

    def _supervise(self) -> None:
        """Bounded-blocking supervision loop.

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
                    msg = conn.recv()  # bounded by connection.wait above
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
            # A worker starts with no policies: every one, spawned or
            # respawned, gets the current snapshot when it is ready.
            self._broadcast_policies([handle])
        elif kind == "stats":
            _kind, _index, seq, payload = msg
            with self._stats_cond:
                handle.stats = payload
                if seq > handle.stats_seq:
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

    # -- merged stats ------------------------------------------------

    def stats(self, timeout_s: float = 2.0) -> Dict[int, dict]:
        """Per-worker stats snapshots, freshly requested from each worker.

        A worker that does not answer within ``timeout_s`` keeps its
        last reply in the view.
        """
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

    def total_indications(self) -> int:
        return sum(s.get("indications", 0) for s in self.stats().values())

    def agents_total(self) -> int:
        return sum(s.get("agents", 0) for s in self.stats().values())

    def merged_counters(self) -> Dict[str, int]:
        """Counters summed across workers (monotonic, so sums compose)."""
        return self._merge_counter_stats(self.stats())

    def metrics_snapshot(self) -> dict:
        """One JSON-able fleet view: merged counters + per-worker gauges.

        Gauges are point-in-time per process, so they are namespaced
        ``worker.<i>.<name>`` rather than summed (a depth of 3 in one
        worker and 5 in another is not a depth of 8 anywhere).
        """
        per_worker = self.stats()
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

    def overload_state(self) -> dict:
        """Fleet-wide analogue of :meth:`Server.overload_state`.

        Same shape as the single-process snapshot (drops, admission
        rejects, queue gauges) so the northbound ``/metrics/overload``
        route and :class:`StatsMonitorIApp` can serve either.
        """
        per_worker = self.stats()
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
