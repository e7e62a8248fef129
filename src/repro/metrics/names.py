"""Central registry of metric instrument names.

Every counter/gauge/histogram name used in ``src/repro`` must be
declared here, either verbatim or as a pattern with ``{placeholder}``
segments for names built with f-strings (connection and node labels,
disconnect-reason codes).  ``repro-lint`` rule RL005 checks call sites
against this registry — the static guard against the stale-gauge /
typo'd-counter class of bugs PR 3 fixed once (a metric incremented
under one name and asserted or exported under another is invisible at
runtime until a dashboard reads zeros).

Adding an instrument is a two-line change: use it at the call site and
declare it here; retiring one deletes both, since RL005 also flags a
declaration no call site emits.  The declaration is also the natural
place to grep for "what can this process export".
"""

from __future__ import annotations

from typing import Iterable, Tuple

#: exact counter names.
COUNTERS = frozenset(
    {
        # decode containment (shared by SMs, agent and server paths)
        "decode.contained",
        # codec kernels (codegen hit/deopt accounting)
        "codec.kernel.encode_hits",
        "codec.kernel.encode_fallbacks",
        "codec.kernel.decode_hits",
        "codec.kernel.decode_fallbacks",
        # flat-codec bounded caches
        "codec.flat.dir_cache.evictions",
        "codec.flat.list_cache.evictions",
        # server lifecycle / ingest
        "server.rx.frames",
        "server.rx.decode_error",
        "server.iapp.callback_error",
        "server.node.stale",
        "server.node.recovered",
        "server.node.expired",
        "server.keepalive.sent",
        "server.keepalive.dead",
        "server.liveness.errors",
        # overload discipline (DESIGN.md §13)
        "overload.drop.indication",
        "server.admission.reject.setup",
        "server.admission.reject.subscription",
        "server.admission.slow_start",
        # agent lifecycle
        "agent.reconnect.attempt",
        "agent.reconnect.success",
        "agent.reconnect.giveup",
        "agent.reconnect.connect_timeout",
        "agent.journal.replayed",
        "agent.indications.dropped",
        "agent.rx.decode_error",
        "agent.tx.reply_failed",
        # transports
        "tcp.connect.timeout",
        "tcp.close.eof",
        "tcp.close.framing",
        # loud-teardown accounting
        "transport.stop.stuck",
        # multiprocess ingest supervisor (DESIGN.md §14)
        "server.worker.spawned",
        "server.worker.restarts",
        "server.worker.giveup",
        "server.policy.indications",
        "server.policy.pickle_bytes",
        # zero-copy data plane (DESIGN.md §15)
        "bytes.copied",
        "encode.reuse",
        "server.subscription.shared",
        "e2ap.encode.messages",
        "tcp.send.vectored",
        # fault injection
        "faulty.drop",
        "faulty.corrupt",
        "faulty.truncate",
        "faulty.delay",
        "faulty.reorder",
        "faulty.dup",
        "faulty.kill",
    }
)

#: counter name patterns ({} segments are runtime-formatted).
COUNTER_PATTERNS: Tuple[str, ...] = (
    # close-cause accounting (DisconnectReason.code)
    "tcp.close.{code}",
    # overload shed accounting (connection label)
    "overload.conn.{conn}.drops",
    # per-tenant fair-share refusals (tenant name)
    "overload.tenant.{tenant}.ind_drops",
    "overload.tenant.{tenant}.ctrl_rejects",
)

#: exact gauge names.
GAUGES = frozenset({"server.workers"})

#: gauge name patterns.
GAUGE_PATTERNS: Tuple[str, ...] = (
    # multiprocess worker liveness (worker index)
    "server.worker.{index}.alive",
    # per-link lifecycle state (node label, origin id)
    "agent.{node}.link.{origin}.state",
    # bounded-queue pressure accounting (queue scope)
    "queue.{scope}.depth",
    "queue.{scope}.hwm",
    # per-tenant fair-share bucket levels (tenant name)
    "overload.tenant.{tenant}.tokens",
)

#: exact histogram names.
HISTOGRAMS = frozenset(set())

#: histogram name patterns.
HISTOGRAM_PATTERNS: Tuple[str, ...] = (
    # per-stage procedure latency (stage vocabulary of DESIGN.md §9)
    "trace.{stage}",
)

_BY_KIND = {
    "counter": (COUNTERS, COUNTER_PATTERNS),
    "gauge": (GAUGES, GAUGE_PATTERNS),
    "histogram": (HISTOGRAMS, HISTOGRAM_PATTERNS),
}


def _pattern_pieces(pattern: str) -> Tuple[str, ...]:
    """Literal pieces around ``{...}`` placeholders."""
    pieces = []
    rest = pattern
    while True:
        open_at = rest.find("{")
        if open_at < 0:
            pieces.append(rest)
            return tuple(pieces)
        close_at = rest.find("}", open_at)
        if close_at < 0:
            pieces.append(rest)
            return tuple(pieces)
        pieces.append(rest[:open_at])
        rest = rest[close_at + 1 :]


def declared(kind: str, name: str) -> bool:
    """Is an exact ``name`` declared for instrument ``kind``?"""
    exact, patterns = _BY_KIND[kind]
    if name in exact:
        return True
    return any(_match_pieces(_pattern_pieces(p), (name,)) for p in patterns)


def declared_parts(kind: str, literal_parts: Iterable[str]) -> bool:
    """Match an f-string by its literal pieces against the patterns.

    ``f"overload.conn.{c}.drops"`` has literal pieces
    ``("overload.conn.", ".drops")``; it is declared iff some pattern has
    the same pieces around its placeholders.
    """
    parts = tuple(literal_parts)
    exact, patterns = _BY_KIND[kind]
    if len(parts) == 1 and parts[0] in exact:
        return True
    return any(_pattern_pieces(p) == parts for p in patterns)


def match_declared(declaration: str, use: object) -> bool:
    """Does one call-site name match ``declaration``?  ``use`` is a
    literal name, or an f-string's literal pieces as a tuple."""
    pieces = _pattern_pieces(declaration)
    if isinstance(use, tuple):
        return use == pieces
    return use == declaration or (len(pieces) > 1 and _match_pieces(pieces, (use,)))


def _match_pieces(pieces: Tuple[str, ...], name_parts: Tuple[str, ...]) -> bool:
    """Does a concrete name match a pattern's literal pieces?"""
    if len(name_parts) != 1:
        return False
    name = name_parts[0]
    if not pieces:
        return False
    if not name.startswith(pieces[0]):
        return False
    pos = len(pieces[0])
    for piece in pieces[1:]:
        if piece == "":
            pos = len(name)
            continue
        found = name.find(piece, pos + 1)
        if found < 0:
            return False
        pos = found + len(piece)
    return pos <= len(name)
