"""repro-lint configuration: scopes and repo-specific knobs.

Kept as plain data so fixture tests can build alternative configs and
so the rule catalog in DESIGN.md §12 has one authoritative source for
"where does this rule apply".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

#: every analyzable tree, relative to the repo root.
ALL_ROOTS: Tuple[str, ...] = ("src", "tests", "benchmarks", "examples")

#: production code only (rules about runtime invariants).
SRC: Tuple[str, ...] = ("src/repro/",)

#: everything (rules about universally wrong constructs).
EVERYWHERE: Tuple[str, ...] = ("",)

#: zero-copy data-plane modules (RL007): the framing/transport/codec
#: hot path where one stray ``bytes(...)`` re-introduces a per-message
#: O(payload) copy (DESIGN.md §15).
HOT_PATH: Tuple[str, ...] = (
    "src/repro/core/transport/framing.py",
    "src/repro/core/transport/tcp.py",
    "src/repro/core/transport/inproc.py",
    "src/repro/core/codec/per.py",
    "src/repro/core/codec/flat.py",
    "src/repro/core/codec/protobuf.py",
)


@dataclass(frozen=True)
class LintConfig:
    """Tunable surface of the analyzer."""

    #: path-prefix scope per rule code (matched against the
    #: forward-slash path relative to the repo root).
    rule_scopes: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "RL001": EVERYWHERE,
            "RL002": SRC,
            "RL004": SRC,
            "RL005": SRC,
            "RL006": EVERYWHERE,
            "RL007": HOT_PATH,
        }
    )

    #: function names that implement selector/dispatch loops;
    #: blocking calls inside them must be bounded by a timeout (RL004).
    #: The §14 multiprocess tier adds two more long-lived loops: a
    #: worker process's one loop (``_worker_loop``: it steps the TCP
    #: transport and serves the control pipe between steps) and the
    #: parent supervision loop (``_supervise``) — an unbounded block in
    #: either would wedge crash detection or shutdown.
    loop_functions: FrozenSet[str] = frozenset(
        {
            "_run",
            "_poll",
            "_worker_loop",
            "_supervise",
        }
    )

    #: blocking call names RL004 audits inside loop functions.
    #: ``poll`` covers multiprocessing.Connection.poll — the §14 pipe
    #: protocol's equivalent of select().
    blocking_calls: FrozenSet[str] = frozenset(
        {"select", "wait", "get", "join", "acquire", "recv", "poll"}
    )

    #: files that MUST contain a generated region (RL006): hand-rolled
    #: replacements of generated artifacts are flagged even when the
    #: author also deleted the markers.
    generated_required: Tuple[str, ...] = (
        "src/repro/core/codec/kernel_manifest.py",
    )


DEFAULT_CONFIG = LintConfig()
