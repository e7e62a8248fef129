"""repro-lint scopes and repo-specific constants.

Plain data, so the rule catalog in DESIGN.md §12 has one authoritative
source for "where does this rule apply".
"""

from __future__ import annotations

from typing import Dict, Tuple

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

#: path-prefix scope per rule code (matched against the forward-slash
#: path relative to the repo root).
RULE_SCOPES: Dict[str, Tuple[str, ...]] = {
    "RL001": EVERYWHERE,
    "RL002": SRC,
    "RL005": SRC,
    "RL007": HOT_PATH,
}
