"""Analysis-mode runtime: install/uninstall the race instrumentation.

:func:`install` patches ``threading.Lock``/``threading.RLock`` with
factories returning :class:`~repro.analysis.locks.TrackedLock` /
:class:`TrackedRLock` — but only for locks created from ``repro``
source files (the factory inspects the creating frame), so pytest,
logging and executor internals keep their original primitives and the
graph stays small and meaningful.  A ``threading.Condition()`` built
from repro code is attributed to the Condition's caller, so its
internal RLock is tracked too.

Wiring: ``tests/conftest.py`` installs when ``REPRO_ANALYSIS=1`` and
fails any test that left lock-order violations behind — the
``race-detect`` CI job runs the sharding and chaos suites this way.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import List, Optional

from repro.analysis import locks
from repro.analysis.locks import GRAPH, LockOrderViolation, TrackedLock, TrackedRLock

__all__ = [
    "enabled_by_env",
    "install",
    "installed",
    "uninstall",
    "drain_violations",
    "reset",
]

ENV_FLAG = "REPRO_ANALYSIS"

_ORIGINALS = {"Lock": threading.Lock, "RLock": threading.RLock}
_INSTALLED = [False]
#: path fragments whose frames count as "repro code" for lock
#: attribution.  ``<kernel`` covers generated codec kernels.
_SCOPE_FRAGMENTS = (os.sep + "repro" + os.sep, "<kernel")


def enabled_by_env() -> bool:
    return os.environ.get(ENV_FLAG, "") in ("1", "true", "yes")


def _creation_site() -> Optional[str]:
    """``path:lineno`` of the first non-threading frame below the
    factory, if it is repro code; None otherwise."""
    frame = sys._getframe(2)
    # Skip frames inside threading.py itself (Condition.__init__ calling
    # RLock()): attribute the lock to whoever built the Condition.
    threading_file = threading.__file__
    while frame is not None and frame.f_code.co_filename == threading_file:
        frame = frame.f_back
    if frame is None:
        return None
    filename = frame.f_code.co_filename
    for fragment in _SCOPE_FRAGMENTS:
        if fragment in filename:
            short = filename.split(os.sep + "src" + os.sep)[-1]
            return f"{short}:{frame.f_lineno}"
    return None


def _lock_factory():
    site = _creation_site()
    if site is None:
        return _ORIGINALS["Lock"]()
    return TrackedLock(site)


def _rlock_factory():
    site = _creation_site()
    if site is None:
        return _ORIGINALS["RLock"]()
    return TrackedRLock(site)


def install() -> None:
    """Enable lock tracking (idempotent)."""
    if _INSTALLED[0]:
        return
    _INSTALLED[0] = True
    threading.Lock = _lock_factory
    threading.RLock = _rlock_factory


def uninstall() -> None:
    """Restore original primitives; already-created tracked locks keep
    working (they wrap real primitives)."""
    if not _INSTALLED[0]:
        return
    _INSTALLED[0] = False
    threading.Lock = _ORIGINALS["Lock"]
    threading.RLock = _ORIGINALS["RLock"]


def installed() -> bool:
    return _INSTALLED[0]


def drain_violations() -> List[LockOrderViolation]:
    """Pop (and clear) all recorded lock-order violations."""
    return GRAPH.drain_violations()


def reset() -> None:
    """Clear the global acquisition graph and any pending violations."""
    GRAPH.reset()


# Re-exported for tests that build local graphs.
LockGraph = locks.LockGraph
