"""In-memory spans recorded from the harness's own side of each boundary.

A span row is ``(id, parent, name, start, end, nb_id, sequence, n)``:
``parent`` is the id of the span that was open on the same thread when
this one started (0 = none), ``(nb_id, sequence)`` is the identifier a
message carries through both processes, and ``n`` is how many messages
the span covered (a drained batch is one ``ric.deliver`` span).  Times
are ``time.perf_counter()`` — ``CLOCK_MONOTONIC`` on Linux, one clock
for both processes — so rows from the RAN and the RIC process merge
into one timeline.  Nothing is written until the run is over.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Sequence, Tuple

Row = Tuple[int, int, str, float, float, int, int, int]
FIELDS = ("id", "parent", "name", "start", "end", "nb_id", "sequence", "n")
#: rows one process keeps per traced phase; past it spans are dropped,
#: which only the flood's closed window (100 000 spans a second) reaches.
MAX_ROWS = 150_000


class SpanLog:
    """Append-only span store; one per process, shared by its threads."""

    def __init__(self, id_base: int = 0) -> None:
        self.rows: List[Row] = []
        #: ``next()`` on a count is atomic under the GIL, so ids stay
        #: unique across the shard threads without a lock.
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()

    def open(self) -> int:
        """Start a parent span on this thread; returns its id."""
        span_id = next(self._ids)
        self._local.parent = span_id
        self._local.first = None
        return span_id

    def close(self, span_id: int, name: str, start: float, n: int = 1) -> None:
        """Finish the span :meth:`open` started; it takes the identifier
        of the first child recorded under it."""
        end = perf_counter()
        nb_id, sequence = self._local.first or (0, -1)
        self._local.parent = 0
        if len(self.rows) < MAX_ROWS:
            self.rows.append((span_id, 0, name, start, end, nb_id, sequence, n))

    def child(self, name: str, start: float, nb_id: int, sequence: int) -> None:
        """Record a finished span under this thread's open parent."""
        end = perf_counter()
        local = self._local
        parent = getattr(local, "parent", 0)
        if parent and local.first is None:
            local.first = (nb_id, sequence)
        if len(self.rows) < MAX_ROWS:
            self.rows.append((next(self._ids), parent, name, start, end, nb_id, sequence, 1))

    def drain(self) -> List[Row]:
        rows, self.rows = self.rows, []
        return rows


def self_times(rows: Sequence[Row]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    covered: Dict[int, float] = defaultdict(float)
    for row in rows:
        if row[1]:
            covered[row[1]] += row[4] - row[3]
    return {row[0]: (row[4] - row[3]) - covered.get(row[0], 0.0) for row in rows}


def by_name(rows: Iterable[Row]) -> Dict[str, List[Row]]:
    grouped: Dict[str, List[Row]] = defaultdict(list)
    for row in rows:
        grouped[row[2]].append(row)
    return grouped


def write(path: Path, workload: str, rows: Sequence[Row]) -> None:
    """Dump the merged timeline, oldest span first."""
    ordered = sorted(rows, key=lambda row: row[3])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": workload, "fields": FIELDS, "spans": ordered},
            handle,
            separators=(",", ":"),
        )
