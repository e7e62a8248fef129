"""Invariant analysis suite: static lint + runtime race detector.

Throughput PRs replaced simple code with conventions that nothing
enforced: monotonic-clock deadlines, ``DECODE_ERRORS``-bounded
containment on the decode paths, and generated codec kernels that must
stay byte-equivalent to the interpretive oracle.  This package turns
those conventions into machine-checked contracts:

* :mod:`repro.analysis.lint` — **repro-lint**, an AST-based static
  analyzer (stdlib ``ast``, zero dependencies) with repo-specific
  rules, ``# repro-lint: disable=CODE`` pragmas, a JSON baseline for
  grandfathered findings, and a CLI (``python -m repro.analysis.lint``)
  that exits non-zero on new findings so it can gate CI and local runs
  alike.

* :mod:`repro.analysis.runtime` — test-time instrumentation: an
  instrumented ``threading.Lock``/``RLock`` that records the
  lock-acquisition graph and flags lock-order inversions across
  threads.  Enabled with ``REPRO_ANALYSIS=1`` (wired in
  ``tests/conftest.py``) so races surface as deterministic test
  failures instead of flaky benchmarks.

The rule catalog and the invariant each rule guards are documented in
DESIGN.md §12.
"""
