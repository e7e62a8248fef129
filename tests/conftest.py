"""Test-suite wiring for the invariant analysis runtime.

With ``REPRO_ANALYSIS=1`` (the CI ``race-detect`` job) the suite runs
under the race instrumentation of :mod:`repro.analysis.runtime`:
``threading.Lock``/``RLock`` created by repro code are replaced with
tracked wrappers feeding the global lock-order graph, and any test
that leaves a lock-order inversion behind **fails deterministically**
via the autouse guard below.

Installation happens at conftest import — before any test module
imports repro — so every lock created by Server/SubscriptionManager/
transport instances is tracked.  Without the flag this module is a
no-op and the suite runs exactly as before.
"""

import os

import pytest

_ANALYSIS = os.environ.get("REPRO_ANALYSIS", "") in ("1", "true", "yes")

if _ANALYSIS:
    from repro.analysis import runtime

    runtime.install()


@pytest.fixture(autouse=True)
def _lock_order_guard():
    """Fail any test that recorded a lock-order inversion."""
    if not _ANALYSIS:
        yield
        return
    from repro.analysis import runtime

    runtime.drain_violations()  # discard anything a previous test left
    yield
    violations = runtime.drain_violations()
    if violations:
        details = "\n".join(v.describe() for v in violations)
        pytest.fail(
            f"lock-order inversion(s) detected by REPRO_ANALYSIS:\n{details}",
            pytrace=False,
        )
