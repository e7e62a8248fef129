"""Runtime race detector: the lock-order graph.

The acceptance demonstration for the analysis suite: a deliberately
inverted lock order is flagged deterministically (no deadlock needed).
Detector unit tests use *local* :class:`LockGraph` instances so
they neither require ``REPRO_ANALYSIS=1`` nor pollute the global graph
the conftest guard watches.
"""

import threading

import pytest

from repro.analysis import runtime
from repro.analysis.locks import LockGraph, TrackedLock, TrackedRLock


def _lock(graph, name):
    return TrackedLock(name, graph)


class TestLockOrderGraph:
    def test_consistent_order_is_clean(self):
        graph = LockGraph()
        a, b = _lock(graph, "a"), _lock(graph, "b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert graph.violations == []

    def test_abba_inversion_is_flagged_without_deadlock(self):
        """Both orders observed sequentially — no overlap, still flagged."""
        graph = LockGraph()
        a, b = _lock(graph, "lock-A"), _lock(graph, "lock-B")
        with a:
            with b:
                pass

        def inverted():
            with b:
                with a:
                    pass

        thread = threading.Thread(target=inverted)
        thread.start()
        thread.join()
        assert len(graph.violations) == 1
        violation = graph.violations[0]
        assert violation.held == "lock-B"
        assert violation.acquired == "lock-A"
        assert "lock-order inversion" in violation.describe()

    def test_three_lock_cycle_is_flagged(self):
        """A→B, B→C, then C→A closes the cycle transitively."""
        graph = LockGraph()
        a, b, c = _lock(graph, "a"), _lock(graph, "b"), _lock(graph, "c")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:
                pass
        assert len(graph.violations) == 1
        assert set(graph.violations[0].cycle) == {"a", "b", "c"}

    def test_reentrant_rlock_is_not_an_inversion(self):
        graph = LockGraph()
        r = TrackedRLock("r", graph)
        other = _lock(graph, "other")
        with r:
            with other:
                with r:  # reentrant: adds no ordering edge
                    pass
        # other→r must NOT have been recorded (it was a re-acquire).
        assert "r" not in graph.edges.get("other", set())
        assert graph.violations == []

    def test_same_instance_reacquire_adds_no_edge(self):
        graph = LockGraph()
        r = TrackedRLock("same", graph)
        with r:
            with r:
                pass
        assert graph.edges == {}

    def test_condition_on_tracked_rlock_keeps_wait_semantics(self):
        """Condition wait/notify over a tracked RLock works end to end."""
        graph = LockGraph()
        lock = TrackedRLock("cond-lock", graph)
        cond = threading.Condition(lock)
        hits = []

        def waiter():
            with cond:
                hits.append("waiting")
                cond.wait(timeout=5.0)
                hits.append("woken")

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = threading.Event()
        while "waiting" not in hits and not deadline.wait(0.005):
            pass
        with cond:
            cond.notify()
        thread.join(timeout=5.0)
        assert hits == ["waiting", "woken"]
        # wait() released the lock and re-acquired it; the thread-local
        # held stack must be balanced (no stale entries, no violations).
        assert graph.violations == []
        assert graph.held_sites() == []

    def test_drain_clears_violations(self):
        graph = LockGraph()
        a, b = _lock(graph, "a"), _lock(graph, "b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        assert len(graph.drain_violations()) == 1
        assert graph.drain_violations() == []


class TestInstall:
    def test_install_wraps_repro_locks_and_uninstall_restores(self):
        if runtime.installed():
            pytest.skip("REPRO_ANALYSIS already active for the whole session")
        from repro.core.server.submgr import SubscriptionManager

        original_lock = threading.Lock
        runtime.install()
        try:
            submgr = SubscriptionManager()
            assert isinstance(submgr._lock, TrackedRLock)
            # Locks created from non-repro frames stay native.
            assert not isinstance(threading.Lock(), TrackedLock)
        finally:
            runtime.uninstall()
            runtime.reset()
        assert threading.Lock is original_lock
        # Tracked locks created during the window keep functioning.
        with submgr._lock:
            pass

    def test_deliberate_inversion_fails_the_suite(self):
        """The wired-in guard turns an ABBA schedule into a failure:
        run one against the *global* graph and assert it was recorded
        (then drain so this test itself stays green)."""
        if runtime.installed():
            pytest.skip("covered by the guard itself under REPRO_ANALYSIS")
        graph = runtime.GRAPH
        a = TrackedLock("deliberate-A", graph)
        b = TrackedLock("deliberate-B", graph)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        violations = runtime.drain_violations()
        assert len(violations) == 1
        assert violations[0].acquired in ("deliberate-A", "deliberate-B")
