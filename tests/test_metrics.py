"""Unit tests for the measurement utilities."""

import math

import pytest

from repro.metrics import (
    CpuMeter,
    MemoryMeter,
    cdf,
    deep_sizeof,
    percentile,
    summarize,
)


class TestCpuMeter:
    def test_measure_accumulates(self):
        meter = CpuMeter("x", cores=4)
        with meter.measure():
            sum(range(10000))
        assert meter.busy_s > 0
        assert meter.sections == 1

    def test_charge(self):
        meter = CpuMeter("x", cores=4)
        meter.charge(0.5)
        meter.charge(0.25)
        assert meter.busy_s == pytest.approx(0.75)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CpuMeter("x").charge(-0.1)

    def test_normalized_percent(self):
        meter = CpuMeter("x", cores=8)
        meter.charge(0.4)
        sample = meter.sample(interval_s=1.0)
        assert sample.normalized_percent == pytest.approx(5.0)
        assert sample.single_core_percent == pytest.approx(40.0)

    def test_zero_interval(self):
        meter = CpuMeter("x", cores=1)
        meter.charge(1.0)
        assert meter.sample(0.0).normalized_percent == 0.0

    def test_reset(self):
        meter = CpuMeter("x")
        meter.charge(1.0)
        meter.reset()
        assert meter.busy_s == 0.0
        assert meter.sections == 0

    def test_measure_charges_on_exception(self):
        meter = CpuMeter("x")
        with pytest.raises(RuntimeError):
            with meter.measure():
                raise RuntimeError
        assert meter.busy_s > 0


class TestMemory:
    def test_deep_sizeof_counts_nested(self):
        flat = deep_sizeof([1, 2, 3])
        nested = deep_sizeof([[1, 2, 3], [4, 5, 6]])
        assert nested > flat

    def test_shared_objects_counted_once(self):
        shared = ["x" * 1000]
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof([shared])

    def test_objects_with_dict(self):
        class Holder:
            def __init__(self):
                self.data = "y" * 500

        assert deep_sizeof(Holder()) > 500

    def test_objects_with_slots(self):
        class Slotted:
            __slots__ = ("a",)

            def __init__(self):
                self.a = "z" * 300

        assert deep_sizeof(Slotted()) > 300

    def test_meter_baseline_plus_tracked(self):
        meter = MemoryMeter("m", baseline_bytes=1000)
        store = {}
        meter.track("store", lambda: store)
        empty = meter.measure_bytes()
        store["k"] = "v" * 10_000
        assert meter.measure_bytes() > empty + 9000
        assert empty >= 1000

    def test_breakdown(self):
        meter = MemoryMeter("m", baseline_bytes=10)
        meter.track("a", lambda: [1] * 100)
        breakdown = meter.breakdown()
        assert breakdown["baseline"] == 10
        assert breakdown["a"] > 0

    def test_untrack(self):
        meter = MemoryMeter("m")
        meter.track("a", lambda: "x" * 10_000)
        meter.untrack("a")
        assert meter.measure_bytes() == 0


class TestStats:
    def test_percentile_bounds(self):
        values = list(range(1, 101))
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        assert percentile(values, 50) == pytest.approx(50.5)

    def test_percentile_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_cdf_shape(self):
        points = cdf([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)), (3.0, 1.0)]

    def test_cdf_empty(self):
        assert cdf([]) == []

    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        assert summary.stdev == pytest.approx(math.sqrt(1.25))

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summary_row_format(self):
        row = summarize([1.0, 2.0]).row("ms")
        assert "mean=1.50 ms" in row


class TestInstrumentThreadSafety:
    """Hammer tests: the sharded ingest increments these instruments
    from several transport threads at once, so lost updates would show
    up as mysteriously-low counters in the scale harness."""

    THREADS = 8
    ITERS = 5_000

    def _hammer(self, worker):
        import threading

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_concurrent_incr_exact(self):
        from repro.metrics.counters import get_counter

        counter = get_counter("test.hammer.counter")
        counter.reset()
        self._hammer(lambda: [counter.incr() for _ in range(self.ITERS)])
        assert counter.value == self.THREADS * self.ITERS

    def test_counter_mixed_tick_and_bulk_incr_exact(self):
        from repro.metrics.counters import get_counter

        counter = get_counter("test.hammer.mixed")
        counter.reset()

        def worker():
            for n in range(self.ITERS):
                counter.incr()
                counter.incr(n % 3)  # 0, 1 (the lock-free tick) and 2 (the locked base)

        self._hammer(worker)
        assert counter.value == self.THREADS * (self.ITERS + sum(n % 3 for n in range(self.ITERS)))

    def test_counter_reset_then_incr_reads_the_new_total(self):
        from repro.metrics.counters import get_counter

        counter = get_counter("test.counter.reset")
        counter.incr()
        counter.incr(41)
        counter.reset()
        assert counter.value == 0
        counter.incr()
        counter.incr(5)
        assert counter.value == 6
        counter.reset()
        counter.reset()
        assert counter.value == 0
        counter.incr()
        assert counter.value == 1

    def test_counter_snapshot_and_repr_unchanged(self):
        from repro.metrics.counters import counter_values, get_counter, reset_counters

        counter = get_counter("test.counter.repr")
        reset_counters("test.counter.repr")
        for _ in range(3):
            counter.incr()
        counter.incr(4)
        assert counter_values()["test.counter.repr"] == 7
        assert type(counter_values()["test.counter.repr"]) is int
        assert repr(counter) == "Counter('test.counter.repr', value=7)"

    def test_gauge_concurrent_add_exact(self):
        from repro.metrics.counters import get_gauge

        gauge = get_gauge("test.hammer.gauge")
        gauge.set(0)
        self._hammer(lambda: [gauge.add(1) for _ in range(self.ITERS)])
        assert gauge.value == self.THREADS * self.ITERS

    def test_histogram_concurrent_observe_exact(self):
        from repro.metrics.counters import get_histogram

        histogram = get_histogram("test.hammer.histogram")
        histogram.reset()
        self._hammer(lambda: [histogram.observe(7.0) for _ in range(self.ITERS)])
        assert histogram.count == self.THREADS * self.ITERS
        assert sum(histogram.counts) == self.THREADS * self.ITERS

    def test_registry_creation_race_yields_one_instrument(self):
        import threading

        from repro.metrics.counters import get_counter

        results = []
        barrier = threading.Barrier(self.THREADS)

        def create():
            barrier.wait()
            results.append(get_counter("test.hammer.race"))

        threads = [threading.Thread(target=create) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(counter) for counter in results}) == 1
