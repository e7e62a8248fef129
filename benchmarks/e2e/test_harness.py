"""Tests of the benchmark harness itself.

    python -m pytest benchmarks/e2e -q

Not part of tier-1 (``testpaths`` is ``tests``): the smoke runs start
real processes and take about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import compare, metrics, stats  # noqa: E402
from benchmarks.e2e.harness import WORKLOADS, RicError, RicProcess  # noqa: E402
from benchmarks.e2e.pacing import OpenLoop  # noqa: E402
from benchmarks.e2e.tracing import FIELDS  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- the declaration and the code agree ------------------------------------


def test_benchmark_json_matches_metric_tables():
    declared = _declared()
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == metrics.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in declared["workloads"]] == [cls.why for cls in WORKLOADS.values()]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in declared["end_to_end"])
    assert max(m["bound"] for m in declared["end_to_end"]) == metrics.BOUNDS["setup_s"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_named_metric(workload, trace):
    done = subprocess.run(
        RUN + ["--smoke", "--workload", workload, "--seed", "7", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [row[0] for row in expected]
    for name, unit, *_ in expected:
        entry = result["metrics"][name]
        assert entry["unit"] == unit, name
        assert math.isfinite(entry["value"]), name
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        with open(HERE / "results" / f"trace_{workload}.json", encoding="utf-8") as handle:
            trace_file = json.load(handle)
        assert trace_file["fields"] == list(FIELDS)
        rows = trace_file["spans"]
        assert any(row[1] for row in rows), "no span names a parent"
        ran = {(row[5], row[6]) for row in rows if row[2].startswith("ran.")}
        ric = {(row[5], row[6]) for row in rows if row[2].startswith("ric.")}
        assert ran & ric, "no identifier is shared by the two processes"


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, non-zero exit."""
    declared = _declared()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in declared["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "trace_*")
        )
    done = subprocess.run(
        declared["command"] + ["--workload", "hw_ping", "--seed", "1", "--seconds", "2", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=tmp_path,
        env={"PATH": os.environ.get("PATH", "")},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- order statistics -------------------------------------------------------


def test_percentile_interpolates():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0.0) == 10.0
    assert stats.percentile(values, 0.5) == 30.0
    assert stats.percentile(values, 1.0) == 50.0
    assert stats.percentile(values, 0.125) == pytest.approx(15.0)
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


class FixedSpeed:
    """Stands in for a SpeedProbe: speed as a function of the window."""

    def __init__(self, speed_of=lambda window: stats.REFERENCE_SPEED):
        self.speed_of = speed_of

    def speed(self, window=None):
        return self.speed_of(window)


def _five_windows():
    stamps, values = [], []
    for window in range(5):
        for i in range(100):
            stamps.append(window * 1.0 + i * 0.01)
            values.append(1.0 if i < 98 else 2.0)
    return stamps, values


def test_calm_quarter_ignores_bad_windows_but_not_the_program():
    reference = {"ric": FixedSpeed(), "ran": FixedSpeed()}
    stamps, values = _five_windows()
    calm = stats.scaled_pick(stats.per_window(stamps, values, 0.99), reference, "both", 0.25)
    for i in range(200, 500):  # three of five windows are hit by the host
        values[i] = 500.0
    hit = stats.scaled_pick(stats.per_window(stamps, values, 0.99), reference, "both", 0.25)
    assert hit == calm
    assert stats.percentile(values, 0.99) > 100  # the plain p99 would have moved
    for i in range(500):  # what the program does to every window still shows
        values[i] += 3.0
    slower = stats.scaled_pick(stats.per_window(stamps, values, 0.99), reference, "both", 0.25)
    assert slower == pytest.approx(calm + 3.0)


def test_windows_are_scaled_by_their_own_host_speed():
    stamps, values = _five_windows()
    halved = lambda window: stats.REFERENCE_SPEED / (2 if window[0] >= 2.0 else 1)  # noqa: E731
    for i in range(200, 500):  # the host halves its speed: everything takes twice as long
        values[i] *= 2
    speed = {"ric": FixedSpeed(halved), "ran": FixedSpeed(halved)}
    series = stats.per_window(stamps, values, 0.5)
    assert [value for _, value in series] == [1.0, 1.0, 2.0, 2.0, 2.0]
    assert stats.scaled_pick(series, speed, "both", 0.5) == pytest.approx(1.0)
    one_sided = {"ric": FixedSpeed(halved), "ran": FixedSpeed()}
    assert stats.scaled_pick(series, one_sided, "ric", 0.5) == pytest.approx(1.0)
    assert stats.scaled_pick(series, one_sided, "both", 0.75) == pytest.approx(2 / 2**0.5)


def test_short_tail_is_merged_and_silent_windows_are_left_out():
    assert stats.windows(0.0, 1.04) == [(0.0, 1.04)]
    assert stats.windows(0.0, 2.6) == [(0.0, 1.0), (1.0, 2.0), (2.0, 2.6)]
    series = [((0.0, 1.0), 5.0), ((1.0, 2.0), 7.0)]
    mute = {"ric": FixedSpeed(lambda w: None if w[0] else stats.REFERENCE_SPEED), "ran": FixedSpeed()}
    assert stats.scaled_pick(series, mute, "both", 0.5) == 5.0
    with pytest.raises(ValueError):
        stats.scaled_pick(series, {"ric": FixedSpeed(lambda w: None)}, "ric", 0.5)


def test_rates_per_window():
    marks = [(0.0, 0), (1.0, 100), (2.0, 300), (2.2, 310)]
    assert stats.rates_between(marks) == [((0.0, 1.0), 100.0), ((1.0, 2.0), 200.0)]
    stamps = [i * 0.01 for i in range(201)]
    (first, rate1), (second, rate2) = stats.rates_of(stamps)
    assert first == (0.0, 1.0) and rate1 == pytest.approx(100.0)
    assert rate2 == pytest.approx(101.0)


def test_speed_probe_samples_and_trims():
    probe = stats.SpeedProbe()
    for _ in range(40):
        probe.tick(time.perf_counter())
        probe.next_at = 0.0
    assert len(probe.durations) == 40
    speed = probe.speed()
    assert speed and speed > 1e6
    probe.durations[3] = 1.0  # a preempted sample must not drag the speed down
    assert probe.speed() == pytest.approx(speed, rel=0.2)
    assert probe.speed((0.0, 1.0)) is None  # nothing sampled back then
    detached = probe.snapshot()
    probe.reset()
    assert len(detached.durations) == 40 and len(probe.durations) == 0


def test_quartiles_spread():
    q = stats.quartiles([90, 95, 100, 100, 100, 105, 110, 100, 98, 102])
    assert q["median"] == 100
    assert q["spread"] == pytest.approx((q["q3"] - q["q1"]) / 100)


# -- the open-loop schedule -------------------------------------------------


class FakeTime:
    def __init__(self):
        self.now = 0.0

    def clock(self):
        self.now += 1e-6  # reading the clock takes a moment
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_stall_is_charged_to_latency_from_due_time():
    fake = FakeTime()
    loop = OpenLoop(
        0.001, start=0.010, clock=fake.clock, sleep=fake.sleep, relax=lambda: None
    )
    dues, sent_at = [], []
    for slot in range(100):
        dues.append(loop.next_due())
        if slot == 20:
            fake.now += 0.050  # the sender stalls for 50 ms
        sent_at.append(fake.now)
    # No slot was skipped or pushed back: due times are the fixed grid.
    assert dues == pytest.approx([0.010 + k * 0.001 for k in range(100)])
    latency = [sent - due for sent, due in zip(sent_at, dues)]
    assert max(latency[:20]) < 0.0002
    assert latency[21] == pytest.approx(0.049, abs=0.0005)  # the slot behind the stall waits
    assert latency[40] == pytest.approx(0.030, abs=0.001)  # and the backlog drains slot by slot
    assert max(latency[75:]) < 0.0002
    assert stats.percentile(list(loop.late), 0.99) > 0.045  # and the generator says so


# -- comparison verdicts ----------------------------------------------------


def _run_set(label, workload, **medians):
    runs = []
    for wobble in (0.99, 1.0, 1.01):
        metrics_ = {name: 100.0 for name, *_ in metrics.END_TO_END}
        metrics_.update({name: value * wobble for name, value in medians.items()})
        runs.append({"workload": workload, "trace": 0, "metrics": metrics_})
    return {"label": label, "runs": runs}


def test_compare_verdicts():
    base = _run_set("a", "hw_ping", latency_p50_us=400.0, rate_per_s=2000.0)
    same = _run_set("b", "hw_ping", latency_p50_us=410.0, rate_per_s=1990.0)
    worse = _run_set("c", "hw_ping", latency_p50_us=560.0, rate_per_s=1300.0)
    better = _run_set("d", "hw_ping", latency_p50_us=250.0, rate_per_s=3000.0)
    by_metric = lambda rows: {row["metric"]: row["verdict"] for row in rows}  # noqa: E731
    assert by_metric(compare.compare(base, same))["latency_p50_us"] == "within-bound"
    verdicts = by_metric(compare.compare(base, worse))
    assert verdicts["latency_p50_us"] == "regressed" and verdicts["rate_per_s"] == "regressed"
    verdicts = by_metric(compare.compare(base, better))
    assert verdicts["latency_p50_us"] == "improved" and verdicts["rate_per_s"] == "improved"
    noisy = _run_set("e", "hw_ping")
    noisy["runs"][0]["metrics"]["latency_p50_us"] = 40.0
    noisy["runs"][2]["metrics"]["latency_p50_us"] = 160.0
    assert by_metric(compare.compare(base, noisy))["latency_p50_us"] == "unresolved"


# -- process hygiene --------------------------------------------------------


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _spec(name: str = "hw_ping"):
    return WORKLOADS[name](seed=1).spec()


def test_child_is_reaped_when_it_crashes_mid_request():
    ric = RicProcess(_spec(), cpus=[])
    pid = ric.hello["pid"]
    try:
        ric.proc.kill()
        with pytest.raises(RicError):
            ric.request("wait_ready", timeout_s=1.0)
    finally:
        ric.close()
    assert ric.proc.returncode is not None and not _alive(pid)


def test_child_error_reaches_the_harness_and_child_survives():
    ric = RicProcess(_spec(), cpus=[])
    try:
        with pytest.raises(RicError, match="TimeoutError"):
            ric.request("wait_ready", timeout_s=0.05)  # no node ever connects
        assert ric.request("final")["subscriptions"] == 0
    finally:
        ric.close()
    assert ric.proc.returncode == 0


def test_child_dies_with_the_parent():
    script = (
        "import os, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]\n"
        "from benchmarks.e2e.harness import WORKLOADS, RicProcess\n"
        "ric = RicProcess(WORKLOADS['hw_ping'](seed=1).spec(), cpus=[])\n"
        "print(ric.hello['pid'], flush=True)\n"
        "os._exit(0)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    pid = int(done.stdout.strip())
    deadline = time.monotonic() + 10.0
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(pid)
