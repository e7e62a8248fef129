"""Compare run sets: ``python3 benchmarks/e2e/compare.py A.json [B.json ...]``.

Each file holds one or more run sets as ``run.py --json`` writes them.
The first set found is the base; every later set is compared with it,
per workload and end-to-end metric: median and quartiles of each side,
the ratio of the medians *with its base*, and a verdict —

* ``regressed``     the other side's median is worse by more than the bound
* ``improved``      it is better by more than the bound
* ``within-bound``  neither
* ``unresolved``    a side's own runs spread wider than the bound, so a
                    difference of that size cannot be told from noise

Exit code 1 if anything regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.metrics import BETTER, BOUNDS, END_TO_END, UNITS  # noqa: E402
from benchmarks.e2e.stats import quartiles  # noqa: E402


def load_sets(paths: Sequence[str]) -> List[dict]:
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for run_set in json.load(handle)["sets"]:
                sets.append(dict(run_set, source=f"{path}:{run_set['label']}"))
    return sets


def values(run_set: dict, workload: str, metric: str) -> List[float]:
    """One value per end-to-end (untraced) run of ``workload``."""
    return [
        run["metrics"][metric]
        for run in run_set["runs"]
        if run["workload"] == workload and not run["trace"]
    ]


def verdict(metric: str, base: Dict[str, float], other: Dict[str, float]) -> str:
    bound = BOUNDS[metric]
    if max(base["spread"], other["spread"]) > bound:
        return "unresolved"
    change = (other["median"] - base["median"]) / base["median"]
    worse = change if BETTER[metric] == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "within-bound"


def compare(base_set: dict, other_set: dict) -> List[dict]:
    rows = []
    workloads = sorted({run["workload"] for run in base_set["runs"]})
    for workload in workloads:
        for metric, _, _, bound in END_TO_END:
            ours, theirs = values(base_set, workload, metric), values(other_set, workload, metric)
            if not ours or not theirs:
                continue
            base, other = quartiles(ours), quartiles(theirs)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "bound": bound,
                    "base": base,
                    "other": other,
                    "runs": (len(ours), len(theirs)),
                    "ratio": other["median"] / base["median"],
                    "verdict": verdict(metric, base, other),
                }
            )
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':13s} {'metric':20s} {'base q1/median/q3':>34s} {'other q1/median/q3':>34s}"
        f" {'other/base':>16s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        base, other = row["base"], row["other"]
        unit = UNITS[row["metric"]]
        lines.append(
            f"{row['workload']:13s} {row['metric']:20s} "
            f"{base['q1']:10.2f}/{base['median']:10.2f}/{base['q3']:10.2f} {unit:>2s} "
            f"{other['q1']:10.2f}/{other['median']:10.2f}/{other['q3']:10.2f} {unit:>2s} "
            f"{row['ratio']:7.3f} of {base['median']:<9.2f} {row['bound']:5.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    sets = load_sets(argv)
    if len(sets) < 2:
        print("need at least two run sets to compare")
        return 2
    regressed = False
    for other in sets[1:]:
        rows = compare(sets[0], other)
        print(f"base {sets[0]['source']}  vs  {other['source']}")
        print(render(rows))
        regressed = regressed or any(row["verdict"] == "regressed" for row in rows)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
