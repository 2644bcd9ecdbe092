"""Compare two sets of benchmark runs, per workload and metric.

    python3 benchmarks/perf/compare.py A1.txt A2.txt ... -- B1.txt B2.txt ...

Each file holds the standard output of one ``run.py`` run; set A is the
baseline.  For every (workload, metric) the table shows each set's
median and quartiles, B's change against A, and a verdict from the
metric's bound in BENCHMARK.json:

* ``unresolved`` — a set's quartile spread (as a share of its median)
  exceeds the bound, and not every B run reads better than every A run;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than A's spread,
  and B reads better in at least nine tenths of all (A run, B run)
  pairs;
* ``same`` — otherwise.

Metrics without a bound (the per-layer ones) get ``-``.  Exits 1 when
any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

Runs = Dict[Tuple[str, str], List[float]]


def load(paths: Sequence[str]) -> Runs:
    """(workload, metric) -> values, from saved ``run.py`` outputs."""
    runs: Runs = defaultdict(list)
    for path in paths:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            runs[detail["workload"], metric].append(entry["value"])
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: Optional[float]
) -> Tuple[float, str]:
    """B's relative change against A (positive = better) and the verdict."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    if ma:
        change = sign * (mb - ma) / abs(ma)
    else:
        change = 0.0 if mb == ma else sign * (mb - ma) * float("inf")
    if bound is None:
        return change, "-"
    wins = sum(sign * (y - x) > 0 for x in a for y in b) / (len(a) * len(b))
    if max(spread(a), spread(b)) > bound:
        return change, "better" if wins == 1.0 else "unresolved"
    if change < -bound:
        return change, "worse"
    if change > spread(a) and wins >= 0.9:
        return change, "better"
    return change, "same"


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = list(argv).index("--")
    a, b = load(argv[:split]), load(argv[split + 1:])
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    order = {m: i for i, m in enumerate(metrics)}
    print(f"{'workload':13} {'metric':36} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
    worse = False
    for key in sorted(a.keys() & b.keys(),
                      key=lambda k: (k[0], order.get(k[1], len(order)))):
        info = metrics.get(key[1], {})
        change, word = verdict(a[key], b[key], info.get("better", "lower"),
                               info.get("bound"))
        worse |= word == "worse"
        cells = []
        for values in (a[key], b[key]):
            q1, median, q3 = quartiles(values)
            cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
        print(f"{key[0]:13} {key[1]:36} {cells[0]:>34} {cells[1]:>34} "
              f"{change:+8.2%}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
