#!/usr/bin/env python3
"""Compare two benchmark reports written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload x end-to-end metric: both medians with quartiles,
B as a ratio of A (A is the base), and a verdict against the metric's
regression bound:

* ``unresolved``   — either side's interquartile spread is wider than
  the bound *and* the two sides' samples interleave: the data cannot
  tell a regression from noise, so it is not reported as unchanged;
* ``worse``        — B's median is worse than A's by more than the bound;
* ``better``       — B's median is better by more than A's interquartile
  distance and every B sample beats every A sample;
* ``within-bound`` — anything else.

Exact-repeat counts (executions, jobs, bytes shipped, findings) are
compared for identity; a difference means the two sides did different
work and the timing rows do not compare like with like.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats
from definitions import END_TO_END, EXACT_COUNTS


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    median_a, median_b = stats.median(a), stats.median(b)
    worsening = (median_b - median_a) / median_a
    if better == "higher":
        worsening = -worsening
    interleave = min(b) <= max(a) and min(a) <= max(b)
    if max(stats.spread(a), stats.spread(b)) > bound and interleave:
        return "unresolved"
    if worsening > bound:
        return "worse"
    q1, q3 = stats.quartiles(a)
    if worsening < 0 and abs(median_b - median_a) > q3 - q1 and not interleave:
        return "better"
    return "within-bound"


def compare(report_a: dict, report_b: dict) -> List[str]:
    lines = [
        f"{'workload':14} {'metric':20} {'A median [q1, q3] n':34} "
        f"{'B median [q1, q3] n':34} {'B/A':>8}  verdict"
    ]
    for workload, side_a in report_a["workloads"].items():
        side_b = report_b["workloads"].get(workload)
        if side_b is None:
            lines.append(f"{workload:14} missing from B")
            continue
        for name, unit, better, bound in END_TO_END:
            row_a, row_b = side_a["end_to_end"][name], side_b["end_to_end"][name]
            cells = [
                f"{row['median']:.4g} [{row['q1']:.4g}, {row['q3']:.4g}] "
                f"n={row['n']}"
                for row in (row_a, row_b)
            ]
            lines.append(
                f"{workload:14} {name:20} {cells[0]:34} {cells[1]:34} "
                f"{row_b['median'] / row_a['median']:7.3f}x  "
                f"{verdict(row_a['values'], row_b['values'], better, bound)}"
                f" (base {row_a['median']:.4g} {unit}, bound {bound:.0%})"
            )
        moved = [
            f"{name} {side_a['counts'][name]} -> {side_b['counts'][name]}"
            for name in EXACT_COUNTS
            if side_a["counts"][name] != side_b["counts"][name]
        ]
        lines.append(
            f"{workload:14} exact counts: "
            + ("identical" if not moved else "DIFFER: " + "; ".join(moved))
        )
        for label, side in (("A", side_a), ("B", side_b)):
            if not side["correct"] or side["failed"]:
                lines.append(
                    f"{workload:14} {label}: correct={side['correct']} "
                    f"failed={side['failed']} of {side['attempted']}"
                )
    return lines


def main(argv: Sequence[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    for label, report in zip("AB", reports):
        print(f"{label}: seed={report['seed']} env={json.dumps(report['env'])}")
    print("\n".join(compare(*reports)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
