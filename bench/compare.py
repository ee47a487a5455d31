#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --out``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): both medians over the files'
untraced runs, the relative change from A to B, the metric's ``bound``
from ``BENCHMARK.json`` and a verdict:

``unresolved``  either side's spread (interquartile distance over median)
                is wider than the bound, so nothing can be said;
``regressed``   B's median is worse than A's by more than the bound;
``improved``    B's median is better by more than both sides' spread (with
                a single run per side: by more than the bound);
``unchanged``   anything else.

Exits non-zero on any ``regressed`` row, or when a workload's share of
failed operations is higher in B than in A. A is the parent (or the first
of two A/A sets), B the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Medians, change and verdict for one metric on one workload."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / median_a
    worse_by = change if better == "lower" else -change
    spread_a, spread_b = spread(a), spread(b)
    widest = max(spread_a, spread_b)
    if widest > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "regressed"
    elif -worse_by > (widest if min(len(a), len(b)) >= 2 else bound):
        word = "improved"
    else:
        word = "unchanged"
    return {
        "median_a": median_a, "median_b": median_b, "change": change,
        "spread_a": spread_a, "spread_b": spread_b, "bound": bound, "verdict": word,
    }


def untraced_by_workload(report: dict) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for run in report["runs"]:
        if not run.get("traced"):
            runs.setdefault(run["workload"], []).append(run)
    return runs


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(report_a: dict, report_b: dict, contract: dict) -> tuple[list[dict], list[str]]:
    """Rows of the comparison table and the reasons, if any, to fail."""
    runs_a, runs_b = untraced_by_workload(report_a), untraced_by_workload(report_b)
    rows, reasons = [], []
    for workload in (w["name"] for w in contract["workloads"]):
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a or not b:
            reasons.append(f"{workload}: missing from {'A' if not a else 'B'}")
            continue
        share_a, share_b = failed_share(a), failed_share(b)
        if share_b > share_a:
            reasons.append(f"{workload}: failed_share rose from {share_a:.6f} to {share_b:.6f}")
        for metric in contract["end_to_end"]:
            name = metric["name"]
            # a run that died has no metrics; its failure is counted above
            row = verdict(
                [r["metrics"][name]["value"] for r in a if name in r["metrics"]],
                [r["metrics"][name]["value"] for r in b if name in r["metrics"]],
                metric["better"], metric["bound"],
            )
            row.update(metric=name, workload=workload, unit=metric["unit"],
                       runs_a=len(a), runs_b=len(b))
            rows.append(row)
            if row["verdict"] == "regressed":
                reasons.append(f"{name} on {workload}: regressed by {row['change']:+.1%}")
    return rows, reasons


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    report_a, report_b = (json.loads(Path(p).read_text()) for p in argv)
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    rows, reasons = compare(report_a, report_b, contract)
    print(f"{'metric':<12} {'workload':<12} {'unit':<4} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'spread A':>8} {'spread B':>8} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['metric']:<12} {row['workload']:<12} {row['unit']:<4} "
              f"{row['median_a']:>12.6g} {row['median_b']:>12.6g} {row['change']:>+8.1%} "
              f"{row['spread_a']:>8.1%} {row['spread_b']:>8.1%} {row['bound']:>6.0%}  "
              f"{row['verdict']} (n={row['runs_a']},{row['runs_b']})")
    for reason in reasons:
        print(f"FAIL {reason}")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
