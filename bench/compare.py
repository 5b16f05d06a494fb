"""Judge a change against its parent from ``python -m bench --out`` files.

Usage (from the repository root)::

    python bench/compare.py --parent p1.json p2.json ... \\
                            --change c1.json c2.json ...

File ``i`` of each side forms pair ``i``; run the pairs alternately
(parent first, then change first, ...) with the same flags.  Each file
contributes its per-workload medians.  One row per workload and
end-to-end metric gets a verdict:

- ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  interquartile range;
- ``unresolved``: fewer than 10 pairs, or the run-to-run spread (either
  side's interquartile range over its median) is wider than the metric's
  bound and not every change run beats every parent run;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``no change`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.harness import END_TO_END, WORKLOADS, bounds  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    parent: float
    change: float
    wins: int
    pairs: int
    verdict: str


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _relative_iqr(values: list[float]) -> float:
    median = statistics.median(values)
    return _iqr(values) / abs(median) if median else 0.0


def verdict(parent: list[float], change: list[float], bound: float,
            better: str = "lower") -> tuple[str, int]:
    """The verdict for one metric's paired values, and the change's wins."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive gain: the change is better.
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(gain > 0 for gain in gains)
    pairs = len(gains)
    if pairs < MIN_PAIRS:
        return "unresolved", wins
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    gap = sign * (parent_median - change_median)
    if wins >= WIN_SHARE * pairs and gap > _iqr(parent):
        return "improved", wins
    all_better = all(
        sign * (p - c) > 0 for p in parent for c in change
    )
    spread = max(_relative_iqr(parent), _relative_iqr(change))
    if spread > bound and not all_better:
        return "unresolved", wins
    worse = -gap
    if parent_median:
        worse /= abs(parent_median)
    if worse > bound:
        return "regressed", wins
    return "no change", wins


def compare(parent: list[dict], change: list[dict],
            metric_bounds: dict[str, float]) -> list[Row]:
    """One row per workload and end-to-end metric."""
    rows = []
    for workload in WORKLOADS:
        for metric in END_TO_END:
            if workload not in metric.workloads:
                continue
            p = [out["summary"][workload][metric.name] for out in parent]
            c = [out["summary"][workload][metric.name] for out in change]
            result, wins = verdict(
                p, c, metric_bounds[metric.name], metric.better
            )
            rows.append(Row(
                workload, metric.name, metric.unit,
                statistics.median(p), statistics.median(c),
                wins, min(len(p), len(c)), result,
            ))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change need the same number of files")
    load = [json.loads(Path(name).read_text()) for name in args.parent]
    new = [json.loads(Path(name).read_text()) for name in args.change]
    rows = compare(load, new, bounds())
    print(f"{'workload':<13} {'metric':<15} {'parent':>12} {'change':>12} "
          f"{'unit':<6} {'wins':>6}  verdict")
    for row in rows:
        print(f"{row.workload:<13} {row.metric:<15} {row.parent:>12.4f} "
              f"{row.change:>12.4f} {row.unit:<6} "
              f"{row.wins:>3}/{row.pairs:<2}  {row.verdict}")
    return 1 if any(row.verdict == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
