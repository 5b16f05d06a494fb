"""Run one workload for a fixed time; print one JSON result line.

Usage (from the repository root)::

    python3 bench/run.py --workload fuzz-oracle --seed 0 --seconds 20 \\
        --trace 0

Runs the workload in fresh child processes, one at a time, until the
next run would end after ``--seconds`` (at least ``MIN_RUNS`` runs), and
reports medians.  With ``--trace 1`` untraced and traced runs alternate
and the per-layer metrics of the traced runs are reported instead.  The
last line of output is ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only if every run's fingerprint is
right.  Without the program's sources next to ``bench/`` it exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.harness import (  # noqa: E402
    ROOT,
    WORKLOADS,
    BenchError,
    attempted,
    check_fingerprints,
    failed,
    layer_medians,
    spawn,
    summarize,
)

MIN_RUNS = 2
SUBSEEDS = 3
# Every run must end within this many seconds of the start.
BUDGET_S = 170.0


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def campaign_seed(seed: int, run_index: int, trace: bool) -> int:
    """The workload seed of one run.

    Untraced runs cycle over ``SUBSEEDS`` campaign seeds made from
    ``seed``, so one result averages over several inputs; traced runs
    use one, so each traced run has an untraced twin.
    """
    return SUBSEEDS * seed + (0 if trace else run_index % SUBSEEDS)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Runs until the time is up; the result object."""
    runs: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        runs.append(spawn(
            workload, campaign_seed(seed, len(runs), trace),
            trace=trace and len(runs) % 2 == 1,
            timeout=BUDGET_S - (began - start),
        ))
        elapsed = time.monotonic() - start
        last = time.monotonic() - began
        if len(runs) >= MIN_RUNS and elapsed + last > seconds:
            break
    check_fingerprints(runs)
    declared = _declared()
    if trace:
        values = layer_medians(runs, workload)
        wanted = declared["per_layer"]
    else:
        values = summarize(runs, workload)
        wanted = declared["end_to_end"]
    return {
        "correct": all(run["fingerprint_ok"] for run in runs),
        "attempted": sum(attempted(run) for run in runs),
        "failed": sum(failed(run) for run in runs),
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
            for metric in wanted
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
