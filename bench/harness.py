"""Run workloads in child processes and turn run records into metrics.

Shared by ``python -m bench`` (all workloads, round-robin) and
``bench/run.py`` (one workload for a fixed time).  Every run is a fresh
``python -m bench.child`` process; only one runs at a time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Temporary files and Chrome traces of every run; ignored by git.
WORK_DIR = ROOT / ".bench_work"
PINNED_FILE = Path(__file__).resolve().parent / "fingerprints.json"
WORKLOADS = ("fuzz-oracle", "fuzz-pmm", "pmm-train", "service-poll")
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A run crashed, hung, or its output could not be read."""


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric, and the workloads it applies to."""

    name: str
    unit: str
    better: str
    workloads: tuple[str, ...] = WORKLOADS


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("us_per_op", "us/op", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("fail_share", "ratio", "lower"),
    Metric("advance_ms.p50", "ms", "lower", ("service-poll",)),
    Metric("advance_ms.p80", "ms", "lower", ("service-poll",)),
    Metric("ckpt_ms.p50", "ms", "lower", ("service-poll",)),
    Metric("ckpt_ms.p80", "ms", "lower", ("service-poll",)),
)

# Bounds of the metrics BENCHMARK.json cannot hold: there every
# end-to-end metric applies to every workload and is never 0.  The
# latency bounds are max(10%, the spread of their medians over the
# baseline sets in bench/baseline/), rounded up to 5%.
EXTRA_BOUNDS = {
    "fail_share": 0.0,
    "advance_ms.p50": 0.30,
    "advance_ms.p80": 0.50,
    "ckpt_ms.p50": 0.25,
    "ckpt_ms.p80": 0.50,
}


def bounds() -> dict[str, float]:
    """Regression bound of every end-to-end metric, as a share."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    found = {
        metric["name"]: metric["bound"] for metric in declared["end_to_end"]
    }
    found.update(EXTRA_BOUNDS)
    return found


def spawn(workload: str, seed: int = 0, trace: bool = False,
          timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``workload`` once in a fresh child; its run record."""
    trace_path = WORK_DIR / f"trace-{workload}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    t0 = time.monotonic()
    command = [
        sys.executable, "-m", "bench.child", "--workload", workload,
        "--seed", str(seed), "--t0", repr(t0), "--tmp", str(WORK_DIR / "tmp"),
    ] + (["--trace", str(trace_path)] if trace else [])
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} run exceeded {timeout:.0f} s") \
            from error
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} run exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as error:
        raise BenchError(f"{workload} run printed no record") from error


def pinned_fingerprints() -> dict:
    return json.loads(PINNED_FILE.read_text())


def check_fingerprints(runs: list[dict]) -> None:
    """Mark each run ``fingerprint_ok``.

    Runs of a pinned workload seed must match the pinned fingerprint.
    Otherwise all runs of one workload and seed must agree; the most
    common fingerprint is taken as right.
    """
    pinned = pinned_fingerprints()
    for workload, seed in {(run["workload"], run["seed"]) for run in runs}:
        own = [
            run for run in runs
            if run["workload"] == workload and run["seed"] == seed
        ]
        if str(seed) in pinned[workload]:
            expected = pinned[workload][str(seed)]
        else:
            counts = Counter(json.dumps(run["fingerprint"], sort_keys=True)
                             for run in own)
            expected = json.loads(counts.most_common(1)[0][0])
        for run in own:
            run["fingerprint_ok"] = run["fingerprint"] == expected


def attempted(run: dict) -> int:
    return run["ops"] + run["requests"]


def failed(run: dict) -> int:
    """Failed ops; every op of a run with a wrong fingerprint fails."""
    return run["failed"] if run.get("fingerprint_ok", True) else attempted(run)


def summarize(runs: list[dict], workload: str) -> dict[str, float]:
    """End-to-end metrics of ``workload`` over its untraced runs."""
    own = [r for r in runs if r["workload"] == workload and not r["traced"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in own),
        "wall_s": statistics.median(r["wall_s"] for r in own),
        "us_per_op": statistics.median(
            1e6 * r["wall_s"] / r["ops"] for r in own
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in own),
        "fail_share": sum(failed(r) for r in own)
        / sum(attempted(r) for r in own),
    }
    for series in ("advance_ms", "ckpt_ms"):
        pooled = [value for r in own for value in r[series]]
        if pooled:
            metrics[f"{series}.p50"] = float(np.percentile(pooled, 50))
            metrics[f"{series}.p80"] = float(np.percentile(pooled, 80))
    return metrics


def layer_medians(runs: list[dict], workload: str) -> dict[str, float]:
    """Per-layer metrics of ``workload``: medians over its traced runs,
    plus the tracing overhead against the untraced median wall time."""
    own = [r for r in runs if r["workload"] == workload]
    traced = [r["layers"] for r in own if r["traced"]]
    metrics = {
        name: statistics.median(layers[name] for layers in traced)
        for name in traced[0]
    }
    untraced = statistics.median(r["wall_s"] for r in own if not r["traced"])
    traced_wall = statistics.median(r["wall_s"] for r in own if r["traced"])
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced - 1.0)
    return metrics

