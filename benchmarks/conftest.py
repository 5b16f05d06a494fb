"""Shared, expensively-built artifacts for the experiment benches.

The kernels and the trained PMM are session-scoped: Table 1, Fig. 6, and
Tables 2-5 all reuse the same §5.1 training run, exactly as the paper
trains once on 6.8 and deploys everywhere.  Every bench writes the
table/figure it regenerates to the gitignored ``benchmarks/out/``, so a
bench run never touches a tracked file.  The committed baselines live in
``benchmarks/results/``; to re-pin one, copy the fresh file from
``out/`` over it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.kernel import build_kernel
from repro.pmm import DatasetConfig, PMMConfig, TrainConfig
from repro.snowplow import train_pmm

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

# Laptop-scale experiment sizing (paper values in DESIGN.md's table).
TRAIN_CORPUS = 60
MUTATIONS_PER_TEST = 120
TRAIN_EPOCHS = 2


def write_result(name: str, text: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def write_metrics(name: str, metrics) -> str:
    """Dump a metrics snapshot as canonical JSON next to the text table.

    ``metrics`` is either a :class:`~repro.observe.MetricsRegistry` or a
    plain ``{series: number}`` dict (folded into gauges).  The output is
    the same ``{counters, gauges, histograms}`` shape ``--observe-dir``
    exports, so two bench runs compare with ``repro observe diff``.
    """
    from repro.observe import MetricsRegistry

    if not isinstance(metrics, MetricsRegistry):
        registry = MetricsRegistry()
        for key, value in metrics.items():
            registry.gauge(str(key)).set(value)
        metrics = registry
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as handle:
        handle.write(metrics.to_json() + "\n")
    print(f"[metrics written to {path}]")
    return path


def _series(path: str) -> dict:
    from repro.observe.timeseries import flatten_snapshot

    with open(path) as handle:
        flat = flatten_snapshot(json.load(handle))
    return {key: value for key, (value, _) in flat.items()}


def gate_metrics(name: str, metrics) -> None:
    """Write ``metrics`` as ``out/<name>`` and fail unless it equals the
    committed ``results/<name>`` baseline series for series.

    Every series is gated by exact equality: the benches are seeded, so
    a changed value, a series the fresh run lacks, one the baseline
    lacks, or a missing baseline each fail, naming what differs.  Host
    time is nondeterministic, so it stays out of gated snapshots (the
    text tables carry it).  To re-pin, copy the fresh file over the
    baseline.
    """
    fresh_path = write_metrics(name, metrics)
    baseline_path = os.path.join(RESULTS_DIR, name)
    assert os.path.exists(baseline_path), (
        f"no committed baseline {baseline_path}; to pin one, copy "
        f"{fresh_path} there"
    )
    baseline = _series(baseline_path)
    fresh = _series(fresh_path)
    problems = [
        f"{key}: {baseline[key]} -> {fresh[key]}"
        for key in sorted(baseline.keys() & fresh.keys())
        if baseline[key] != fresh[key]
    ]
    problems += [
        f"{key}: missing from the fresh run"
        for key in sorted(baseline.keys() - fresh.keys())
    ]
    problems += [
        f"{key}: not in the baseline"
        for key in sorted(fresh.keys() - baseline.keys())
    ]
    assert not problems, (
        f"{fresh_path} differs from the committed {baseline_path}:\n  "
        + "\n  ".join(problems)
        + "\nto re-pin, copy the fresh file over the baseline"
    )


@pytest.fixture(scope="session")
def kernel_68():
    return build_kernel("6.8", seed=1, size="large")


@pytest.fixture(scope="session")
def kernel_69():
    return build_kernel("6.9", seed=1, size="large")


@pytest.fixture(scope="session")
def kernel_610():
    return build_kernel("6.10", seed=1, size="large")


@pytest.fixture(scope="session")
def trained_68(kernel_68):
    """PMM trained on kernel 6.8 (the paper trains on 6.8 only)."""
    return train_pmm(
        kernel_68,
        seed=0,
        corpus_size=TRAIN_CORPUS,
        dataset_config=DatasetConfig(
            mutations_per_test=MUTATIONS_PER_TEST, seed=3
        ),
        pmm_config=PMMConfig(dim=32, gnn_layers=2, asm_layers=1, seed=5),
        train_config=TrainConfig(
            epochs=TRAIN_EPOCHS, batch_size=8,
            max_examples_per_epoch=500, max_validation_examples=60,
        ),
    )
