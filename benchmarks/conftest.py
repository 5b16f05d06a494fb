"""Shared, expensively-built artifacts for the experiment benches.

The kernels and the trained PMM are session-scoped: Table 1, Fig. 6, and
Tables 2-5 all reuse the same §5.1 training run, exactly as the paper
trains once on 6.8 and deploys everywhere.  Every bench writes the
table/figure it regenerates to ``benchmarks/results/`` so the output
survives the pytest run.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.kernel import build_kernel
from repro.pmm import DatasetConfig, PMMConfig, TrainConfig
from repro.snowplow import train_pmm

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Laptop-scale experiment sizing (paper values in DESIGN.md's table).
TRAIN_CORPUS = 60
MUTATIONS_PER_TEST = 120
TRAIN_EPOCHS = 2


def write_result(name: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
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
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(metrics.to_json() + "\n")
    print(f"[metrics written to {path}]")
    return path


def gate_metrics(name: str, metrics) -> None:
    """Write ``metrics`` as ``results/<name>`` and gate it against the
    committed baseline that file held.

    The baseline is read before :func:`write_metrics` replaces it; a
    first run with no baseline seeds it and passes.  Fails when
    :func:`~repro.observe.flag_regressions` (default 10 % threshold,
    direction read off each series name) flags any series.
    """
    from repro.observe import flag_regressions

    baseline = None
    path = os.path.join(RESULTS_DIR, name)
    if os.path.exists(path):
        with open(path) as handle:
            baseline = json.load(handle)
    write_metrics(name, metrics)
    with open(path) as handle:
        fresh = json.load(handle)
    if baseline is None:
        baseline = fresh
    assert flag_regressions(baseline, fresh) == []


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
