"""Tests of the benchmark harness, on reduced budgets.

Run from the repository root with ``PYTHONPATH=src:. python -m pytest
bench -q``.
"""

from __future__ import annotations

import json
import time

import pytest

from bench import child, run as contract
from bench.compare import verdict
from bench.harness import END_TO_END, ROOT, WORKLOADS, summarize
from bench.workloads import WORKLOADS as workload_functions
from bench.trace import (
    ENTRY_POINTS,
    ROOT as ROOT_SPAN,
    Tracer,
    per_layer_declarations,
)

# Small enough to run in seconds, large enough that every mapped entry
# point is still called.
SCALE = {
    "fuzz-oracle": 0.25,
    "fuzz-pmm": 0.3,
    "pmm-train": 0.4,
    "service-poll": 0.1,
}


def _run(workload: str, seed: int = 0, trace_path=None) -> dict:
    return child.run(workload, seed, time.monotonic(), SCALE[workload],
                     str(trace_path) if trace_path else None)


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_repeats(workload):
    first, second = _run(workload), _run(workload)
    assert first["fingerprint"] == second["fingerprint"]
    assert first["ops"] > 0 and first["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mapped_entry_points_are_hit(workload, tmp_path):
    from repro.syzlang.program import Program

    original = Program.clone
    record = _run(workload, trace_path=tmp_path / "trace.json")
    assert Program.clone is original, "tracer left a wrapper installed"
    layers = record["layers"]
    for entry in ENTRY_POINTS:
        if workload in entry.workloads:
            assert layers[f"{entry.name}.calls"] > 0, entry.name
    shares = sum(layers[f"{entry.name}.share"] for entry in ENTRY_POINTS)
    assert shares + layers["trace.root_self_share"] == pytest.approx(1.0)
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert any(event["name"] == ROOT_SPAN for event in events)


def test_every_declared_metric_is_emitted_with_its_unit(declared, tmp_path,
                                                        monkeypatch):
    units = {metric.name: metric.unit for metric in END_TO_END}
    for metric in declared["end_to_end"]:
        assert units[metric["name"]] == metric["unit"]
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == per_layer_declarations()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert tuple(workload_functions) == WORKLOADS

    def fake_spawn(workload, seed=0, trace=False, timeout=0.0):
        return _run(workload, seed, tmp_path / "trace.json" if trace else None)

    # Reduced budgets may skip a mapped layer on unpinned seeds; the
    # mapping has its own test above.
    monkeypatch.setattr(Tracer, "check_mapped", lambda *args: None)
    monkeypatch.setattr(contract, "spawn", fake_spawn)
    monkeypatch.setattr(contract, "MIN_RUNS", 2)
    for workload in ("service-poll", "pmm-train"):
        runs = [_run(workload), _run(workload)]
        summary = summarize(runs, workload)
        for metric in END_TO_END:
            if workload in metric.workloads:
                assert summary[metric.name] >= 0.0, metric.name
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = contract.measure(workload, 5, 0.0, trace)
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] > 0
            assert {
                name: value["unit"]
                for name, value in result["metrics"].items()
            } == {m["name"]: m["unit"] for m in declared[section]}


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1,
              99.9]
    win = [value * 0.8 for value in parent]
    same = [value + (0.3 if i % 2 else -0.3) for i, value in
            enumerate(parent)]
    assert verdict(parent, win, 0.10)[0] == "improved"
    assert verdict(parent, same, 0.10)[0] == "no change"
    assert verdict(parent, [value * 1.3 for value in parent], 0.10)[0] \
        == "regressed"
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 65.0, 135.0]
    assert verdict(wide, list(reversed(wide)), 0.10)[0] == "unresolved"
    assert verdict(parent[:5], win[:5], 0.10)[0] == "unresolved"
    higher = verdict(parent, win, 0.10, better="higher")
    assert higher[0] == "regressed"
