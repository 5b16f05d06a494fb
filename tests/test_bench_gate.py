"""The bench gate and the CI gate registry.

``benchmarks.conftest.gate_metrics`` passes only when a bench's fresh
snapshot equals its committed baseline series for series, and never
writes the baseline.  The registry half checks that each committed
``BENCH_*.json`` is gated by exactly one bench, that each gating bench
runs in exactly one arm of ``benchmarks/gates.sh``, and that the CI
matrix lists exactly those arms.  ``ci.yml`` is read as text: the
tier-1 job installs no YAML parser.
"""

import re
import shutil
from pathlib import Path

import pytest

from benchmarks import conftest as bench

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
NAME = "BENCH_TEST.json"
BASELINE = {
    "bench.gate.executions": 20.0,
    "bench.gate.ratio": 0.25,
    "bench.gate.zero": 0.0,
}


@pytest.fixture
def dirs(tmp_path, monkeypatch):
    results, out = tmp_path / "results", tmp_path / "out"
    results.mkdir()
    monkeypatch.setattr(bench, "RESULTS_DIR", str(results))
    monkeypatch.setattr(bench, "OUT_DIR", str(out))
    return results, out


def _pin(results) -> bytes:
    """Pin ``BASELINE`` the documented way: copy a fresh file over."""
    shutil.copy(bench.write_metrics(NAME, BASELINE), results / NAME)
    return (results / NAME).read_bytes()


class TestGateMetrics:
    def test_equal_snapshot_passes(self, dirs):
        results, out = dirs
        pinned = _pin(results)
        bench.gate_metrics(NAME, dict(BASELINE))
        assert (results / NAME).read_bytes() == pinned
        assert (out / NAME).read_bytes() == pinned

    @pytest.mark.parametrize("fresh, named", [
        # An untagged series: the old direction heuristic ignored it.
        ({**BASELINE, "bench.gate.ratio": 0.5}, "bench.gate.ratio"),
        # A tagged series within the old 10 % threshold.
        ({**BASELINE, "bench.gate.executions": 21.0},
         "bench.gate.executions"),
        # diff_snapshots reads an absent series as 0, so a dropped zero
        # looks unchanged to it.
        ({k: v for k, v in BASELINE.items() if k != "bench.gate.zero"},
         "bench.gate.zero"),
        ({**BASELINE, "bench.gate.added": 1.0}, "bench.gate.added"),
    ], ids=["changed", "changed-within-10pct", "dropped-zero", "added"])
    def test_any_difference_fails_naming_the_series(self, dirs, fresh, named):
        results, out = dirs
        pinned = _pin(results)
        with pytest.raises(AssertionError) as failure:
            bench.gate_metrics(NAME, fresh)
        message = str(failure.value)
        assert [key for key in {**BASELINE, **fresh} if key in message] == [
            named
        ]
        assert (results / NAME).read_bytes() == pinned
        assert (out / NAME).exists()

    def test_missing_baseline_fails(self, dirs):
        results, out = dirs
        with pytest.raises(AssertionError, match=NAME):
            bench.gate_metrics(NAME, dict(BASELINE))
        assert not (results / NAME).exists()
        assert (out / NAME).exists()


def _gate_calls() -> dict:
    """``{baseline name: [bench files whose gate_metrics names it]}``."""
    calls: dict = {}
    for path in sorted(BENCH_DIR.glob("test_*.py")):
        text = path.read_text()
        for name in re.findall(r'gate_metrics\(\s*"([^"]+)"', text):
            calls.setdefault(name, []).append(path.name)
    return calls


def _arms() -> list:
    """``[(arm, [bench files it runs])]`` of ``benchmarks/gates.sh``."""
    arms: list = []
    for line in (BENCH_DIR / "gates.sh").read_text().splitlines():
        match = re.fullmatch(r"(\w+)\)", line)
        if match:
            arms.append((match.group(1), []))
        elif arms:
            arms[-1][1].extend(re.findall(r"\bbench (test_\w+\.py)", line))
    return arms


class TestGateRegistry:
    def test_each_baseline_is_gated_by_one_bench(self):
        calls = _gate_calls()
        baselines = sorted(
            path.name for path in (BENCH_DIR / "results").glob("BENCH_*.json")
        )
        assert sorted(calls) == baselines
        assert all(len(files) == 1 for files in calls.values()), calls

    def test_each_gating_bench_runs_in_one_arm(self):
        gating = {files[0] for files in _gate_calls().values()}
        runs = [name for _, benches in _arms() for name in benches]
        assert {name: runs.count(name) for name in gating} == dict.fromkeys(
            gating, 1
        )

    def test_ci_matrix_lists_the_script_arms(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        (listed,) = re.findall(r"^ +gate: \[(.*)\]$", text, re.MULTILINE)
        arms = [arm for arm, _ in _arms()]
        assert sorted(gate.strip() for gate in listed.split(",")) == sorted(
            arms
        )
        assert len(set(arms)) == len(arms)
        assert "run: bash benchmarks/gates.sh ${{ matrix.gate }}" in text
