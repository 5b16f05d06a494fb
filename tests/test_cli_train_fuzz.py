"""End-to-end CLI test: train a tiny checkpoint, then fuzz with it."""

import json

import numpy as np
import pytest

from repro.cli import main


class TestCliTrainFuzz:
    def test_train_then_fuzz(self, tmp_path, capsys):
        checkpoint = tmp_path / "pmm.npz"
        code = main([
            "train", "--size", "small", "--out", str(checkpoint),
            "--corpus-size", "15", "--mutations", "20",
            "--epochs", "1", "--dim", "16",
        ])
        assert code == 0
        assert checkpoint.exists()
        out = capsys.readouterr().out
        assert "checkpoint written" in out

        code = main([
            "fuzz", "--size", "small", "--model", str(checkpoint),
            "--hours", "0.1", "--seed-corpus", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "snowplow" in out
        assert "edges" in out

    def test_baseline_fuzz(self, capsys):
        code = main([
            "fuzz", "--size", "small", "--baseline",
            "--hours", "0.1", "--seed-corpus", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "syzkaller" in out

    def test_fuzz_requires_model_or_baseline(self, capsys):
        code = main(["fuzz", "--size", "small", "--hours", "0.1"])
        assert code == 2


class TestCliCluster:
    def test_fuzz_with_workers(self, capsys):
        code = main([
            "fuzz", "--size", "small", "--oracle",
            "--hours", "0.25", "--seed-corpus", "10",
            "--workers", "2", "--batch-size", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "snowplow x2" in out
        assert "fleet edges" in out
        assert "worker 0" in out and "worker 1" in out
        assert "inference:" in out

    def test_fuzz_baseline_with_workers(self, capsys):
        code = main([
            "fuzz", "--size", "small", "--baseline",
            "--hours", "0.25", "--seed-corpus", "10", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "syzkaller x2" in out

    def test_fuzz_rejects_bad_workers(self, capsys):
        code = main([
            "fuzz", "--size", "small", "--baseline",
            "--hours", "0.1", "--workers", "0",
        ])
        assert code == 2

    def test_cluster_sweep(self, capsys):
        code = main([
            "cluster", "--size", "small", "--oracle",
            "--hours", "0.25", "--seed-corpus", "10",
            "--worker-counts", "1,2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scaling sweep" in out
        assert "per-worker breakdown (2 workers)" in out

    def test_cluster_rejects_bad_counts(self, capsys):
        assert main([
            "cluster", "--size", "small", "--oracle",
            "--worker-counts", "two",
        ]) == 2
        assert main([
            "cluster", "--size", "small", "--oracle",
            "--worker-counts", "0,2",
        ]) == 2

    def test_cluster_requires_model_or_stand_in(self, capsys):
        code = main([
            "cluster", "--size", "small", "--worker-counts", "1",
        ])
        assert code == 2


def _assert_one_error_line(capsys) -> None:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    assert captured.out == ""


class TestCliCampaignShape:
    """A campaign that cannot run is refused before any work starts:
    exit 2 and one ``error:`` line, never a traceback or a vacuous
    pass."""

    @pytest.mark.parametrize("command, bad", [
        (["fuzz"], ["--hours", "0"]),
        (["fuzz"], ["--hours", "-1"]),
        (["fuzz"], ["--seed-corpus", "0"]),
        (["fuzz"], ["--batch-size", "0"]),
        (["fuzz"], ["--kernel", "9.9"]),
        (["cluster", "--worker-counts", "1"], ["--hours", "0"]),
        (["cluster", "--worker-counts", "1"], ["--seed-corpus", "0"]),
        (["cluster", "--worker-counts", "1"], ["--batch-size", "-3"]),
        (["cluster", "chaos"], ["--hours", "0"]),
    ], ids=[
        "fuzz-hours-0", "fuzz-hours-negative", "fuzz-seed-corpus-0",
        "fuzz-batch-size-0", "fuzz-unknown-kernel", "cluster-hours-0",
        "cluster-seed-corpus-0", "cluster-batch-size-negative",
        "cluster-chaos-hours-0",
    ])
    def test_bad_shape_exits_2(self, command, bad, capsys):
        assert main([
            *command, "--size", "tiny", "--oracle", "--hours", "0.1",
            "--seed-corpus", "4", *bad,
        ]) == 2
        _assert_one_error_line(capsys)


class TestCliBadModel:
    """A ``--model`` that does not load exits 2 with one ``error:`` line
    instead of a traceback."""

    @pytest.fixture(params=["missing", "truncated"])
    def bad_model(self, request, tmp_path):
        path = tmp_path / "pmm.npz"
        if request.param == "truncated":
            np.savez_compressed(path, header=np.zeros(256, dtype=np.uint8))
            path.write_bytes(path.read_bytes()[:40])
        return path

    @pytest.mark.parametrize("command", [
        ["fuzz"],
        ["cluster", "--worker-counts", "1"],
        ["cluster", "chaos"],
    ], ids=["fuzz", "cluster", "cluster-chaos"])
    def test_bad_model_exits_2(self, command, bad_model, capsys):
        assert main([
            *command, "--size", "tiny", "--model", str(bad_model),
            "--hours", "0.1", "--seed-corpus", "4",
        ]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: checkpoint ")
        assert str(bad_model) in lines[0]
        assert captured.out == ""


class TestCliErrorBoundary:
    """A library error or an unreadable input ends any command with one
    ``error:`` line on stderr and exit status 2."""

    @pytest.mark.parametrize("command", ["exec", "triage"])
    def test_unparsable_program(self, command, tmp_path, capsys):
        program = tmp_path / "bad.syz"
        program.write_text("this is not a syz program(\n")
        assert main([
            command, "--size", "tiny", "--prog", str(program),
        ]) == 2
        _assert_one_error_line(capsys)

    def test_missing_program_file(self, tmp_path, capsys):
        assert main([
            "exec", "--size", "tiny", "--prog", str(tmp_path / "missing.syz"),
        ]) == 2
        _assert_one_error_line(capsys)

    def test_corrupt_service_state(self, tmp_path, capsys):
        (tmp_path / "service.json").write_text("{corrupt")
        assert main(["status", "--state-dir", str(tmp_path)]) == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize("spec", ["patch:6.8..9.9", "patch:9.9..6.8"])
    def test_unknown_directed_release(self, spec, capsys):
        assert main([
            "fuzz", "--size", "tiny", "--oracle", "--hours", "0.1",
            "--seed-corpus", "4", "--directed", spec,
        ]) == 2
        _assert_one_error_line(capsys)

    def test_observe_diff_missing_file(self, tmp_path, capsys):
        other = tmp_path / "b.json"
        other.write_text("{}")
        assert main([
            "observe", "diff", str(tmp_path / "missing.json"), str(other),
        ]) == 2
        _assert_one_error_line(capsys)


class TestCliObserve:
    def _observed_run(self, tmp_path, capsys):
        directory = tmp_path / "telemetry"
        code = main([
            "fuzz", "--size", "small", "--oracle",
            "--hours", "0.1", "--seed-corpus", "10",
            "--observe-dir", str(directory),
        ])
        assert code == 0
        assert "telemetry:" in capsys.readouterr().out
        return directory

    def test_fuzz_observe_dir_exports_artifacts(self, tmp_path, capsys):
        directory = self._observed_run(tmp_path, capsys)
        for name in ("trace.json", "spans.jsonl", "metrics.json",
                     "flame.txt", "profile.txt"):
            assert (directory / name).exists()
        doc = json.loads((directory / "trace.json").read_text())
        assert doc["traceEvents"]

    def test_observe_render(self, tmp_path, capsys):
        directory = self._observed_run(tmp_path, capsys)
        chrome = tmp_path / "rendered.json"
        code = main([
            "observe", "render", str(directory / "spans.jsonl"),
            "--chrome", str(chrome),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "flame summary" in out and "perfetto" in out
        # The rendered trace equals the directly exported one.
        assert chrome.read_text() == (directory / "trace.json").read_text()

    def test_observe_diff_and_regression_exit_code(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(
            {"counters": {"fuzz.executions": 100}, "gauges": {},
             "histograms": {}}
        ))
        new.write_text(json.dumps(
            {"counters": {"fuzz.executions": 40}, "gauges": {},
             "histograms": {}}
        ))
        assert main(["observe", "diff", str(old), str(old)]) == 0
        assert "no metric changes" in capsys.readouterr().out
        assert main(["observe", "diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "regression(s)" in out and "lower-is-worse" in out
        # A generous threshold silences the same delta.
        assert main([
            "observe", "diff", str(old), str(new), "--threshold", "90",
        ]) == 0

    def test_observe_check(self, tmp_path, capsys):
        directory = self._observed_run(tmp_path, capsys)
        metrics = str(directory / "metrics.json")
        assert main([
            "observe", "check", metrics,
            "--require", "fuzz.executions",
            "--require", "serve.queue_delay",
        ]) == 0
        assert "expected series present" in capsys.readouterr().out
        assert main([
            "observe", "check", metrics, "--require", "no.such.series",
        ]) == 1
        assert "missing expected series" in capsys.readouterr().err
