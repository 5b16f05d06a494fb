"""CLI surface for PR 7: machine-readable cluster output, the chaos
gate's pinned exit-code contract, and the service client commands
(``serve``/``submit``/``status``/``cancel``) with golden stdout."""

import json
from pathlib import Path

import pytest

import repro.cli
from repro.cli import main
from repro.faults import FaultPlan
from repro.snowplow.campaign import ChaosCampaignResult

GOLDEN = Path(__file__).parent / "golden"


class _FakeCluster:
    """Just the two attributes the chaos report readers touch."""

    def __init__(self, final_edges, hub_timeline=()):
        self.final_edges = final_edges
        self.hub_timeline = list(hub_timeline)


def _fake_chaos_result(passing: bool) -> ChaosCampaignResult:
    signature = (("edges", 500),)
    return ChaosCampaignResult(
        kernel_version="6.8",
        horizon=1800.0,
        workers=2,
        shards=2,
        plan=FaultPlan(seed=7).with_worker_kill(1, 600.0),
        clean=_FakeCluster(500),
        chaos=_FakeCluster(480 if passing else 100),
        resume_signatures=(signature, signature),
        restarts=1,
        dropped_entries=0,
        shed=2,
        outstanding_lost=0 if passing else 3,
        peak_edges=480 if passing else 120,
    )


class TestChaosExitCode:
    """The gate contract, pinned: any invariant violation exits 1, a
    clean pass exits 0 — identically in text and ``--json`` modes."""

    ARGS = [
        "cluster", "chaos", "--size", "tiny", "--oracle",
        "--hours", "0.1", "--workers", "2", "--shards", "2",
    ]

    def _run(self, monkeypatch, passing, extra=()):
        monkeypatch.setattr(
            repro.cli, "run_chaos_campaign",
            lambda *args, **kwargs: _fake_chaos_result(passing),
        )
        return main(self.ARGS + list(extra))

    def test_pass_is_exit_zero(self, monkeypatch, capsys):
        assert self._run(monkeypatch, passing=True) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    def test_violation_is_exit_one(self, monkeypatch, capsys):
        assert self._run(monkeypatch, passing=False) == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "[FAIL] zero corpus-entry loss" in out

    @pytest.mark.parametrize("passing,code", [(True, 0), (False, 1)])
    def test_json_mode_keeps_the_exit_code(
        self, monkeypatch, capsys, passing, code
    ):
        assert self._run(monkeypatch, passing, ["--json"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is passing
        assert doc["invariants"]["zero_corpus_loss"] is passing
        assert doc["plan"]["windows"]


class TestClusterJson:
    def test_scaling_sweep_json(self, capsys):
        code = main([
            "cluster", "--size", "tiny", "--oracle",
            "--hours", "0.2", "--seed-corpus", "8",
            "--worker-counts", "1,2", "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel"] == "6.8"
        assert [point["workers"] for point in doc["points"]] == [1, 2]
        for point in doc["points"]:
            assert point["final_edges"] > 0
            assert point["executions"] > 0
            assert len(point["worker_stats"]) == point["workers"]


class TestFuzzSmoke:
    def test_fuzz_workers_and_shards(self, capsys):
        code = main([
            "fuzz", "--size", "tiny", "--oracle",
            "--hours", "0.2", "--seed-corpus", "8",
            "--workers", "2", "--shards", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "snowplow x2" in out
        assert "fleet edges" in out

    def test_observe_check_strict(self, tmp_path, capsys):
        directory = tmp_path / "telemetry"
        assert main([
            "fuzz", "--size", "tiny", "--oracle",
            "--hours", "0.2", "--seed-corpus", "8",
            "--observe-dir", str(directory),
        ]) == 0
        capsys.readouterr()
        metrics = str(directory / "metrics.json")
        assert main([
            "observe", "check", metrics, "--require", "fuzz.executions",
        ]) == 0
        capsys.readouterr()
        # --strict turns any SLO alert into exit 1; a healthy tiny run
        # under the fuzz pack stays clean, so the exit code is stable.
        code = main([
            "observe", "check", metrics, "--slo", "fuzz", "--strict",
        ])
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "expected series present" in out or "alert" in out


def _service_scenario(state_dir):
    """Two tenants on a two-slot fleet: the golden-report scenario."""
    common = [
        "--state-dir", str(state_dir), "--fleet-size", "2",
        "--time-slice", "300",
    ]
    assert main([
        "submit", *common, "--tenant", "alice", "--size", "tiny",
        "--hours", "0.2", "--seed", "3", "--seed-corpus", "8",
    ]) == 0
    assert main([
        "submit", *common, "--tenant", "bob", "--size", "tiny",
        "--hours", "0.2", "--seed", "9", "--seed-corpus", "8",
        "--priority", "5", "--budget-hours", "1.0",
    ]) == 0
    return common


class TestServiceCli:
    def test_submit_serve_status_golden(self, tmp_path, capsys):
        common = _service_scenario(tmp_path / "svc")
        out = capsys.readouterr().out
        assert out == (
            "submitted job-1 for tenant alice: oracle on kernel 6.8, "
            "0.2h x 1 worker(s) [queued]\n"
            "submitted job-2 for tenant bob: oracle on kernel 6.8, "
            "0.2h x 1 worker(s) [queued]\n"
        )
        assert main(["serve", *common[:2]]) == 0
        report = capsys.readouterr().out
        golden = GOLDEN / "service_health.txt"
        assert report == golden.read_text()

    def test_status_variants_and_json(self, tmp_path, capsys):
        common = _service_scenario(tmp_path / "svc")
        assert main(["serve", *common[:2]]) == 0
        capsys.readouterr()

        assert main(["status", *common[:2], "--campaign", "job-1"]) == 0
        assert capsys.readouterr().out == (
            "job-1 [alice] done: 100.0% of 0.2h\n"
        )
        assert main([
            "status", *common[:2], "--campaign", "job-1", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == 200
        assert doc["body"]["job"]["state"] == "done"

        assert main([
            "status", *common[:2], "--tenant", "bob", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["body"]["completed"] == 1
        assert doc["body"]["budget_remaining"] == pytest.approx(0.8)

        assert main([
            "status", *common[:2], "--campaign", "job-99",
        ]) == 1
        assert "404" in capsys.readouterr().err

    def test_cancel_and_exit_codes(self, tmp_path, capsys):
        common = _service_scenario(tmp_path / "svc")
        capsys.readouterr()
        assert main(["cancel", *common[:2], "--campaign", "job-2"]) == 0
        assert "cancelled" in capsys.readouterr().out
        assert main(["cancel", *common[:2], "--campaign", "job-99"]) == 1
        assert "404" in capsys.readouterr().err

    def test_submit_rejects_bad_batch_size(self, tmp_path, capsys):
        state_dir = tmp_path / "svc"
        assert main([
            "submit", "--state-dir", str(state_dir), "--tenant", "alice",
            "--size", "tiny", "--hours", "0.1", "--batch-size", "-4",
        ]) == 1
        assert "error 400: batch size" in capsys.readouterr().err
        assert not (state_dir / "service.json").exists()

    def test_status_without_state_is_exit_two(self, tmp_path, capsys):
        assert main([
            "status", "--state-dir", str(tmp_path / "nowhere"),
        ]) == 2
        assert "no service state" in capsys.readouterr().err

    def test_serve_report_out_and_resume(self, tmp_path, capsys):
        import shutil

        state_dir = tmp_path / "svc"
        _service_scenario(state_dir)
        # Stop mid-run, then resume from two independent copies of the
        # checkpoint: the service-level contract is that every restore
        # of the same bytes replays the remaining schedule identically.
        assert main(["serve", "--state-dir", str(state_dir),
                     "--until", "360"]) == 0
        capsys.readouterr()
        outputs = []
        for name in ("copy-a", "copy-b"):
            clone = tmp_path / name
            shutil.copytree(state_dir, clone)
            report_path = clone / "health.txt"
            assert main([
                "serve", "--state-dir", str(clone),
                "--report-out", str(report_path),
            ]) == 0
            out = capsys.readouterr().out
            report = report_path.read_text()
            assert out.startswith(report)
            outputs.append(report)
        assert outputs[0] == outputs[1]
        assert "done" in outputs[0]
