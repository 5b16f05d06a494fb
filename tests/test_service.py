"""The campaign service: routing, quotas, scheduling, determinism.

The expensive invariants — standalone-vs-multiplexed bit-identity and
the two-independent-restores resume contract — run on tiny kernels so
the whole module stays in tier-1 time budget.
"""

import json

import pytest

from repro.errors import CheckpointError
from repro.service import (
    CampaignSpec,
    JobRunner,
    Quota,
    QuotaError,
    Request,
    Response,
    ServiceServer,
    SessionManager,
    SpecError,
    encode_signature,
    format_service_health,
    load_service,
    match,
    save_service,
    service_exists,
    service_health,
)
from repro.kernel import build_kernel
from repro.snowplow import build_fuzz_loop, fuzz_campaign_config, fuzz_run_seed


def _spec_params(tenant, **overrides):
    params = {
        "tenant": tenant, "size": "tiny", "mode": "oracle",
        "hours": 0.2, "seed": 3, "seed_corpus": 8,
    }
    params.update(overrides)
    return params


def _submit(server, tenant, **overrides):
    response = server.handle(
        Request("POST", "/campaigns", _spec_params(tenant, **overrides))
    )
    assert response.status == 201, response.body
    return response.body["job"]["job_id"]


def _advance(server, until=None):
    params = {} if until is None else {"until": until}
    response = server.handle(Request("POST", "/advance", params))
    assert response.ok
    return response.body


def _result(server, job_id):
    response = server.handle(Request("GET", f"/campaigns/{job_id}/result"))
    assert response.status == 200, response.body
    return response.body["result"]


class TestRoutes:
    def test_match_binds_path_params(self):
        assert match("GET", "/health") == ("health", {})
        assert match("POST", "/campaigns") == ("submit", {})
        assert match("GET", "/campaigns/job-7") == (
            "status", {"job_id": "job-7"}
        )
        assert match("GET", "/campaigns/job-7/progress") == (
            "progress", {"job_id": "job-7"}
        )
        assert match("POST", "/campaigns/job-7/cancel") == (
            "cancel", {"job_id": "job-7"}
        )
        assert match("GET", "/tenants/alice") == (
            "tenant_status", {"tenant": "alice"}
        )

    def test_match_rejects_unknown(self):
        assert match("GET", "/nope") is None
        assert match("DELETE", "/campaigns/job-1") is None
        assert match("GET", "/campaigns/job-1/nope") is None

    def test_unknown_route_is_404(self):
        response = ServiceServer().handle(Request("GET", "/nope"))
        assert response.status == 404 and not response.ok

    def test_response_json_is_canonical(self):
        response = Response(200, {"b": 1, "a": 2})
        doc = json.loads(response.json())
        assert doc == {"status": 200, "body": {"a": 2, "b": 1}}
        assert response.json().index('"a"') < response.json().index('"b"')


class TestCampaignSpec:
    def test_round_trip(self):
        spec = CampaignSpec(**_spec_params("alice", workers=2, shards=2))
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert spec.horizon == pytest.approx(720.0)
        assert spec.cost_hours == pytest.approx(0.4)

    @pytest.mark.parametrize("bad", [
        {"tenant": ""},
        {"mode": "psychic"},
        {"hours": 0.0},
        {"hours": -1.0},
        {"workers": 0},
        {"shards": 0},
        {"seed_corpus": 0},
        {"size": "galactic"},
        {"mode": "model"},  # model mode requires a checkpoint path
        {"kernel": "9.9"},
        {"batch_size": 0},
        {"batch_size": -4},
    ])
    def test_validation(self, bad):
        params = _spec_params("alice")
        params.update(bad)
        with pytest.raises(SpecError):
            CampaignSpec(**params)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown"):
            CampaignSpec.from_dict(_spec_params("alice", bogus=1))


class TestSessionManager:
    def test_budget_reserve_refund_reject(self):
        sessions = SessionManager()
        sessions.ensure("alice", Quota(budget_hours=1.0))
        sessions.reserve("alice", 0.7)
        assert sessions.get("alice").budget_remaining == pytest.approx(0.3)
        with pytest.raises(QuotaError):
            sessions.reserve("alice", 0.5)
        assert sessions.get("alice").rejected == 1
        sessions.refund("alice", 0.2)
        assert sessions.get("alice").budget_remaining == pytest.approx(0.5)
        sessions.reserve("alice", 0.5)

    def test_explicit_quota_redeclares(self):
        sessions = SessionManager()
        sessions.ensure("alice")
        assert sessions.get("alice").quota == Quota()
        sessions.ensure("alice", Quota(priority=9, budget_hours=2.0))
        assert sessions.get("alice").quota.priority == 9
        # A later ensure without a quota keeps the declared one.
        sessions.ensure("alice")
        assert sessions.get("alice").quota.priority == 9

    def test_quota_validation(self):
        with pytest.raises(QuotaError):
            Quota(max_concurrent=0)
        with pytest.raises(QuotaError):
            Quota(budget_hours=0.0)


def _tiny_checkpoint(path):
    """An untrained tiny-6.8 PMM saved to ``path``."""
    from repro.graphs import AsmVocab, GraphEncoder
    from repro.pmm import PMM, PMMConfig
    from repro.pmm.checkpoint import save_pmm

    kernel = build_kernel("6.8", seed=1, size="tiny")
    vocab = AsmVocab.build(kernel)
    encoder = GraphEncoder(vocab, kernel.table)
    model = PMM(
        len(vocab), encoder.num_syscalls,
        PMMConfig(dim=16, gnn_layers=1, asm_layers=1, asm_heads=2, seed=3),
    )
    save_pmm(path, model, vocab, kernel.table)
    return path


class TestJobRunner:
    def test_model_job_builds_its_kernel_once(self, tmp_path, monkeypatch):
        """The PMM checkpoint loads against the job's own kernel table;
        materializing a model-mode job builds one kernel, not two."""
        import repro.service.runner as runner_module

        path = _tiny_checkpoint(tmp_path / "pmm.npz")
        builds = []

        def counting_build(*args, **kwargs):
            builds.append((args, kwargs))
            return build_kernel(*args, **kwargs)

        monkeypatch.setattr(runner_module, "build_kernel", counting_build)
        runner = JobRunner(CampaignSpec(
            tenant="alice", size="tiny", mode="model", model=str(path),
            hours=0.1, seed_corpus=4,
        ))
        assert len(builds) == 1
        assert runner.loop is not None
        assert runner.loop.pmm_localizer.model is not None


class TestModelSubmit:
    """A model-mode campaign's checkpoint is checked once, at submit."""

    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_bad_checkpoint_is_400(self, tmp_path, damage):
        path = tmp_path / "pmm.npz"
        if damage == "truncated":
            raw = _tiny_checkpoint(path).read_bytes()
            path.write_bytes(raw[: len(raw) // 2])
        server = ServiceServer(fleet_size=2)
        response = server.handle(Request("POST", "/campaigns", _spec_params(
            "alice", mode="model", model=str(path),
        )))
        assert response.status == 400
        assert str(path) in response.body["error"]
        assert server.orchestrator.jobs == {}
        listed = server.handle(Request("GET", "/campaigns"))
        assert listed.body["jobs"] == []

    def test_good_checkpoint_runs_to_done(self, tmp_path):
        path = _tiny_checkpoint(tmp_path / "pmm.npz")
        server = ServiceServer(fleet_size=2)
        job_id = _submit(
            server, "alice", mode="model", model=str(path), hours=0.1,
            seed_corpus=4,
        )
        assert _advance(server)["done"] == [job_id]
        result = _result(server, job_id)
        assert result["mode"] == "model"
        assert result["executions"] > 0


class TestShapeSubmit:
    def test_unbuildable_spec_is_400_and_stalls_no_tenant(self):
        """A spec no job can build is refused at submit, so it never
        reaches the fleet and every other tenant's job still runs."""
        server = ServiceServer(fleet_size=2)
        response = server.handle(Request(
            "POST", "/campaigns", _spec_params("alice", kernel="9.9"),
        ))
        assert response.status == 400
        assert "9.9" in response.body["error"]
        assert server.orchestrator.jobs == {}
        job_id = _submit(server, "bob", hours=0.1, seed_corpus=4)
        assert _advance(server)["done"] == [job_id]


class TestServiceLifecycle:
    def test_submit_advance_result(self):
        server = ServiceServer(fleet_size=2)
        job_id = _submit(server, "alice")
        status = server.handle(Request("GET", f"/campaigns/{job_id}"))
        assert status.body["job"]["state"] == "queued"
        # Result before completion is a conflict, not an error.
        early = server.handle(Request("GET", f"/campaigns/{job_id}/result"))
        assert early.status == 409
        summary = _advance(server)
        assert summary["done"] == [job_id]
        result = _result(server, job_id)
        assert result["final_edges"] > 0
        assert result["executions"] > 0
        assert result["mode"] == "oracle"

    def test_quota_rejection_is_403(self):
        server = ServiceServer()
        _submit(server, "alice", budget_hours=0.3)
        response = server.handle(
            Request("POST", "/campaigns", _spec_params("alice"))
        )
        assert response.status == 403
        assert "budget" in response.body["error"]
        tenant = server.handle(Request("GET", "/tenants/alice"))
        assert tenant.body["rejected"] == 1

    def test_fleet_cap_rejects_oversized_campaign(self):
        server = ServiceServer(fleet_size=2)
        response = server.handle(
            Request("POST", "/campaigns", _spec_params("alice", workers=3))
        )
        assert response.status == 400

    def test_priority_admission_and_backfill(self):
        # One slot: alice submits first, but bob outranks her; carol's
        # 2-worker job cannot fit and is backfilled past.
        server = ServiceServer(fleet_size=1, time_slice=120.0)
        first = _submit(server, "alice")
        second = _submit(server, "bob", priority=5)
        summary = _advance(server, until=60.0)
        assert summary["running"] == [second]
        assert summary["queued"] == [first]
        summary = _advance(server)
        assert set(summary["done"]) == {first, second}
        # bob finished strictly before alice started.
        bob = server.orchestrator.get(second)
        alice = server.orchestrator.get(first)
        assert alice.admitted_at >= bob.finished_at

    def test_max_concurrent_holds_jobs_back(self):
        server = ServiceServer(fleet_size=4, time_slice=120.0)
        jobs = [
            _submit(server, "alice", max_concurrent=1, seed=seed)
            for seed in (1, 2)
        ]
        summary = _advance(server, until=60.0)
        assert summary["running"] == [jobs[0]]
        assert summary["queued"] == [jobs[1]]
        _advance(server)
        tenant = server.handle(Request("GET", "/tenants/alice"))
        assert tenant.body["completed"] == 2

    def test_cancel_queued_refunds_fully(self):
        server = ServiceServer(fleet_size=1)
        _submit(server, "alice")
        queued = _submit(server, "alice")  # max_concurrent=2, one slot
        cancel = server.handle(
            Request("POST", f"/campaigns/{queued}/cancel")
        )
        assert cancel.ok
        assert cancel.body["job"]["state"] == "cancelled"
        tenant = server.handle(Request("GET", "/tenants/alice"))
        assert tenant.body["budget_remaining"] == pytest.approx(
            tenant.body["quota"]["budget_hours"] - 0.2
        )

    def test_cancel_running_yields_partial_result(self):
        server = ServiceServer(time_slice=120.0)
        job_id = _submit(server, "alice")
        _advance(server, until=240.0)
        cancel = server.handle(Request("POST", f"/campaigns/{job_id}/cancel"))
        assert cancel.ok
        _advance(server, until=360.0)
        job = server.orchestrator.get(job_id)
        assert job.state == "cancelled"
        result = _result(server, job_id)
        assert result["partial"] is True
        # Unused horizon came back to the budget.
        tenant = server.handle(Request("GET", "/tenants/alice"))
        assert tenant.body["refunded_hours"] > 0.0

    def test_cancel_missing_campaign_is_404(self):
        response = ServiceServer().handle(
            Request("POST", "/campaigns/job-99/cancel")
        )
        assert response.status == 404

    def test_progress_streaming_since(self):
        server = ServiceServer()
        job_id = _submit(server, "alice")
        _advance(server)
        full = server.handle(
            Request("GET", f"/campaigns/{job_id}/progress")
        ).body
        assert full["observations"]
        cut = full["observations"][1][0]
        tail = server.handle(Request(
            "GET", f"/campaigns/{job_id}/progress", {"since": cut}
        )).body
        assert tail["observations"] == [
            row for row in full["observations"] if row[0] > cut
        ]
        # Edge counts are cumulative, hence monotone.
        edges = [row[1] for row in full["observations"]]
        assert edges == sorted(edges)

    def test_progress_series_slice(self):
        server = ServiceServer()
        job_id = _submit(server, "alice")
        _advance(server)
        body = server.handle(Request(
            "GET", f"/campaigns/{job_id}/progress",
            {"series": "fuzz.corpus"},
        )).body
        assert body["series"]
        assert all("fuzz.corpus" in key for key in body["series"])

    def test_health_snapshot_and_report(self):
        server = ServiceServer()
        _submit(server, "alice")
        _submit(server, "bob", priority=2)
        _advance(server)
        health = server.handle(Request("GET", "/health")).body
        assert health == service_health(server)
        assert {s["tenant"] for s in health["sessions"]} == {"alice", "bob"}
        assert all(job["state"] == "done" for job in health["jobs"])
        report = format_service_health(health)
        assert "=== service health ===" in report
        assert "--- tenants ---" in report and "--- campaigns ---" in report
        assert "alice" in report and "bob" in report


class TestServiceDeterminism:
    def test_multiplexed_equals_standalone(self):
        """The acceptance bar: a campaign's result signature is identical
        whether run alone via the fuzz builders or interleaved with other
        tenants on a small fleet."""
        params = _spec_params("alice", seed=11)
        kernel = build_kernel("6.8", seed=1, size=params["size"])
        config = fuzz_campaign_config(
            params["hours"], params["seed"], params["seed_corpus"]
        )
        run_seed = fuzz_run_seed(params["seed"], kernel.version)
        standalone = build_fuzz_loop(
            kernel, None, run_seed, config, oracle=True
        ).run()

        server = ServiceServer(fleet_size=2, time_slice=90.0)
        job_id = _submit(server, "alice", seed=params["seed"])
        _submit(server, "bob", seed=5)
        _submit(server, "carol", seed=7, hours=0.1)
        _advance(server)
        result = _result(server, job_id)
        assert result["signature"] == encode_signature(
            standalone.signature()
        )

    def test_kill_and_two_independent_resumes(self, tmp_path):
        """Service-level resume: interrupt mid-run, restore the same
        bytes twice, and the two futures match byte-for-byte."""
        server = ServiceServer(fleet_size=2, time_slice=90.0)
        jobs = [
            _submit(server, "alice", seed=21),
            _submit(server, "bob", seed=22, priority=1),
        ]
        _advance(server, until=0.8 * 720.0)
        save_service(tmp_path, server)
        assert service_exists(tmp_path)

        outcomes = []
        for _ in range(2):
            resumed = load_service(tmp_path)
            _advance(resumed)
            outcomes.append(json.dumps(
                [_result(resumed, job_id) for job_id in jobs],
                sort_keys=True,
            ))
        assert outcomes[0] == outcomes[1]
        # Degradation accounting shows these runs actually resumed.
        doc = json.loads(outcomes[0])
        assert all(
            entry["degradation"]["inference_failures"] >= 0
            for entry in doc
        )

    def test_checkpoint_kind_is_validated(self, tmp_path):
        from repro.snowplow.checkpointing import save_checkpoint

        save_checkpoint(tmp_path / "service.json", {"kind": "pickle"})
        with pytest.raises(CheckpointError, match="not a service"):
            load_service(tmp_path)

    def test_fault_plan_round_trips_through_spec(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=5).with_rate(
            "exec_timeout", 0.01
        ).with_campaign_crash(300.0)
        payload = plan.to_dict()
        assert FaultPlan.from_dict(payload).to_dict() == payload
        server = ServiceServer()
        job_id = _submit(server, "alice", faults=payload)
        _advance(server)
        result = _result(server, job_id)
        assert result["final_edges"] > 0
