"""The campaign service: routing, quotas, scheduling, determinism.

The expensive invariants — standalone-vs-multiplexed bit-identity and
the two-independent-restores resume contract — run on tiny kernels so
the whole module stays in tier-1 time budget.
"""

import json

import pytest

import repro.service.orchestrator as orchestrator_module
import repro.snowplow.campaign as campaign_module
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


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``build_kernel`` (every kernel the orchestrator builds)
    and ``campaign_seeds`` (every seed corpus a job makes)."""
    counts = {"build_kernel": 0, "campaign_seeds": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(orchestrator_module, "build_kernel")
    counting(campaign_module, "campaign_seeds")
    return counts


def _kernel(spec):
    return build_kernel(spec.kernel, seed=spec.kernel_seed, size=spec.size)


def _finish(runner):
    """Drive a runner to its horizon, as the orchestrator does, and
    return its result payload."""
    runner.run_until(runner.horizon)
    runner.run_out()
    assert runner.done
    return runner.finalize()


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _exec_state(runner) -> str:
    """A runner's checkpoint state without its diagnostic series: the
    profiler's gauges count work in this process (a seeded build's
    discarded seed corpus included) and stay out of every export."""
    state = runner.state_dict()
    registry = state["state"]["observer"]["registry"]
    registry["series"] = [
        series for series in registry["series"] if not series["diagnostic"]
    ]
    return _canonical(state)


class TestJobRunner:
    def test_model_job_builds_its_kernel_once(self, tmp_path, calls):
        """The PMM checkpoint loads against the job's own kernel table;
        materializing a model-mode job builds one kernel, not two."""
        path = _tiny_checkpoint(tmp_path / "pmm.npz")
        server = ServiceServer(fleet_size=1, time_slice=90.0)
        job_id = _submit(
            server, "alice", mode="model", model=str(path),
            hours=0.1, seed_corpus=4,
        )
        runner = server.orchestrator._materialize(
            server.orchestrator.get(job_id), {}
        )
        assert calls["build_kernel"] == 1
        assert runner.loop is not None
        assert runner.loop.pmm_localizer.model is not None

    def test_runners_share_only_the_kernel(self):
        """Two jobs handed one built kernel share it and nothing
        mutable: executors, corpora, RNG streams, hubs and tiers are
        each job's own, even for identical specs."""
        spec = CampaignSpec(
            tenant="alice", size="tiny", hours=0.1, seed_corpus=4,
            workers=2, shards=2,
        )
        kernel = _kernel(spec)
        first, second = JobRunner(spec, kernel), JobRunner(spec, kernel)
        assert first.kernel is second.kernel is kernel
        assert first.cluster.hub is not second.cluster.hub
        assert first.cluster.tier is not second.cluster.tier
        assert first.cluster.tier.service is not second.cluster.tier.service
        assert first.observer is not second.observer
        loops = [
            worker.loop
            for runner in (first, second)
            for worker in runner.cluster.workers
        ]
        for attribute in (
            lambda loop: loop.executor,
            lambda loop: loop.corpus,
            lambda loop: loop.rng,
            lambda loop: loop.engine.rng,
            lambda loop: loop.engine.generator.rng,
            lambda loop: loop.executor._rng,
        ):
            objects = [attribute(loop) for loop in loops]
            assert len({id(obj) for obj in objects}) == len(loops)
        single = CampaignSpec(
            tenant="bob", size="tiny", hours=0.1, seed_corpus=4,
        )
        one, two = JobRunner(single, kernel), JobRunner(single, kernel)
        assert one.loop.executor is not two.loop.executor
        assert one.loop.corpus is not two.loop.corpus
        assert one.loop.rng is not two.loop.rng

    @pytest.mark.parametrize("shape, restarts", [
        (dict(seed=3), 0),
        (dict(seed=4, workers=2, shards=2), 0),
        # Worker 1 dies at 250 s of 360, after the checkpoint at 180 s.
        (dict(
            seed=5, workers=2, shards=2, heartbeat_deadline=60.0,
            faults={"seed": 3, "windows": [["worker_kill:1", 250.0, 250.0]]},
        ), 1),
    ], ids=["loop", "sharded-cluster", "supervised-cluster"])
    def test_unseeded_restore_equals_seeded_restore(
        self, shape, restarts, calls
    ):
        """A runner built unseeded and restored is the runner a seeded
        build plus restore gives: same state, same result.  It makes no
        seed corpus, except once when the supervisor restarts a worker."""
        spec = CampaignSpec(
            tenant="alice", size="tiny", hours=0.1, seed_corpus=6, **shape
        )
        kernel = _kernel(spec)
        source = JobRunner(spec, kernel)
        source.run_until(0.5 * source.horizon)
        state = json.loads(json.dumps(source.state_dict()))
        seeded = JobRunner(spec, kernel)
        seeded.restore(state)
        made = calls["campaign_seeds"]
        unseeded = JobRunner(spec, kernel, state)
        assert calls["campaign_seeds"] == made
        assert _exec_state(unseeded) == _exec_state(seeded)

        seeded_result = _finish(seeded)
        assert calls["campaign_seeds"] == made
        result = _finish(unseeded)
        assert calls["campaign_seeds"] == made + restarts
        assert result.get("restarts", 0) == restarts
        assert _canonical(result) == _canonical(seeded_result)
        assert _exec_state(unseeded) == _exec_state(seeded)


class TestSharedKernel:
    def test_one_kernel_per_advance_and_seeds_only_at_admission(
        self, tmp_path, calls
    ):
        """Three tenants on one kernel key, advanced and reloaded over
        several rounds: one kernel build per ``/advance``, not one per
        job, and a seed corpus per admission only, never per restore."""
        server = ServiceServer(fleet_size=4, time_slice=90.0)
        jobs = [
            _submit(server, "alice", hours=0.1, seed=3, seed_corpus=6),
            _submit(server, "bob", hours=0.1, seed=4, seed_corpus=6),
            _submit(server, "carol", hours=0.1, seed=5, seed_corpus=6,
                    workers=2, shards=2),
        ]
        advances = 0
        for until in (90.0, 180.0, 270.0):
            summary = _advance(server, until=until)
            advances += 1
            assert summary["running"] == jobs
            assert calls["build_kernel"] == advances
            save_service(tmp_path, server)
            server = load_service(tmp_path)
        assert calls["campaign_seeds"] == len(jobs)
        summary = _advance(server)
        assert summary["done"] == jobs
        assert calls["build_kernel"] == advances + 1
        assert calls["campaign_seeds"] == len(jobs)


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
