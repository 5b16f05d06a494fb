"""The in-process API server: dispatch, handlers, service state.

One :class:`ServiceServer` owns the whole control plane — the tenant
:class:`~repro.service.session_manager.SessionManager` and the
:class:`~repro.service.orchestrator.Orchestrator` — and exposes it
through :meth:`handle`, the single entry point every client (the CLI's
``repro submit/status/cancel``, tests, CI) drives with
:class:`~repro.service.routes.Request` objects.

Handlers are thin: they translate between wire payloads and the
orchestrator/session API, mapping domain errors to 4xx responses.  The
server itself is serializable (:meth:`state_dict`/:meth:`restore`),
which the service checkpoint (:mod:`repro.service.checkpoint`) wraps in
the digest-checked v7 envelope.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.observe import TimeSeriesStore
from repro.service.orchestrator import Orchestrator, SubmitError
from repro.service.routes import Request, Response, match
from repro.service.session_manager import Quota, QuotaError, SessionManager
from repro.service.specs import CampaignSpec, SpecError
from repro.snowplow.campaign import TrainedPMM
from repro.syzlang import build_standard_table

__all__ = ["ServiceServer"]


def _check_model(spec: CampaignSpec) -> None:
    """Reject a model-mode spec whose checkpoint does not load against
    its release's syscall table.  Runs once, at submit: a job that was
    accepted must not fail on every later ``/advance``.  Loading needs
    only the table, not a kernel build."""
    try:
        TrainedPMM.load(spec.model, build_standard_table(spec.kernel))
    except ReproError as error:
        raise SpecError(str(error)) from error


class ServiceServer:
    """The multi-tenant campaign service, minus the transport."""

    def __init__(self, fleet_size: int = 4, time_slice: float = 1800.0):
        self.sessions = SessionManager()
        self.orchestrator = Orchestrator(
            self.sessions, fleet_size=fleet_size, time_slice=time_slice
        )

    # ----- dispatch -----

    def handle(self, request: Request) -> Response:
        resolved = match(request.method, request.path)
        if resolved is None:
            return Response(404, {
                "error": f"no route for {request.method} {request.path}",
            })
        handler_name, path_params = resolved
        handler = getattr(self, f"_handle_{handler_name}")
        try:
            return handler(dict(request.params), **path_params)
        except (SpecError, QuotaError, SubmitError) as error:
            status = 403 if isinstance(error, QuotaError) else 400
            return Response(status, {"error": str(error)})

    # ----- handlers -----

    def _handle_submit(self, params: dict) -> Response:
        quota = None
        overrides = {
            key: params.pop(key)
            for key in ("max_concurrent", "budget_hours", "priority")
            if params.get(key) is not None
        }
        params.pop("max_concurrent", None)
        params.pop("budget_hours", None)
        params.pop("priority", None)
        spec = CampaignSpec.from_dict(params)
        if spec.mode == "model":
            _check_model(spec)
        if overrides:
            base = self.sessions.get(spec.tenant)
            current = base.quota if base is not None else Quota()
            quota = Quota(
                max_concurrent=int(
                    overrides.get("max_concurrent", current.max_concurrent)
                ),
                budget_hours=float(
                    overrides.get("budget_hours", current.budget_hours)
                ),
                priority=int(overrides.get("priority", current.priority)),
            )
        self.sessions.ensure(spec.tenant, quota)
        job = self.orchestrator.submit(spec)
        return Response(201, {"job": job.summary()})

    def _handle_list_campaigns(self, params: dict) -> Response:
        tenant = params.get("tenant")
        jobs = [
            job.summary()
            for job in self.orchestrator.in_state(
                "queued", "running", "done", "cancelled"
            )
            if tenant is None or job.spec.tenant == tenant
        ]
        return Response(200, {"jobs": jobs})

    def _handle_status(self, params: dict, job_id: str) -> Response:
        job = self.orchestrator.get(job_id)
        if job is None:
            return Response(404, {"error": f"no campaign {job_id!r}"})
        return Response(200, {"job": job.summary()})

    def _handle_progress(self, params: dict, job_id: str) -> Response:
        """The streaming endpoint: rows (and optionally time-series
        points) strictly after ``since``, so clients poll with the last
        timestamp they hold and receive only what is new."""
        job = self.orchestrator.get(job_id)
        if job is None:
            return Response(404, {"error": f"no campaign {job_id!r}"})
        since = params.get("since")
        since = float(since) if since is not None else None
        rows = [
            row for row in job.progress
            if since is None or row[0] > since
        ]
        body = {
            "job_id": job_id,
            "state": job.state,
            "local_now": job.local_now,
            "horizon": job.spec.horizon,
            "observations": rows,
        }
        pattern = params.get("series")
        if pattern is not None:
            store = self._job_timeseries(job)
            body["series"] = (
                store.slice(pattern, since) if store is not None else {}
            )
        return Response(200, body)

    def _handle_result(self, params: dict, job_id: str) -> Response:
        job = self.orchestrator.get(job_id)
        if job is None:
            return Response(404, {"error": f"no campaign {job_id!r}"})
        if job.result is None:
            return Response(409, {
                "error": f"{job_id} is {job.state}, no result yet",
                "state": job.state,
            })
        return Response(200, {
            "job_id": job_id, "state": job.state, "result": job.result,
        })

    def _handle_lineage(self, params: dict, job_id: str) -> Response:
        """Per-tenant lineage: the job's attribution table and lineage
        summary.  Served from the finished result payload, or rebuilt
        from the job's own exec-state checkpoint while it runs — each
        tenant's ledger comes only from its own campaign state, so
        lineage stays isolated exactly like the rest of exec state."""
        from repro.observe import attribution_table

        job = self.orchestrator.get(job_id)
        if job is None:
            return Response(404, {"error": f"no campaign {job_id!r}"})
        if job.result is not None:
            return Response(200, {
                "job_id": job_id,
                "state": job.state,
                "attribution": job.result.get("attribution", []),
                "summary": job.result.get("lineage_summary", {}),
            })
        log = self._job_provenance(job)
        if log is None:
            return Response(409, {
                "error": f"{job_id} is {job.state}, no lineage yet",
                "state": job.state,
            })
        return Response(200, {
            "job_id": job_id,
            "state": job.state,
            "attribution": attribution_table(log),
            "summary": log.summary(),
        })

    def _handle_cancel(self, params: dict, job_id: str) -> Response:
        try:
            job = self.orchestrator.cancel(job_id)
        except KeyError:
            return Response(404, {"error": f"no campaign {job_id!r}"})
        return Response(200, {"job": job.summary()})

    def _handle_tenant_status(self, params: dict, tenant: str) -> Response:
        session = self.sessions.get(tenant)
        if session is None:
            return Response(404, {"error": f"no tenant {tenant!r}"})
        body = session.to_dict()
        body["budget_remaining"] = session.budget_remaining
        body["jobs"] = [
            job.job_id
            for job in self.orchestrator.in_state(
                "queued", "running", "done", "cancelled"
            )
            if job.spec.tenant == tenant
        ]
        return Response(200, body)

    def _handle_health(self, params: dict) -> Response:
        from repro.service.health import service_health

        return Response(200, service_health(self))

    def _handle_advance(self, params: dict) -> Response:
        until = params.get("until")
        summary = self.orchestrator.advance(
            float(until) if until is not None else None
        )
        return Response(200, summary)

    # ----- helpers -----

    def _job_timeseries(self, job) -> TimeSeriesStore | None:
        """A job's per-campaign TimeSeriesStore, rebuilt from control
        state: the finish-time snapshot for finished jobs, the observer
        slice of the exec checkpoint for running ones — never by
        materializing loops."""
        state = job.timeseries
        if state is None and job.exec_state is not None:
            observer = job.exec_state["state"].get("observer")
            if observer is not None:
                state = observer.get("timeseries")
        if state is None:
            return None
        store = TimeSeriesStore()
        store.restore(state)
        return store

    def _job_provenance(self, job):
        """A running job's merged ProvenanceLog, rebuilt from its exec
        checkpoint (loop ``provenance`` slices plus the hub's) — never
        by materializing loops."""
        from repro.observe import ProvenanceLog

        if job.exec_state is None:
            return None
        kind = job.exec_state.get("kind")
        state = job.exec_state.get("state", {})
        logs = []

        def from_state(payload):
            if payload is None:
                return
            log = ProvenanceLog()
            log.restore(payload)
            logs.append(log)

        if kind == "loop":
            from_state(state.get("provenance"))
        elif kind == "cluster":
            for worker in state.get("workers", []):
                from_state(worker.get("loop", {}).get("provenance"))
            from_state(state.get("hub", {}).get("provenance"))
        if not logs:
            return None
        return ProvenanceLog.merge(logs)

    # ----- checkpointing -----

    def state_dict(self) -> dict:
        return {
            "sessions": self.sessions.state_dict(),
            "orchestrator": self.orchestrator.state_dict(),
        }

    def restore(self, state: dict) -> None:
        self.sessions.restore(state["sessions"])
        self.orchestrator.restore(state["orchestrator"])
