"""The campaign orchestrator: many tenants, one fleet, one clock.

The orchestrator multiplexes admitted campaigns over a fixed-size
worker fleet on a single **service virtual clock**.  Scheduling is
event-driven and fully deterministic:

1. *Admission.*  Queued jobs are considered in ``(-priority,
   submit_seq)`` order; a job is admitted when its tenant is under
   ``max_concurrent`` and the fleet has ``spec.workers`` free slots
   (lower-priority jobs may fill slots a blocked job cannot use — the
   classic backfill compromise: strict FIFO-by-priority would idle the
   fleet, and the virtual clock makes the resulting schedule
   reproducible rather than racy).
2. *Time slicing.*  All running jobs advance together to the next event
   boundary — the earliest job completion, the caller's ``until``
   bound, or one ``time_slice`` — each job running on its *local*
   clock offset by its admission time.  Jobs are driven in job-id
   order; since jobs share no mutable state (see
   :mod:`repro.service.runner`), the drive order is invisible to
   results and exists only so the wall-clock schedule is stable.
3. *Completion.*  A job finishing frees its slots at a well-defined
   service time, which may admit queued work in the same pass.

Because every decision is a pure function of (specs, submission order,
virtual time), the whole orchestrator — sessions, job records, and each
job's execution state — checkpoints into JSON and resumes
bit-identically: two restores of the same bytes replay every tenant's
remaining schedule byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.kernel import Kernel, build_kernel
from repro.service.runner import JobRunner
from repro.service.session_manager import QuotaError, SessionManager
from repro.service.specs import CampaignSpec

__all__ = ["JobRecord", "Orchestrator", "SubmitError"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"


class SubmitError(Exception):
    """A submission the fleet can never run (4xx, not a server bug)."""


@dataclass
class JobRecord:
    """The control-plane view of one campaign.

    ``exec_state`` (a v7 ``loop_state``/``cluster_state`` payload) is
    only populated while the job is RUNNING and a serve pass is not
    holding the live runner; everything else is cheap JSON the status
    and health endpoints read without materializing any loops.
    """

    job_id: str
    spec: CampaignSpec
    state: str = QUEUED
    submit_seq: int = 0
    submitted_at: float = 0.0
    admitted_at: float | None = None
    finished_at: float | None = None
    cancel_requested: bool = False
    exec_state: dict | None = None
    timeseries: dict | None = None
    progress: list = field(default_factory=list)
    alerts: list = field(default_factory=list)
    result: dict | None = None
    message: str = ""

    @property
    def local_now(self) -> float:
        """How much job-local virtual time has been simulated."""
        if self.progress:
            return self.progress[-1][0]
        return 0.0

    def summary(self) -> dict:
        """The status-endpoint body (everything but bulk exec state)."""
        return {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "submitted_at": self.submitted_at,
            "admitted_at": self.admitted_at,
            "finished_at": self.finished_at,
            "cancel_requested": self.cancel_requested,
            "local_now": self.local_now,
            "horizon": self.spec.horizon,
            "alerts": list(self.alerts),
            "message": self.message,
        }

    def to_dict(self) -> dict:
        payload = self.summary()
        payload.pop("local_now")
        payload.pop("horizon")
        payload["submit_seq"] = self.submit_seq
        payload["exec_state"] = self.exec_state
        payload["timeseries"] = self.timeseries
        payload["progress"] = list(self.progress)
        payload["result"] = self.result
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        return cls(
            job_id=payload["job_id"],
            spec=CampaignSpec.from_dict(payload["spec"]),
            state=payload["state"],
            submit_seq=int(payload["submit_seq"]),
            submitted_at=float(payload["submitted_at"]),
            admitted_at=payload["admitted_at"],
            finished_at=payload["finished_at"],
            cancel_requested=bool(payload["cancel_requested"]),
            exec_state=payload["exec_state"],
            timeseries=payload["timeseries"],
            progress=list(payload["progress"]),
            alerts=list(payload["alerts"]),
            result=payload["result"],
            message=payload.get("message", ""),
        )


class Orchestrator:
    """Schedules campaigns over the shared fleet on the service clock."""

    def __init__(
        self,
        sessions: SessionManager,
        fleet_size: int = 4,
        time_slice: float = 1800.0,
    ):
        if fleet_size < 1:
            raise SubmitError(f"fleet_size must be >= 1, got {fleet_size}")
        if time_slice <= 0:
            raise SubmitError(f"time_slice must be > 0, got {time_slice}")
        self.sessions = sessions
        self.fleet_size = fleet_size
        self.time_slice = time_slice
        self.now = 0.0
        self.jobs: dict[str, JobRecord] = {}
        self._next_job = 1
        self._next_seq = 0

    # ----- queries -----

    def get(self, job_id: str) -> JobRecord | None:
        return self.jobs.get(job_id)

    def in_state(self, *states: str) -> list[JobRecord]:
        return sorted(
            (job for job in self.jobs.values() if job.state in states),
            key=lambda job: job.submit_seq,
        )

    @property
    def slots_used(self) -> int:
        return sum(job.spec.workers for job in self.in_state(RUNNING))

    @property
    def slots_free(self) -> int:
        return self.fleet_size - self.slots_used

    # ----- submission / cancellation (control ops, no loops) -----

    def submit(self, spec: CampaignSpec) -> JobRecord:
        """Admission-control a spec into the queue (charging its budget
        reservation), or raise :class:`SubmitError`/``QuotaError``."""
        if spec.workers > self.fleet_size:
            raise SubmitError(
                f"campaign needs {spec.workers} workers but the fleet "
                f"has {self.fleet_size}"
            )
        self.sessions.ensure(spec.tenant)
        self.sessions.reserve(spec.tenant, spec.cost_hours)
        job = JobRecord(
            job_id=f"job-{self._next_job}",
            spec=spec,
            submit_seq=self._next_seq,
            submitted_at=self.now,
        )
        self._next_job += 1
        self._next_seq += 1
        self.jobs[job.job_id] = job
        return job

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job immediately (full refund) or flag a
        running one for cancellation at its next slice boundary."""
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if job.state == QUEUED:
            job.state = CANCELLED
            job.finished_at = self.now
            job.message = "cancelled while queued"
            self.sessions.refund(job.spec.tenant, job.spec.cost_hours)
            self.sessions.note_cancelled_queued(job.spec.tenant)
        elif job.state == RUNNING:
            job.cancel_requested = True
            job.message = "cancellation requested"
        else:
            raise SubmitError(
                f"{job_id} is already {job.state}, cannot cancel"
            )
        return job

    # ----- the scheduler -----

    def advance(self, until: float | None = None) -> dict:
        """Drive the service clock forward; returns a progress summary.

        ``until`` bounds the service virtual time (``None`` runs until
        every admitted job finishes).  Still-running jobs are
        de-materialized back into their records' ``exec_state`` on
        return, so the orchestrator itself stays fully serializable
        between calls.
        """
        bound = math.inf if until is None else float(until)
        kernels: dict[tuple, Kernel] = {}
        runners: dict[str, JobRunner] = {}
        for job in self.in_state(RUNNING):
            runners[job.job_id] = self._materialize(job, kernels)
        while True:
            self._apply_cancellations(runners)
            self._admit(runners, kernels)
            running = self.in_state(RUNNING)
            if not running:
                # Nothing runnable: with free slots the queue would have
                # been admitted above, so the queue is empty too.
                break
            target = min(
                min(
                    job.admitted_at + runners[job.job_id].horizon
                    for job in running
                ),
                self.now + self.time_slice,
                bound,
            )
            for job in running:
                runners[job.job_id].run_until(target - job.admitted_at)
            self.now = max(self.now, target)
            for job in running:
                runner = runners[job.job_id]
                if target >= job.admitted_at + runner.horizon:
                    runner.run_out()
                if runner.done:
                    self._finish(job, runner)
                    del runners[job.job_id]
            if self.now >= bound:
                break
        self._apply_cancellations(runners)
        for job_id, runner in runners.items():
            job = self.jobs[job_id]
            job.exec_state = runner.state_dict()
            job.progress = runner.progress()
            job.alerts = runner.alerts()
        return {
            "now": self.now,
            "running": [job.job_id for job in self.in_state(RUNNING)],
            "queued": [job.job_id for job in self.in_state(QUEUED)],
            "done": [job.job_id for job in self.in_state(DONE)],
            "cancelled": [job.job_id for job in self.in_state(CANCELLED)],
        }

    def _admit(
        self, runners: dict[str, JobRunner], kernels: dict[tuple, Kernel]
    ) -> None:
        """Admit queued jobs into free slots, priority first."""
        while True:
            queued = sorted(
                self.in_state(QUEUED),
                key=lambda job: (
                    -self.sessions.get(job.spec.tenant).quota.priority,
                    job.submit_seq,
                ),
            )
            admitted = False
            free = self.slots_free
            for job in queued:
                session = self.sessions.get(job.spec.tenant)
                if session.running >= session.quota.max_concurrent:
                    continue
                if job.spec.workers > free:
                    continue
                job.state = RUNNING
                job.admitted_at = self.now
                job.message = ""
                self.sessions.admit(job.spec.tenant)
                runners[job.job_id] = self._materialize(job, kernels)
                admitted = True
                break
            if not admitted:
                return

    def _apply_cancellations(self, runners: dict[str, JobRunner]) -> None:
        for job in self.in_state(RUNNING):
            if not job.cancel_requested:
                continue
            runner = runners.pop(job.job_id)
            job.state = CANCELLED
            job.finished_at = self.now
            job.message = (
                f"cancelled mid-run at local t={runner.now:.0f}s"
            )
            job.result = runner.finalize()
            job.result["partial"] = True
            job.progress = runner.progress()
            job.alerts = runner.alerts()
            job.timeseries = runner.observer.timeseries.state_dict()
            job.exec_state = None
            unused = job.spec.workers * max(
                0.0, (runner.horizon - runner.now)
            ) / 3600.0
            self.sessions.refund(job.spec.tenant, unused)
            self.sessions.release(job.spec.tenant, cancelled=True)

    def _finish(self, job: JobRecord, runner: JobRunner) -> None:
        job.result = runner.finalize()
        job.state = DONE
        job.finished_at = self.now
        job.progress = runner.progress()
        job.alerts = runner.alerts()
        job.timeseries = runner.observer.timeseries.state_dict()
        job.exec_state = None
        job.message = ""
        self.sessions.release(job.spec.tenant)

    def _materialize(
        self, job: JobRecord, kernels: dict[tuple, Kernel]
    ) -> JobRunner:
        """The job's runner, on the pass's one built kernel for its
        ``(version, kernel seed, size)``: a fresh job is seeded, a
        running one restored from its ``exec_state``."""
        spec = job.spec
        key = (spec.kernel, spec.kernel_seed, spec.size)
        if key not in kernels:
            kernels[key] = build_kernel(
                spec.kernel, seed=spec.kernel_seed, size=spec.size
            )
        return JobRunner(spec, kernels[key], job.exec_state)

    # ----- checkpointing (format v7 control layer) -----

    def state_dict(self) -> dict:
        return {
            "now": self.now,
            "fleet_size": self.fleet_size,
            "time_slice": self.time_slice,
            "next_job": self._next_job,
            "next_seq": self._next_seq,
            "jobs": [
                self.jobs[job_id].to_dict()
                for job_id in sorted(
                    self.jobs, key=lambda jid: self.jobs[jid].submit_seq
                )
            ],
        }

    def restore(self, state: dict) -> None:
        self.now = float(state["now"])
        self.fleet_size = int(state["fleet_size"])
        self.time_slice = float(state["time_slice"])
        self._next_job = int(state["next_job"])
        self._next_seq = int(state["next_seq"])
        self.jobs = {}
        for payload in state["jobs"]:
            job = JobRecord.from_dict(payload)
            self.jobs[job.job_id] = job
