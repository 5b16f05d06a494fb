"""Campaign-as-a-service: the multi-tenant control plane.

The ROADMAP's "millions of users" direction: many tenants submit
fuzzing campaigns (kernel release, config, seed) to one service, which
admission-controls them against per-tenant quotas, schedules them over
a shared worker fleet on a single virtual clock, exposes live progress
and SLO posture through :mod:`repro.observe`, and checkpoint/resumes
the *entire* service (format v7) bit-identically.

Layout::

    specs.py            CampaignSpec — the wire form of one campaign
    session_manager.py  per-tenant sessions: quotas, priorities, budgets
    runner.py           JobRunner — one campaign, isolated, runnable
    orchestrator.py     admission + deterministic fleet time-slicing
    routes.py           Request/Response objects and the route table
    server.py           ServiceServer.handle() — the in-process API
    health.py           service health snapshot + report rendering
    checkpoint.py       save_service/load_service (v7 envelope)

The correctness bar, enforced by tests and the ``service-gate`` CI job:
a campaign produces **bit-identical results** whether run standalone
via ``repro fuzz`` or multiplexed with other tenants, and a service
kill+resume replays every admitted campaign byte-for-byte.
"""

from repro.service.checkpoint import (
    SERVICE_STATE_FILE,
    load_service,
    save_service,
    service_exists,
)
from repro.service.health import format_service_health, service_health
from repro.service.orchestrator import JobRecord, Orchestrator, SubmitError
from repro.service.routes import ROUTES, Request, Response, Route, match
from repro.service.runner import JobRunner, encode_signature
from repro.service.server import ServiceServer
from repro.service.session_manager import (
    Quota,
    QuotaError,
    Session,
    SessionManager,
)
from repro.service.specs import SPEC_FIELDS, CampaignSpec, SpecError

__all__ = [
    "CampaignSpec",
    "JobRecord",
    "JobRunner",
    "Orchestrator",
    "Quota",
    "QuotaError",
    "ROUTES",
    "Request",
    "Response",
    "Route",
    "SERVICE_STATE_FILE",
    "SPEC_FIELDS",
    "ServiceServer",
    "Session",
    "SessionManager",
    "SpecError",
    "SubmitError",
    "encode_signature",
    "format_service_health",
    "load_service",
    "match",
    "save_service",
    "service_exists",
    "service_health",
]
