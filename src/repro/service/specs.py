"""Campaign specifications: what a tenant submits to the control plane.

A :class:`CampaignSpec` is the wire form of one `repro fuzz` invocation
— kernel release, localizer mode, horizon, seed, fleet shape — plus the
tenant it bills to.  The spec is deliberately *complete*: every input
that feeds the deterministic simulation is either in the spec or derived
from it, which is what lets the orchestrator rebuild a job's loops from
the spec alone (checkpoint restores carry only simulation state, never
code or configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import CampaignError
from repro.kernel import KNOWN_SIZES
from repro.snowplow.campaign import check_campaign_shape

__all__ = ["CampaignSpec", "SPEC_FIELDS", "SpecError"]

MODES = ("oracle", "baseline", "model")


class SpecError(ValueError):
    """A submitted spec that can never run (4xx, not a server bug)."""


@dataclass(frozen=True)
class CampaignSpec:
    """One tenant campaign, byte-serializable and hashable-by-value.

    ``faults`` is an optional :meth:`repro.faults.FaultPlan.to_dict`
    payload: tenants attach degradation schedules (inference outages,
    worker kills) to their own campaigns, and the service reports the
    resulting tenant-visible degradation in the job result.
    """

    tenant: str
    kernel: str = "6.8"
    kernel_seed: int = 1
    size: str = "default"
    mode: str = "oracle"
    model: str | None = None
    hours: float = 1.0
    seed: int = 0
    seed_corpus: int = 100
    workers: int = 1
    shards: int = 1
    batch_size: int | None = None
    heartbeat_deadline: float | None = None
    faults: dict | None = field(default=None, hash=False)

    def __post_init__(self):
        if not self.tenant:
            raise SpecError("spec needs a tenant")
        if self.size not in KNOWN_SIZES:
            raise SpecError(
                f"unknown kernel size {self.size!r} "
                f"(known: {', '.join(sorted(KNOWN_SIZES))})"
            )
        if self.mode not in MODES:
            raise SpecError(
                f"unknown mode {self.mode!r} (known: {', '.join(MODES)})"
            )
        if self.mode == "model" and not self.model:
            raise SpecError("mode 'model' needs a PMM checkpoint path")
        try:
            check_campaign_shape(
                self.kernel, self.hours, self.seed_corpus,
                self.workers, self.shards, self.batch_size,
            )
        except CampaignError as error:
            raise SpecError(str(error)) from None

    @property
    def horizon(self) -> float:
        """Virtual seconds of fuzzing per worker."""
        return self.hours * 3600.0

    @property
    def cost_hours(self) -> float:
        """Worker-hours this campaign reserves against the tenant budget."""
        return self.workers * self.hours

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in SPEC_FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        unknown = sorted(set(payload).difference(SPEC_FIELDS))
        if unknown:
            raise SpecError(f"unknown spec field(s): {', '.join(unknown)}")
        try:
            return cls(**payload)
        except TypeError as error:
            raise SpecError(str(error))


#: Every spec field, in declaration order: the wire form's keys and the
#: ``repro submit`` flags that fill them.
SPEC_FIELDS = tuple(spec_field.name for spec_field in fields(CampaignSpec))
