"""Deterministic fault injection and resilience primitives.

The paper's deployment is riddled with partial failures the rest of the
reproduction would otherwise pretend away: torchserve replicas time out
or crash and Syzkaller falls back to heuristic mutation (§3.4, §5.5),
QEMU VMs hang mid-program and are restarted from snapshot, and multi-day
campaigns survive worker restarts.  This module makes those failures
first-class *and reproducible*: a :class:`FaultPlan` describes, from a
single seed, exactly when and where faults fire, and a
:class:`FaultInjector` answers "does this operation fail?" queries
deterministically in virtual time.

Two kinds of faults compose:

- **windows** — outages with a fixed virtual-time extent (an inference
  service outage from t=A to t=B, a campaign-process crash at t=C);
- **rates** — per-operation failure probabilities drawn from a dedicated
  seeded stream per site, so the schedule at one site does not depend on
  how operations interleave at another.

Well-known sites (callers may invent more):

========================  ====================================================
``inference``             a model-server request times out (deadline exceeded)
``server_slot``           a serving slot crashes while holding the request
``executor``              a test call hangs; the watchdog kills and restarts
``corpus_store``          a transient corpus write failure (retried)
``checkpoint_store``      a transient checkpoint write failure (retried)
``campaign_crash``        the campaign worker dies (windows only; the first
                          window start is the kill time)
``worker_kill:<id>``      a fleet worker process dies at the window start and
                          stays dead until the supervisor restarts it
``worker_hang:<id>``      a fleet worker wedges: its clock advances but it
                          makes no progress (heartbeat goes stale)
``hub_partition:<id>``    a fleet worker is partitioned from the corpus hub;
                          sync round-trips fail throughout the window
``shard_loss:<n>``        corpus-hub shard ``n`` is lost at the window start
                          and recovers (reconciling) at the window end
========================  ====================================================

The injector's per-site draw streams are checkpointable
(:meth:`FaultInjector.state` / :meth:`FaultInjector.restore`), which is
what lets a resumed campaign replay the *remainder* of its fault
schedule bit-identically.

:class:`CircuitBreaker` is the standard three-state resilience pattern
(closed → open → half-open) in virtual time; :mod:`repro.pmm.serve`
uses it to stop hammering a failing inference tier and route
localization back to the heuristic fallback until a probe succeeds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.rng import derive_seed, make_rng

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultWindow",
]


# ----- the plan -----


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled outage: ``site`` fails throughout [start, end)."""

    site: str
    start: float
    end: float

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(
                f"window for {self.site!r} ends before it starts "
                f"({self.start} > {self.end})"
            )

    def covers(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seed-reproducible fault schedule.

    ``rates`` maps a site to its per-operation failure probability;
    ``windows`` lists scheduled outages.  Everything stochastic derives
    from ``seed`` alone, so two injectors built from equal plans produce
    identical fault sequences for identical query sequences.
    """

    seed: int = 0
    rates: dict[str, float] = field(default_factory=dict)
    windows: tuple[FaultWindow, ...] = ()

    def __post_init__(self):
        for site, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"rate for {site!r} must be in [0, 1], got {rate}"
                )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (nothing ever fails)."""
        return cls()

    def with_window(self, site: str, start: float, end: float) -> "FaultPlan":
        """A copy with one more outage window."""
        return FaultPlan(
            seed=self.seed,
            rates=dict(self.rates),
            windows=self.windows + (FaultWindow(site, start, end),),
        )

    def with_rate(self, site: str, rate: float) -> "FaultPlan":
        """A copy with a per-operation failure rate for ``site``."""
        rates = dict(self.rates)
        rates[site] = rate
        return FaultPlan(seed=self.seed, rates=rates, windows=self.windows)

    def with_worker_kill(self, worker_id: int, time: float) -> "FaultPlan":
        """A copy where fleet worker ``worker_id`` dies at ``time``.

        The kill is an *event*, not an outage: the worker dies the first
        time its clock reaches the window start and stays dead until the
        supervisor restarts it, so the (zero-width) window's end is
        irrelevant.
        """
        return self.with_window(f"worker_kill:{worker_id}", time, time)

    def with_worker_hang(
        self, worker_id: int, start: float, end: float
    ) -> "FaultPlan":
        """A copy where worker ``worker_id`` wedges over [start, end)."""
        return self.with_window(f"worker_hang:{worker_id}", start, end)

    def with_hub_partition(
        self, worker_id: int, start: float, end: float
    ) -> "FaultPlan":
        """A copy where worker ``worker_id`` cannot reach the hub."""
        return self.with_window(f"hub_partition:{worker_id}", start, end)

    def with_shard_loss(
        self, shard: int, start: float, end: float
    ) -> "FaultPlan":
        """A copy where hub shard ``shard`` is down over [start, end)."""
        return self.with_window(f"shard_loss:{shard}", start, end)

    def with_campaign_crash(self, time: float) -> "FaultPlan":
        """A copy where the campaign process dies at ``time`` (an event,
        like :meth:`with_worker_kill`; the resume path picks it up via
        :meth:`crash_time`)."""
        return self.with_window("campaign_crash", time, time)

    def to_dict(self) -> dict:
        """A JSON-ready encoding (the wire/checkpoint format).

        Tenants attach degradation schedules to service campaign specs
        as plain JSON; :meth:`from_dict` round-trips to an equal plan,
        so two injectors built from the encoded and original plans fire
        identically.
        """
        return {
            "seed": self.seed,
            "rates": dict(sorted(self.rates.items())),
            "windows": [
                [window.site, window.start, window.end]
                for window in self.windows
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """The inverse of :meth:`to_dict`."""
        return cls(
            seed=int(payload.get("seed", 0)),
            rates={
                str(site): float(rate)
                for site, rate in payload.get("rates", {}).items()
            },
            windows=tuple(
                FaultWindow(str(site), float(start), float(end))
                for site, start, end in payload.get("windows", [])
            ),
        )

    def crash_time(self) -> float | None:
        """Virtual time of the first ``campaign_crash`` window, if any."""
        times = [
            window.start for window in self.windows
            if window.site == "campaign_crash"
        ]
        return min(times) if times else None

    def hang_start(self, worker_id: int, now: float) -> float | None:
        """Start of the hang window covering ``now`` for this worker,
        if any.  Hangs are process-scoped: callers compare this against
        the worker's birth time, so a supervisor restart (a fresh VM)
        cures a hang even while the window is still open."""
        site = f"worker_hang:{worker_id}"
        for window in self.windows:
            if window.site == site and window.covers(now):
                return window.start
        return None

    def kill_times(self, worker_id: int) -> tuple[float, ...]:
        """Scheduled kill times for ``worker_id``, in plan order."""
        site = f"worker_kill:{worker_id}"
        return tuple(
            window.start for window in self.windows if window.site == site
        )


# ----- the injector -----


class FaultInjector:
    """Answers "does this operation fail now?" deterministically.

    Each site draws from its own child stream of the plan seed, so the
    schedule at one site is invariant to traffic at every other site.
    ``fires`` consumes one draw per call (when the site has a nonzero
    rate); the per-site draw streams plus injection counters are the
    injector's whole mutable state, which :meth:`state`/:meth:`restore`
    round-trip for campaign checkpointing.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.injected: dict[str, int] = {}
        self._rngs: dict[str, object] = {}

    # -- queries --

    def fires(self, site: str, now: float) -> bool:
        """True when an operation at ``site`` at virtual ``now`` fails."""
        if self.in_window(site, now):
            self._count(site)
            return True
        rate = self.plan.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        if float(self._rng(site).random()) < rate:
            self._count(site)
            return True
        return False

    def uniform(self, site: str) -> float:
        """A deterministic U[0,1) draw from ``site``'s stream.

        Used for fault *shape* parameters (e.g. how far into a call an
        injected hang strikes) so they ride the same seeded stream as
        the fault decisions themselves.
        """
        return float(self._rng(site).random())

    def in_window(self, site: str, now: float) -> bool:
        """Whether ``site`` is inside a scheduled outage at ``now``."""
        return any(
            window.site == site and window.covers(now)
            for window in self.plan.windows
        )

    def window_end(self, site: str, now: float) -> float | None:
        """End of the outage covering ``now`` at ``site``, if any."""
        ends = [
            window.end for window in self.plan.windows
            if window.site == site and window.covers(now)
        ]
        return max(ends) if ends else None

    def crash_time(self) -> float | None:
        """Kill time of the campaign worker (first crash window)."""
        return self.plan.crash_time()

    def total_injected(self) -> int:
        return sum(self.injected.values())

    # -- checkpointable state --

    def state(self) -> dict:
        """JSON-serializable snapshot of the draw streams and counters."""
        return {
            "injected": dict(self.injected),
            "rng": {
                site: rng.bit_generator.state
                for site, rng in self._rngs.items()
            },
        }

    def restore(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state`."""
        self.injected = dict(state.get("injected", {}))
        self._rngs = {}
        for site, rng_state in state.get("rng", {}).items():
            rng = make_rng(0)
            rng.bit_generator.state = rng_state
            self._rngs[site] = rng

    # -- internals --

    def _rng(self, site: str):
        rng = self._rngs.get(site)
        if rng is None:
            rng = make_rng(derive_seed(self.plan.seed, "fault", site))
            self._rngs[site] = rng
        return rng

    def _count(self, site: str) -> None:
        self.injected[site] = self.injected.get(site, 0) + 1


# ----- the circuit breaker -----


class BreakerState(enum.Enum):
    """The classic three-state circuit-breaker machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker over virtual time.

    CLOSED admits everything.  After ``failure_threshold`` consecutive
    failures the breaker trips OPEN and rejects requests (callers fall
    back to their degraded path) until ``reset_timeout`` virtual seconds
    pass; the next request is then admitted as a HALF_OPEN probe.  A
    probe success closes the breaker, a probe failure re-trips it.

    Failures are *observed* at result-delivery time, which in virtual
    time lags the submission that caused them; the breaker only needs
    the observation order to be deterministic, which the virtual clock
    guarantees.
    """

    def __init__(self, failure_threshold: int = 4, reset_timeout: float = 600.0):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ValueError(
                f"reset_timeout must be positive, got {reset_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.trips = 0
        self.transitions: list[tuple[float, str]] = []
        self._probe_in_flight = False

    def allow(self, now: float) -> bool:
        """Whether a new request may be admitted at ``now``."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= self.reset_timeout:
                self._transition(BreakerState.HALF_OPEN, now)
                self._probe_in_flight = True
                return True
            return False
        # HALF_OPEN: one probe at a time.
        if not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        return False

    def record_success(self, now: float) -> None:
        if self.state is BreakerState.OPEN:
            # A stale pre-trip result delivered while open.  Only a
            # half-open probe admitted by ``allow`` may close the
            # breaker: when the virtual clock jumps past several probe
            # windows in one tick, a burst of stale successes must not
            # close it without a single probe having run.
            return
        if (
            self.state is BreakerState.HALF_OPEN
            and not self._probe_in_flight
        ):
            # Half-open with no reserved probe (e.g. after
            # ``cancel_probe``): same stale-result situation.
            return
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED, now)
        self._probe_in_flight = False

    def cancel_probe(self) -> None:
        """Release the half-open probe reservation without an outcome.

        Used when the caller admitted a request past the breaker but
        then dropped it for an unrelated reason (e.g. a full queue), so
        the probe slot is not leaked.
        """
        self._probe_in_flight = False

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._trip(now)
        self._probe_in_flight = False

    # -- checkpointable state --

    def state_dict(self) -> dict:
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "opened_at": self.opened_at,
            "trips": self.trips,
            "transitions": [list(item) for item in self.transitions],
            "probe_in_flight": self._probe_in_flight,
        }

    def restore(self, state: dict) -> None:
        self.state = BreakerState(state["state"])
        self.consecutive_failures = int(state["consecutive_failures"])
        self.opened_at = float(state["opened_at"])
        self.trips = int(state["trips"])
        self.transitions = [
            (float(time), str(name)) for time, name in state["transitions"]
        ]
        self._probe_in_flight = bool(state["probe_in_flight"])

    # -- internals --

    def _trip(self, now: float) -> None:
        self.trips += 1
        self.opened_at = now
        self._transition(BreakerState.OPEN, now)

    def _transition(self, state: BreakerState, now: float) -> None:
        self.state = state
        self.transitions.append((now, state.value))
