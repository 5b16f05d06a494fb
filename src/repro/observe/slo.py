"""Declarative SLOs over virtual-time series.

Rules are evaluated **post hoc** over a completed
:class:`~repro.observe.timeseries.TimeSeriesStore` rather than inline in
the hot loop: evaluation walks the sampled timeline in virtual-time
order, so alerts are a pure function of the store — same seed, same
alerts, and a kill+resumed campaign (whose store is restored from the
checkpoint) fires byte-identical alerts at identical virtual
timestamps.

Rule semantics
--------------
- :class:`ThresholdRule` — the objective ``series op limit`` (e.g.
  ``serve.queue_delay/p95 < 1800``) must hold at every sample.  An
  alert fires at the first violating sample of each violation episode;
  the rule re-arms once the objective holds again.
- :class:`StallRule` — the series must make progress (increase at all)
  at least once every ``window`` virtual seconds.
  The alert fires at the first sample whose distance from the last
  progress point reaches the window — the deterministic "no new
  coverage for N virtual seconds" detector.
- :class:`BurnRateRule` — over a trailing ``window``, the growth of a
  counter ``series`` must stay within ``budget``; with a ``denominator``
  series the budget is a ratio of the two growths (lost batches per
  submitted request), without one it is an absolute count per window
  (breaker trips per virtual hour).

Every rule matches series by **substring** against the store's flat
keys, so ``fuzz.edges`` covers each worker's ``fuzz.edges{worker=i}``
independently; ``alert.series`` records the concrete key that fired.

Alerts export to a canonical ``alerts.json`` and annotate the tracer as
instants on an ``alerts`` track, which lands them on the Perfetto
timeline next to the spans that caused them.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass

__all__ = [
    "Alert",
    "BurnRateRule",
    "SLOEngine",
    "StallRule",
    "ThresholdRule",
    "alerts_json",
    "default_cluster_rules",
    "default_fuzz_rules",
    "default_rules",
    "default_serving_rules",
    "load_alerts",
]

_OPS = {
    "<": lambda value, limit: value < limit,
    "<=": lambda value, limit: value <= limit,
    ">": lambda value, limit: value > limit,
    ">=": lambda value, limit: value >= limit,
}


@dataclass(frozen=True, order=True)
class Alert:
    """One SLO violation, pinned to a virtual timestamp."""

    time: float
    rule: str
    series: str
    value: float
    threshold: float
    severity: str
    message: str


class _Rule:
    """Shared matching/plumbing; subclasses implement ``_evaluate``."""

    def __init__(self, name: str, series: str, severity: str = "warn"):
        self.name = name
        self.series = series
        self.severity = severity

    def evaluate(self, store) -> list[Alert]:
        alerts: list[Alert] = []
        for key in store.series(self.series):
            alerts.extend(self._evaluate(key, store.points(key)))
        return alerts

    def _evaluate(self, key, points):  # pragma: no cover - abstract
        raise NotImplementedError

    def _alert(self, key: str, time: float, value: float,
               threshold: float, message: str) -> Alert:
        return Alert(
            time=time, rule=self.name, series=key, value=value,
            threshold=threshold, severity=self.severity, message=message,
        )


class ThresholdRule(_Rule):
    """Objective: every sample satisfies ``value op limit``."""

    def __init__(self, name: str, series: str, op: str, limit: float,
                 severity: str = "warn"):
        super().__init__(name, series, severity)
        if op not in _OPS:
            raise ValueError(f"unknown op {op!r} (use one of {sorted(_OPS)})")
        self.op = op
        self.limit = limit

    def _evaluate(self, key, points):
        alerts = []
        ok = _OPS[self.op]
        in_violation = False
        for time, value in points:
            if not ok(value, self.limit):
                if not in_violation:
                    alerts.append(self._alert(
                        key, time, value, self.limit,
                        f"{key} = {value:g}, objective {self.op} "
                        f"{self.limit:g}",
                    ))
                    in_violation = True
            else:
                in_violation = False
        return alerts


class StallRule(_Rule):
    """Objective: the series increases at least every ``window`` seconds."""

    def __init__(self, name: str, series: str, window: float,
                 severity: str = "warn"):
        super().__init__(name, series, severity)
        if window <= 0:
            raise ValueError("stall window must be positive")
        self.window = window

    def _evaluate(self, key, points):
        alerts = []
        if not points:
            return alerts
        last_progress_time, last_value = points[0]
        stalled = False
        for time, value in points[1:]:
            if value > last_value:
                last_progress_time, last_value = time, value
                stalled = False
            elif (not stalled
                  and time - last_progress_time >= self.window):
                alerts.append(self._alert(
                    key, time, value, self.window,
                    f"{key} stalled at {value:g} for "
                    f"{time - last_progress_time:g} virtual s "
                    f"(window {self.window:g})",
                ))
                stalled = True
        return alerts


class BurnRateRule(_Rule):
    """Objective: counter growth over a trailing window stays in budget.

    With ``denominator``: growth(series) / growth(denominator) <=
    ``budget`` (a ratio — e.g. lost batches per submitted request).
    Without: growth(series) <= ``budget`` per window (an absolute
    count — e.g. breaker trips per virtual hour).
    """

    def __init__(self, name: str, series: str, window: float, budget: float,
                 denominator: str | None = None, severity: str = "warn"):
        super().__init__(name, series, severity)
        if window <= 0:
            raise ValueError("burn-rate window must be positive")
        self.window = window
        self.budget = budget
        self.denominator = denominator

    def evaluate(self, store) -> list[Alert]:
        alerts: list[Alert] = []
        for key in store.series(self.series):
            denominator_points = None
            if self.denominator is not None:
                denominator_key = self._pair_key(key, store)
                if denominator_key is None:
                    continue
                denominator_points = store.points(denominator_key)
            alerts.extend(self._burn(
                key, store.points(key), denominator_points
            ))
        return alerts

    def _pair_key(self, key: str, store) -> str | None:
        """The denominator series sharing ``key``'s label set."""
        labels = key[key.index("{"):] if "{" in key else ""
        matches = [
            candidate for candidate in store.series(self.denominator)
            if (candidate[candidate.index("{"):] if "{" in candidate
                else "") == labels
        ]
        return matches[0] if matches else None

    @staticmethod
    def _growth(points, start: float, end_value: float) -> float:
        """Growth since the last sample at or before ``start``."""
        index = bisect_right(points, (start, float("inf"))) - 1
        base = points[index][1] if index >= 0 else 0.0
        return end_value - base

    def _burn(self, key, points, denominator_points):
        alerts = []
        in_violation = False
        for time, value in points:
            start = time - self.window
            burn = self._growth(points, start, value)
            if denominator_points is not None:
                index = bisect_left(
                    denominator_points, (time, float("inf"))
                ) - 1
                if index < 0:
                    continue
                denominator_value = denominator_points[index][1]
                base_growth = self._growth(
                    denominator_points, start, denominator_value
                )
                if base_growth <= 0:
                    in_violation = False
                    continue
                burn = burn / base_growth
            if burn > self.budget:
                if not in_violation:
                    alerts.append(self._alert(
                        key, time, burn, self.budget,
                        f"{key} burn {burn:g} over {self.window:g}s "
                        f"window exceeds budget {self.budget:g}",
                    ))
                    in_violation = True
            else:
                in_violation = False
        return alerts


class SLOEngine:
    """A rule pack evaluated over one store."""

    def __init__(self, rules):
        self.rules = list(rules)

    def evaluate(self, store) -> list[Alert]:
        """All alerts, sorted by (time, rule, series) — deterministic."""
        alerts: list[Alert] = []
        for rule in self.rules:
            alerts.extend(rule.evaluate(store))
        return sorted(alerts)

    def annotate(self, tracer, store) -> list[Alert]:
        """Evaluate and pin every alert to the trace as an instant on
        the ``alerts`` track."""
        alerts = self.evaluate(store)
        for alert in alerts:
            tracer.instant(
                "alerts", alert.rule, alert.time, cat="alert",
                series=alert.series, value=alert.value,
                threshold=alert.threshold, severity=alert.severity,
            )
        return alerts


# ----- default rule packs -----
#
# Defaults are sized so a healthy smoke campaign (small kernel, <= 1
# virtual hour) stays quiet; campaigns long enough to plateau trip the
# coverage-stall detector, which is the point.

def default_fuzz_rules(stall_window: float = 3600.0) -> list[_Rule]:
    return [
        StallRule(
            "fuzz.coverage_stall", "fuzz.edges", window=stall_window,
            severity="warn",
        ),
        BurnRateRule(
            "fuzz.exec_timeout_burn", "fuzz.exec_timeouts",
            window=stall_window, budget=0.25,
            denominator="fuzz.executions", severity="critical",
        ),
    ]


def default_serving_rules() -> list[_Rule]:
    return [
        ThresholdRule(
            "serve.queue_delay_p95", "serve.queue_delay/p95",
            op="<=", limit=1800.0, severity="warn",
        ),
        BurnRateRule(
            "serve.lost_batch_budget", "serve.failures",
            window=3600.0, budget=0.5,
            denominator="serve.submitted", severity="critical",
        ),
        BurnRateRule(
            "serve.breaker_trip_budget", "serve.breaker_trips",
            window=3600.0, budget=4.0, severity="warn",
        ),
    ]


def default_cluster_rules() -> list[_Rule]:
    return [
        StallRule(
            "cluster.hub_sync_stall", "fuzz.hub_syncs",
            window=3600.0, severity="warn",
        ),
        BurnRateRule(
            "cluster.hub_duplicate_share", "hub.duplicates",
            window=3600.0, budget=0.95,
            denominator="hub.pushes", severity="warn",
        ),
    ]


# The chaos gate's degradation bound: a faulted fleet's final coverage
# stays within this many percent of the clean run's.  The supervision
# pack's floor, ``ChaosCampaignResult.degraded_gracefully`` and the
# ``format_chaos`` label all read it.
CHAOS_DEGRADATION_PCT = 10.0


def default_supervision_rules() -> list[_Rule]:
    """The chaos-gate invariants, phrased over the end-state ``chaos.*``
    gauges a :func:`~repro.snowplow.campaign.run_chaos_campaign` run
    publishes.  These gauges are sampled once, at the horizon, after the
    campaign's verdict is known — so threshold rules never fire on a
    transient mid-recovery dip."""
    return [
        ThresholdRule(
            "chaos.corpus_loss", "chaos.lost_edges",
            op="<=", limit=0.0, severity="critical",
        ),
        ThresholdRule(
            "chaos.coverage_monotone", "chaos.coverage_regressions",
            op="<=", limit=0.0, severity="critical",
        ),
        ThresholdRule(
            "chaos.graceful_degradation", "chaos.coverage_ratio_pct",
            op=">=", limit=100.0 - CHAOS_DEGRADATION_PCT,
            severity="critical",
        ),
        ThresholdRule(
            "chaos.resume_determinism", "chaos.resume_identical",
            op=">=", limit=1.0, severity="critical",
        ),
    ]


def default_rules() -> list[_Rule]:
    """The full default pack: fuzz + serving + cluster."""
    return (
        default_fuzz_rules()
        + default_serving_rules()
        + default_cluster_rules()
    )


DEFAULT_PACKS = {
    "fuzz": default_fuzz_rules,
    "serving": default_serving_rules,
    "cluster": default_cluster_rules,
    "supervision": default_supervision_rules,
    "default": default_rules,
}


# ----- export -----

def alerts_json(alerts) -> str:
    """Canonical machine-readable dump (sorted, compact)."""
    return json.dumps(
        {
            "alerts": [asdict(alert) for alert in sorted(alerts)],
            "count": len(alerts),
        },
        sort_keys=True, separators=(",", ":"),
    )


def load_alerts(text: str) -> list[Alert]:
    body = json.loads(text)
    return [Alert(**entry) for entry in body.get("alerts", [])]
