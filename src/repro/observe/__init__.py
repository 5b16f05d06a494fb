"""repro.observe — deterministic tracing, metrics, and profiling.

One :class:`Observer` rides along with a campaign and bundles the three
instruments the stack shares:

- ``observer.registry`` — the :class:`MetricsRegistry` every stats view
  (``FuzzStats``, ``InferenceStats``, ``HubStats``) emits through;
- ``observer.tracer`` — hierarchical virtual-time spans
  (campaign → worker → iteration → mutate/exec/inference/triage/
  hub_sync/checkpoint) with instants for faults, breaker trips, and
  crash hits;
- ``observer.profiler`` — wall+virtual attribution for hot paths
  (graph build, GNN forward, executor stepping).

Everything except profiler wall time is a pure function of the campaign
seed, so exports are byte-identical across same-seed runs and across
kill+resume (the observer state travels inside checkpoints).
"""

from __future__ import annotations

from pathlib import Path

from .diff import (
    Delta,
    Regression,
    diff_snapshots,
    flag_regressions,
    format_diff,
)
from .explain import (
    attribution_table,
    coverage_waterfall,
    format_attribution,
    format_chain,
    format_waterfall,
    lineage_dot,
    lineage_json,
    load_lineage,
    resolve_target,
)
from .export import chrome_trace, flame_summary, load_spans_jsonl, spans_jsonl
from .metrics import (
    Counter,
    CounterView,
    Gauge,
    Histogram,
    LabeledCounterMap,
    MetricsRegistry,
    parse_series_key,
    series_key,
)
from .model_quality import (
    ModelQualityTracker,
    drift_summary,
    format_model_quality,
    model_quality_summary,
)
from .profile import Profiler
from .provenance import LineageRecord, ProvenanceLog, edge_key, entry_id_for
from .report import campaign_report, sparkline
from .slo import (
    Alert,
    BurnRateRule,
    SLOEngine,
    StallRule,
    ThresholdRule,
    alerts_json,
    default_cluster_rules,
    default_fuzz_rules,
    default_rules,
    default_serving_rules,
    default_supervision_rules,
    load_alerts,
)
from .timeseries import (
    SeriesBuffer,
    TimeSeriesStore,
    flatten_snapshot,
    load_timeseries,
)
from .trace import Instant, Span, Tracer

__all__ = [
    "Alert",
    "BurnRateRule",
    "Counter",
    "CounterView",
    "Delta",
    "Gauge",
    "Histogram",
    "Instant",
    "LabeledCounterMap",
    "LineageRecord",
    "MetricsRegistry",
    "ModelQualityTracker",
    "Observer",
    "Profiler",
    "ProvenanceLog",
    "Regression",
    "SLOEngine",
    "SeriesBuffer",
    "Span",
    "StallRule",
    "ThresholdRule",
    "TimeSeriesStore",
    "Tracer",
    "alerts_json",
    "attribution_table",
    "campaign_report",
    "chrome_trace",
    "coverage_waterfall",
    "default_cluster_rules",
    "default_fuzz_rules",
    "default_rules",
    "default_serving_rules",
    "default_supervision_rules",
    "diff_snapshots",
    "drift_summary",
    "edge_key",
    "entry_id_for",
    "flag_regressions",
    "flame_summary",
    "flatten_snapshot",
    "format_attribution",
    "format_chain",
    "format_diff",
    "format_model_quality",
    "format_waterfall",
    "lineage_dot",
    "lineage_json",
    "load_alerts",
    "load_lineage",
    "load_spans_jsonl",
    "load_timeseries",
    "model_quality_summary",
    "parse_series_key",
    "resolve_target",
    "series_key",
    "spans_jsonl",
    "sparkline",
]


class Observer:
    """Registry + tracer + profiler + time-series for one campaign."""

    #: filenames written by :meth:`export`
    TRACE_FILE = "trace.json"
    SPANS_FILE = "spans.jsonl"
    METRICS_FILE = "metrics.json"
    FLAME_FILE = "flame.txt"
    PROFILE_FILE = "profile.txt"
    TIMESERIES_FILE = "timeseries.json"
    ALERTS_FILE = "alerts.json"
    LINEAGE_FILE = "lineage.json"

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        timeseries: TimeSeriesStore | None = None,
        slo: SLOEngine | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.profiler = Profiler()
        self.timeseries = (
            timeseries if timeseries is not None else TimeSeriesStore()
        )
        # Optional: a rule pack evaluated (and exported as alerts.json +
        # trace instants) at export time.  None keeps exports rule-free.
        self.slo = slo
        self._annotated = False
        # ProvenanceLogs attached by loops and hubs; export() merges
        # them into lineage.json.  Not part of state_dict(): lineage
        # rides in the loop/hub checkpoint state, and restored
        # components re-attach on construction.
        self.provenance_sources: list[ProvenanceLog] = []

    # ----- provenance -----

    def attach_provenance(self, log: ProvenanceLog) -> None:
        """Register a lineage ledger for the merged lineage.json export."""
        if not any(source is log for source in self.provenance_sources):
            self.provenance_sources.append(log)

    def merged_provenance(self) -> ProvenanceLog:
        """One fleet-wide ledger across every attached source."""
        return ProvenanceLog.merge(self.provenance_sources)

    # ----- sampling -----

    def sample(self, now: float) -> bool:
        """Cadenced registry sample at virtual time ``now``.

        Loops call this from their observation hook every iteration; the
        store's interval decides whether anything is recorded.
        """
        return self.timeseries.maybe_sample(now, self.registry)

    # ----- SLO evaluation -----

    def evaluate_slo(self) -> list[Alert]:
        """Evaluate the attached rule pack; annotates the trace once."""
        if self.slo is None:
            return []
        if self._annotated:
            return self.slo.evaluate(self.timeseries)
        self._annotated = True
        return self.slo.annotate(self.tracer, self.timeseries)

    # ----- exports -----

    def export(self, directory) -> dict[str, Path]:
        """Write all artifacts; returns ``{artifact_name: path}``.

        ``trace.json``/``spans.jsonl``/``metrics.json``/``flame.txt``/
        ``timeseries.json`` (plus ``alerts.json`` when a rule pack is
        attached and ``lineage.json`` when provenance sources are) are
        canonical — byte-reproducible from the seed; ``profile.txt``
        includes wall time and is diagnostic only.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        artifacts = []
        if self.slo is not None:
            # Evaluate before the trace renders so alert instants land
            # on the exported timeline.
            artifacts.append(
                (self.ALERTS_FILE, alerts_json(self.evaluate_slo()))
            )
        artifacts += [
            (self.TRACE_FILE, chrome_trace(self.tracer)),
            (self.SPANS_FILE, spans_jsonl(self.tracer)),
            (self.METRICS_FILE, self.registry.to_json()),
            (self.TIMESERIES_FILE, self.timeseries.to_json()),
            (self.FLAME_FILE, flame_summary(self.tracer)),
            (self.PROFILE_FILE, self.profiler.report()),
        ]
        if self.provenance_sources:
            artifacts.append(
                (self.LINEAGE_FILE, lineage_json(self.merged_provenance()))
            )
        paths = {}
        for name, content in artifacts:
            path = directory / name
            path.write_text(content)
            paths[name] = path
        return paths

    # ----- checkpointing -----

    def state_dict(self) -> dict:
        # The profiler is deliberately absent: wall time cannot be
        # restored meaningfully, and virtual attribution is re-derivable
        # from the clock charges it mirrors.
        return {
            "registry": self.registry.state_dict(),
            "tracer": self.tracer.state_dict(),
            "timeseries": self.timeseries.state_dict(),
        }

    def restore(self, state: dict) -> None:
        self.registry.restore(state["registry"])
        self.tracer.restore(state["tracer"])
        if "timeseries" in state:
            self.timeseries.restore(state["timeseries"])
