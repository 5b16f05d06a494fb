"""Diff two campaigns' metric snapshots and flag regressions.

Works on the canonical snapshot dicts produced by
``MetricsRegistry.snapshot()`` (or loaded back from the exported
``metrics.json``).  Direction heuristics encode which way is bad for a
series: queue delays, failures, timeouts, restarts going *up* is a
regression; executions, new edges, completions going *down* is one.
Series matching neither list are reported in the diff but never
flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observe.timeseries import HISTOGRAM_MERGE, flatten_snapshot

__all__ = [
    "Delta",
    "Regression",
    "diff_snapshots",
    "flag_regressions",
    "format_diff",
]

# Substring heuristics over series keys.
_HIGHER_IS_WORSE = (
    "delay", "latency", "failures", "timeouts", "retries", "rejected",
    "rejections", "slot_crashes", "breaker_trips", "vm_restarts",
    "exec_timeouts", "duplicates", "fallbacks", "write_retries",
)
_LOWER_IS_WORSE = (
    "executions", "completed", "accepted", "new_edges", "corpus_size",
    "productive", "pushed", "pulled", "attributed", "execs_per_vsecond",
)


@dataclass(frozen=True)
class Delta:
    key: str
    kind: str            # counter | gauge | histogram
    old: float
    new: float

    @property
    def change(self) -> float:
        return self.new - self.old

    @property
    def pct(self) -> float:
        if self.old == 0:
            return 0.0 if self.new == 0 else float("inf")
        return (self.new - self.old) / abs(self.old) * 100.0


@dataclass(frozen=True)
class Regression:
    delta: Delta
    direction: str       # "higher-is-worse" | "lower-is-worse"

    def describe(self) -> str:
        pct = self.delta.pct
        rendered = "new" if pct == float("inf") else f"{pct:+.1f}%"
        return (
            f"{self.delta.key} [{self.delta.kind}] "
            f"{self.delta.old} -> {self.delta.new} ({rendered}, "
            f"{self.direction})"
        )


def _kind(snapshot: dict, key: str) -> str | None:
    """The registry kind behind one :func:`flatten_snapshot` key (None
    when ``snapshot`` lacks it).  Later kinds win, as in the flattener."""
    base, _, suffix = key.rpartition("/")
    if suffix in HISTOGRAM_MERGE and base in snapshot.get("histograms", {}):
        return "histogram"
    if key in snapshot.get("gauges", {}):
        return "gauge"
    if key in snapshot.get("counters", {}):
        return "counter"
    return None


def diff_snapshots(old: dict, new: dict) -> list[Delta]:
    """All series whose value differs (absent treated as 0).  Histograms
    compare on their tail latency (``/p95``) and ``/count``."""
    flat_old = flatten_snapshot(old)
    flat_new = flatten_snapshot(new)
    deltas = []
    for key in sorted(set(flat_old) | set(flat_new)):
        value_old = flat_old.get(key, (0,))[0]
        value_new = flat_new.get(key, (0,))[0]
        if value_old != value_new:
            kind = _kind(new, key) or _kind(old, key)
            deltas.append(Delta(key, kind, value_old, value_new))
    return deltas


def flag_regressions(
    old: dict, new: dict, threshold_pct: float = 10.0
) -> list[Regression]:
    """Deltas that moved in the bad direction by more than the threshold."""
    regressions = []
    for delta in diff_snapshots(old, new):
        worse_up = any(tag in delta.key for tag in _HIGHER_IS_WORSE)
        worse_down = not worse_up and any(
            tag in delta.key for tag in _LOWER_IS_WORSE
        )
        exceeded = delta.pct == float("inf") or abs(delta.pct) > threshold_pct
        if worse_up and delta.change > 0 and exceeded:
            regressions.append(Regression(delta, "higher-is-worse"))
        elif worse_down and delta.change < 0 and exceeded:
            regressions.append(Regression(delta, "lower-is-worse"))
    return regressions


def format_diff(deltas: list[Delta]) -> str:
    if not deltas:
        return "no metric changes\n"
    key_width = max(len(delta.key) for delta in deltas)
    key_width = max(key_width, len("series"))
    lines = [
        f"{'series':<{key_width}}  {'old':>12}  {'new':>12}  {'change':>10}"
    ]
    for delta in deltas:
        pct = delta.pct
        rendered = "new" if pct == float("inf") else f"{pct:+.1f}%"
        lines.append(
            f"{delta.key:<{key_width}}  {delta.old:>12}  {delta.new:>12}  "
            f"{rendered:>10}"
        )
    return "\n".join(lines) + "\n"
