"""Live PMM model-quality telemetry.

Table 1 scores the selector offline against dataset ground truth; this
module scores it **online**, against what the campaign actually did with
its predictions.  For every inference result that becomes a mutation
burst the tracker records, at burst retirement:

- ``predicted`` — the ≤ k target blocks the query asked the model to
  reach (k = ``repro.snowplow.fuzzer.MAX_TARGETS``);
- ``hit`` — the subset of those targets the burst's own mutations
  covered (credited only on executions where global block coverage
  grew, so hits reached first by other workers don't count);
- ``gained`` — how many new blocks the burst discovered in total.

Scoring reuses :func:`repro.pmm.metrics.score_sets` verbatim: the truth
set is ``hit`` plus one anonymous marker per unpredicted gained block,
so **precision@k** = share of predicted targets realized and
**recall@k** = share of the burst's realized yield the prediction
explains, with the same empty-set conventions as Table 1.

Everything lands in ``mq.*`` registry series labeled with the kernel
release (and worker), so per-release drift (6.8-trained model deployed
on 6.9/6.10) falls out of grouping one snapshot — or several snapshots
— by the ``kernel`` label.  Acceptance rate (non-empty predictions /
completed) and heuristic-fallback share (from the existing ``fuzz.*``
counters) complete the §3.4 health picture.
"""

from __future__ import annotations

__all__ = [
    "ModelQualityTracker",
    "drift_summary",
    "format_model_quality",
    "model_quality_summary",
]

#: per-burst score sums carried as gauges (means = sum / bursts_scored)
_SCORE_GAUGES = ("precision", "recall", "f1", "jaccard")


def _release_key(release: str):
    """Sort kernel releases numerically: 6.8 < 6.9 < 6.10."""
    parts = release.split(".")
    try:
        return (0, tuple(int(part) for part in parts))
    except ValueError:
        return (1, tuple(parts))


class ModelQualityTracker:
    """Online localizer scoring for one loop, writing ``mq.*`` series."""

    def __init__(self, registry, kernel: str, worker: int | None = None):
        labels = {"kernel": kernel}
        if worker is not None:
            labels["worker"] = worker
        self._predictions = registry.counter("mq.predictions", **labels)
        self._accepted = registry.counter("mq.predictions_accepted", **labels)
        self._scored = registry.counter("mq.bursts_scored", **labels)
        self._targets_predicted = registry.counter(
            "mq.targets_predicted", **labels
        )
        self._targets_hit = registry.counter("mq.targets_hit", **labels)
        self._blocks_gained = registry.counter("mq.blocks_gained", **labels)
        self._sums = {
            name: registry.gauge(f"mq.{name}_sum", **labels)
            for name in _SCORE_GAUGES
        }

    def note_prediction(self, accepted: bool) -> None:
        """One completed inference result; ``accepted`` = non-empty paths."""
        self._predictions.inc()
        if accepted:
            self._accepted.inc()

    def score_burst(self, predicted: set[int], hit: set[int],
                    gained_blocks: int) -> None:
        """Score one retired burst against its realized coverage."""
        # Deferred: repro.pmm imports repro.observe for its stats views,
        # so a module-level import here would be circular.
        from repro.pmm.metrics import score_sets

        unexplained = max(0, gained_blocks - len(hit))
        # Anonymous markers for gained-but-unpredicted blocks keep
        # score_sets' denominators honest without tracking block ids.
        truth = set(hit) | {-(index + 1) for index in range(unexplained)}
        precision, recall, f1, jaccard = score_sets(set(predicted), truth)
        self._scored.inc()
        self._targets_predicted.inc(len(predicted))
        self._targets_hit.inc(len(hit))
        self._blocks_gained.inc(gained_blocks)
        for name, value in zip(
            _SCORE_GAUGES, (precision, recall, f1, jaccard)
        ):
            gauge = self._sums[name]
            gauge.set(gauge.value + value)


# ----- snapshot-side aggregation -----

def _accumulate(stats: dict, field: str, value) -> None:
    stats[field] = stats.get(field, 0) + value


def model_quality_summary(snapshot: dict) -> dict[str, dict]:
    """Per-kernel-release quality stats from a canonical snapshot.

    Accepts the ``{counters, gauges, histograms}`` shape that
    ``metrics.json`` (and ``Observer.export``) carries; workers are
    summed within each release.  Returns ``{release: stats}`` where
    stats holds predictions/acceptance/precision/recall/f1/jaccard/
    fallback-share, ready for :func:`format_model_quality`.
    """
    from repro.observe.metrics import parse_series_key

    per_kernel: dict[str, dict] = {}
    fallbacks = 0
    submitted = 0
    for section in ("counters", "gauges"):
        for key, value in snapshot.get(section, {}).items():
            name, labels = parse_series_key(key)
            if name == "fuzz.heuristic_fallbacks":
                fallbacks += value
            elif name == "fuzz.inference_submitted":
                submitted += value
            if not name.startswith("mq."):
                continue
            release = str(labels.get("kernel", "?"))
            stats = per_kernel.setdefault(release, {})
            _accumulate(stats, name[len("mq."):], value)
    for stats in per_kernel.values():
        predictions = stats.get("predictions", 0)
        scored = stats.get("bursts_scored", 0)
        stats["acceptance_rate"] = (
            stats.get("predictions_accepted", 0) / predictions
            if predictions else 0.0
        )
        for name in _SCORE_GAUGES:
            stats[name] = (
                stats.pop(f"{name}_sum", 0.0) / scored if scored else 0.0
            )
        stats["target_hit_rate"] = (
            stats.get("targets_hit", 0) / stats["targets_predicted"]
            if stats.get("targets_predicted") else 0.0
        )
        queries = submitted + fallbacks
        stats["fallback_share"] = fallbacks / queries if queries else 0.0
    return dict(
        sorted(per_kernel.items(), key=lambda item: _release_key(item[0]))
    )


def drift_summary(summaries: dict[str, dict]) -> dict[str, dict]:
    """Score drift of each release relative to the first (train) release.

    ``summaries`` maps release → stats (as one or more
    :func:`model_quality_summary` results, merged by the caller).  The
    reference is the lowest release present — the paper trains on 6.8
    and deploys on 6.9/6.10, so drift reads as "how much quality the
    model loses on kernels it never saw".
    """
    if not summaries:
        return {}
    releases = sorted(summaries, key=_release_key)
    reference = summaries[releases[0]]
    drift: dict[str, dict] = {}
    for release in releases[1:]:
        stats = summaries[release]
        drift[release] = {
            name: stats.get(name, 0.0) - reference.get(name, 0.0)
            for name in (*_SCORE_GAUGES, "acceptance_rate")
        }
    return drift


def format_model_quality(summaries: dict[str, dict]) -> str:
    """Human-facing table: one row per kernel release, plus drift."""
    if not summaries:
        return "model quality: no mq.* series (baseline or untracked run)"
    lines = [
        "model quality (online, per kernel release)",
        f"  {'release':<8} {'preds':>6} {'accept':>7} {'prec@k':>7} "
        f"{'rec@k':>6} {'f1':>6} {'hits':>5} {'fallback':>9}",
    ]
    for release in sorted(summaries, key=_release_key):
        stats = summaries[release]
        lines.append(
            f"  {release:<8} {stats.get('predictions', 0):>6.0f} "
            f"{stats['acceptance_rate'] * 100:>6.1f}% "
            f"{stats['precision'] * 100:>6.1f}% "
            f"{stats['recall'] * 100:>5.1f}% "
            f"{stats['f1'] * 100:>5.1f}% "
            f"{stats.get('targets_hit', 0):>5.0f} "
            f"{stats['fallback_share'] * 100:>8.1f}%"
        )
    drift = drift_summary(summaries)
    if drift:
        reference = sorted(summaries, key=_release_key)[0]
        lines.append(f"  drift vs {reference}:")
        for release, deltas in drift.items():
            lines.append(
                f"    {release:<8} precision {deltas['precision'] * 100:+.1f}pp "
                f"recall {deltas['recall'] * 100:+.1f}pp "
                f"f1 {deltas['f1'] * 100:+.1f}pp "
                f"acceptance {deltas['acceptance_rate'] * 100:+.1f}pp"
            )
    return "\n".join(lines)
