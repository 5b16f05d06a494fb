"""Virtual-time series: sampled registry history with bounded memory.

PR 3 gave the stack point-in-time snapshots; the paper's claims are
*trajectories* (coverage over time, yield over time, queue delay under
load).  :class:`TimeSeriesStore` closes that gap: it samples a
:class:`~repro.observe.metrics.MetricsRegistry` on a virtual-clock
cadence and keeps the history in multi-resolution ring buffers —
full-resolution points for the recent window, power-of-two coarsened
points for the deep past — so a campaign of any length costs O(levels ×
capacity) memory per series.

Retention model
---------------
Each series owns a :class:`SeriesBuffer` with ``levels`` rings of
``capacity`` points each.  Level 0 receives every sample (resolution =
the store's ``interval``).  When a ring overflows, its two **oldest**
points merge into one point pushed down to the next level, halving
resolution per level (level ``k`` holds points ``interval * 2**k``
apart).  The merge keeps the later timestamp; the merged value is the
later point for counters/gauges (``last``) and the maximum for
histogram-tail series (``max`` — a p95 spike must survive coarsening).
The deepest ring drops its oldest pair's *earlier* point outright, so
total retention is bounded while the most recent
``capacity * interval`` of history stays exact.

Every sampled value comes from the **canonical** registry snapshot
(diagnostic series excluded), and sample times come from the virtual
clock, so the whole store is a pure function of the campaign seed:
same seed → byte-identical ``timeseries.json``, and a store captured in
a checkpoint (format v4) resumes into an identical timeline.

:func:`flatten_snapshot` (shared with :mod:`repro.observe.diff`) names
the series: counters and gauges keep their series key; histograms
contribute ``<key>/p95`` (merge ``max``) and ``<key>/count`` (merge
``last``).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right

__all__ = [
    "SeriesBuffer",
    "TimeSeriesStore",
    "flatten_snapshot",
    "load_timeseries",
]

#: suffix → merge mode for histogram-derived series
HISTOGRAM_MERGE = {"p95": "max", "count": "last"}


def flatten_snapshot(snapshot: dict) -> dict[str, tuple[float, str]]:
    """``{flat_key: (value, merge_mode)}`` for one registry snapshot.

    The one walk from a snapshot to flat series keys: the time-series
    store samples it and :func:`repro.observe.diff.diff_snapshots`
    compares two of them.
    """
    flat: dict[str, tuple[float, str]] = {}
    for key, value in snapshot.get("counters", {}).items():
        flat[key] = (value, "last")
    for key, value in snapshot.get("gauges", {}).items():
        flat[key] = (value, "last")
    for key, body in snapshot.get("histograms", {}).items():
        for field, merge in HISTOGRAM_MERGE.items():
            flat[f"{key}/{field}"] = (body[field], merge)
    return flat


class SeriesBuffer:
    """Multi-resolution ring buffer for one flattened series.

    ``merge`` is ``"last"`` (counters/gauges: the later point stands for
    the coarsened pair) or ``"max"`` (tail quantiles: spikes survive).
    """

    __slots__ = ("capacity", "depth", "merge", "_levels")

    def __init__(self, capacity: int = 64, depth: int = 4,
                 merge: str = "last"):
        if capacity < 2:
            raise ValueError("capacity must be >= 2 (pair-merge downsampling)")
        if merge not in ("last", "max"):
            raise ValueError(f"unknown merge mode {merge!r}")
        self.capacity = capacity
        self.depth = depth
        self.merge = merge
        # _levels[0] is finest; each level is a time-ascending list of
        # [time, value] pairs, all older than the level above it.
        self._levels: list[list[list[float]]] = [[] for _ in range(depth)]

    def append(self, time: float, value: float) -> None:
        # Coerced eagerly so exports are type-stable across a
        # checkpoint round-trip (restored values are always floats).
        self._levels[0].append([float(time), float(value)])
        for level in range(self.depth):
            ring = self._levels[level]
            if len(ring) <= self.capacity:
                break
            first, second = ring.pop(0), ring.pop(0)
            merged_value = (
                max(first[1], second[1]) if self.merge == "max" else second[1]
            )
            if level + 1 < self.depth:
                self._levels[level + 1].append([second[0], merged_value])
            # deepest level: the pair collapses and the earlier half is
            # forgotten for good
            else:
                ring.insert(0, [second[0], merged_value])

    def points(self, start: float | None = None,
               end: float | None = None) -> list[tuple[float, float]]:
        """Time-ascending ``(time, value)`` pairs, optionally windowed."""
        merged: list[tuple[float, float]] = []
        for level in reversed(self._levels):
            merged.extend((point[0], point[1]) for point in level)
        if start is not None:
            merged = merged[bisect_left(merged, (start, float("-inf"))):]
        if end is not None:
            merged = merged[:bisect_right(merged, (end, float("inf")))]
        return merged

    def latest(self) -> tuple[float, float] | None:
        for level in self._levels:
            if level:
                last = level[-1]
                return (last[0], last[1])
        return None

    def __len__(self) -> int:
        return sum(len(level) for level in self._levels)

    # ----- state -----

    def state_dict(self) -> dict:
        return {
            "merge": self.merge,
            "levels": [[list(point) for point in level]
                       for level in self._levels],
        }

    def restore(self, state: dict) -> None:
        self.merge = state["merge"]
        levels = [
            [[float(time), float(value)] for time, value in level]
            for level in state["levels"]
        ]
        if len(levels) != self.depth:
            raise ValueError(
                f"series depth mismatch: captured {len(levels)}, "
                f"store configured for {self.depth}"
            )
        self._levels = levels


class TimeSeriesStore:
    """Cadenced history of every canonical registry series.

    ``maybe_sample(now, registry)`` is the hot-path entry point: it
    no-ops until ``interval`` virtual seconds have elapsed since the
    last sample, so callers (every worker's ``_sample``) can invoke it
    unconditionally.  In a cluster the scheduler steps the
    furthest-behind worker first, so ``now`` is non-decreasing across
    callers and the sampling timeline is fleet-deterministic.
    """

    def __init__(self, interval: float = 300.0, capacity: int = 64,
                 depth: int = 4):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.capacity = capacity
        self.depth = depth
        self.samples = 0
        self._last_sample: float | None = None
        self._series: dict[str, SeriesBuffer] = {}

    # ----- sampling -----

    def due(self, now: float) -> bool:
        return (
            self._last_sample is None
            or now - self._last_sample >= self.interval
        )

    def maybe_sample(self, now: float, registry) -> bool:
        if not self.due(now):
            return False
        self.sample(now, registry)
        return True

    def sample(self, now: float, registry) -> None:
        """Unconditionally record one sample at virtual time ``now``."""
        for key, (value, merge) in flatten_snapshot(
            registry.snapshot()
        ).items():
            buffer = self._series.get(key)
            if buffer is None:
                buffer = SeriesBuffer(
                    capacity=self.capacity, depth=self.depth, merge=merge
                )
                self._series[key] = buffer
            buffer.append(now, value)
        self._last_sample = now
        self.samples += 1

    # ----- queries -----

    def series(self, pattern: str | None = None) -> list[str]:
        """Sorted series keys; ``pattern`` filters by substring match
        (``fuzz.edges`` matches every worker's ``fuzz.edges{worker=i}``).
        """
        keys = sorted(self._series)
        if pattern is None:
            return keys
        return [key for key in keys if pattern in key]

    def points(self, key: str, start: float | None = None,
               end: float | None = None) -> list[tuple[float, float]]:
        buffer = self._series.get(key)
        return buffer.points(start, end) if buffer is not None else []

    def latest(self, key: str) -> tuple[float, float] | None:
        buffer = self._series.get(key)
        return buffer.latest() if buffer is not None else None

    @property
    def last_sample_time(self) -> float | None:
        return self._last_sample

    def slice(self, pattern: str | None = None,
              since: float | None = None) -> dict[str, list[list[float]]]:
        """A JSON-ready window over the store: every series matching
        ``pattern`` (substring, as in :meth:`series`), restricted to
        points strictly after ``since``.

        This is the progress-streaming primitive: a client polls with
        the last timestamp it has seen and receives only the new points,
        per campaign, without the service re-exporting whole files.
        """
        start = None if since is None else math.nextafter(since, math.inf)
        return {
            key: [[time, value] for time, value in self.points(key, start)]
            for key in self.series(pattern)
        }

    def __len__(self) -> int:
        return len(self._series)

    # ----- export -----

    def snapshot(self) -> dict:
        return {
            "interval": self.interval,
            "samples": self.samples,
            "series": {
                key: [[time, value] for time, value in buffer.points()]
                for key, buffer in sorted(self._series.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(
            self.snapshot(), sort_keys=True, separators=(",", ":")
        )

    # ----- checkpointing -----

    def state_dict(self) -> dict:
        return {
            "interval": self.interval,
            "samples": self.samples,
            "last_sample": self._last_sample,
            "series": {
                key: buffer.state_dict()
                for key, buffer in sorted(self._series.items())
            },
        }

    def restore(self, state: dict) -> None:
        self.samples = int(state["samples"])
        last = state["last_sample"]
        self._last_sample = None if last is None else float(last)
        self._series = {}
        for key, captured in state["series"].items():
            buffer = SeriesBuffer(
                capacity=self.capacity, depth=self.depth,
                merge=captured["merge"],
            )
            buffer.restore(captured)
            self._series[key] = buffer


def load_timeseries(text: str) -> TimeSeriesStore:
    """Rebuild a queryable store from an exported ``timeseries.json``.

    The rebuilt store holds every exported point at level 0 (export
    flattens the rings), which is exactly what post-hoc SLO evaluation
    and report rendering need.
    """
    body = json.loads(text)
    series = body.get("series", {})
    capacity = max(
        (len(points) for points in series.values()), default=2
    )
    store = TimeSeriesStore(
        interval=float(body.get("interval", 300.0)),
        capacity=max(capacity, 2), depth=1,
    )
    store.samples = int(body.get("samples", 0))
    for key, points in series.items():
        buffer = SeriesBuffer(capacity=store.capacity, depth=1)
        for time, value in points:
            buffer.append(float(time), float(value))
        store._series[key] = buffer
        if points:
            last = float(points[-1][0])
            if store._last_sample is None or last > store._last_sample:
                store._last_sample = last
    return store
