"""Deterministic metrics: counters, gauges, and streaming histograms.

Every number the fuzzing/serving stack reports flows through a
:class:`MetricsRegistry`.  The registry is the single source of truth —
the public stats dataclass-style views (``FuzzStats``,
``InferenceStats``, ``HubStats``) are thin reads over registry series —
and it is built for the same property the rest of the reproduction has:
**bit-reproducibility**.  Same seed, same series,
byte-identical snapshots; a registry restored from a checkpoint
continues exactly where the captured one stopped.

Three instrument kinds:

- :class:`Counter` — monotone-by-convention numeric series (``inc``),
  though restores and stats views may ``set`` them directly;
- :class:`Gauge` — last-write-wins value (e.g. virtual-time charges
  published at campaign finalize);
- :class:`Histogram` — a streaming distribution with p50/p95/p99 that
  **stores no samples**: values land in exact power-of-two buckets
  (computed with ``math.frexp``, so bucketing never depends on
  platform-sensitive logarithms), and quantiles read off the cumulative
  bucket counts, clamped to the tracked min/max.

Series are identified by name plus sorted labels —
``fuzz.executions{worker=3}`` — so per-worker fleet series coexist in
one registry.  Series marked ``diagnostic`` (e.g. ``fuzz.resumes``,
which counts *process* incidents rather than simulated work) are
excluded from the canonical snapshot so that an interrupted-and-resumed
campaign exports byte-identically to an uninterrupted one.
"""

from __future__ import annotations

import json
import math
from collections.abc import MutableMapping

__all__ = [
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "LabeledCounterMap",
    "MetricsRegistry",
    "parse_series_key",
    "series_key",
]


def series_key(name: str, labels: dict | None = None) -> str:
    """Canonical series identity: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    rendered = ",".join(
        f"{key}={labels[key]}" for key in sorted(labels, key=str)
    )
    return f"{name}{{{rendered}}}"


def parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`series_key`: ``name{k=v,...}`` → (name, labels).

    Label values come back as strings — snapshot keys carry no type
    information.  A derived-field suffix (``serve.queue_delay{...}/p95``)
    stays attached to the name.
    """
    brace = key.find("{")
    if brace == -1:
        return key, {}
    close = key.rfind("}")
    name = key[:brace] + (key[close + 1:] if close != -1 else "")
    labels: dict[str, str] = {}
    for part in key[brace + 1:close].split(","):
        if "=" in part:
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


class Counter:
    """A numeric series that accumulates."""

    __slots__ = ("name", "labels", "value", "diagnostic")
    kind = "counter"

    def __init__(self, name: str, labels: dict, diagnostic: bool = False):
        self.name = name
        self.labels = labels
        self.value = 0
        self.diagnostic = diagnostic

    def inc(self, amount=1) -> None:
        self.value += amount

    def set(self, value) -> None:
        self.value = value

    @property
    def key(self) -> str:
        return series_key(self.name, self.labels)


class Gauge:
    """A numeric series holding its most recent value."""

    __slots__ = ("name", "labels", "value", "diagnostic")
    kind = "gauge"

    def __init__(self, name: str, labels: dict, diagnostic: bool = False):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.diagnostic = diagnostic

    def set(self, value) -> None:
        self.value = value

    @property
    def key(self) -> str:
        return series_key(self.name, self.labels)


class Histogram:
    """Streaming distribution over non-negative values.

    Values land in exact power-of-two buckets: value ``v`` belongs to
    bucket ``i`` with ``2**(i-1) < v <= 2**i`` (zero has its own
    bucket).  The bucket index comes from ``math.frexp`` — an exact
    float decomposition — so two machines bucket identically.  Quantiles
    return the covering bucket's upper bound clamped to the observed
    ``[min, max]``; with bucket resolution of 2x that makes p50/p95/p99
    deterministic, bounded-error reads that cost O(buckets) memory no
    matter how many samples stream through.
    """

    __slots__ = (
        "name", "labels", "diagnostic",
        "count", "total", "vmin", "vmax", "zero", "buckets",
    )
    kind = "histogram"

    def __init__(self, name: str, labels: dict, diagnostic: bool = False):
        self.name = name
        self.labels = labels
        self.diagnostic = diagnostic
        self.count = 0
        self.total = 0.0
        self.vmin = 0.0
        self.vmax = 0.0
        self.zero = 0          # exact-zero observations
        self.buckets: dict[int, int] = {}

    @property
    def key(self) -> str:
        return series_key(self.name, self.labels)

    @staticmethod
    def bucket_of(value: float) -> int:
        """Index ``i`` with ``2**(i-1) < value <= 2**i`` (value > 0)."""
        mantissa, exponent = math.frexp(value)
        # frexp: value = mantissa * 2**exponent, mantissa in [0.5, 1).
        # Exact powers of two sit on their bucket's upper bound.
        return exponent - 1 if mantissa == 0.5 else exponent

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram values must be >= 0, got {value}")
        if self.count == 0:
            self.vmin = self.vmax = value
        else:
            self.vmin = min(self.vmin, value)
            self.vmax = max(self.vmax, value)
        self.count += 1
        self.total += value
        if value == 0:
            self.zero += 1
        else:
            index = self.bucket_of(value)
            self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic quantile estimate (bucket upper bound, clamped)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # Degenerate distributions answer exactly, not via bucket math:
        # a single sample (or any all-equal stream) has every quantile
        # equal to the one observed value.
        if self.vmin == self.vmax:
            return self.vmin
        target = max(1, math.ceil(q * self.count))
        cumulative = self.zero
        if cumulative >= target:
            return 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                upper = math.ldexp(1.0, index)
                return min(max(upper, self.vmin), self.vmax)
        return self.vmax

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    # ----- state -----

    def state_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "zero": self.zero,
            "buckets": {str(index): count
                        for index, count in sorted(self.buckets.items())},
        }

    def restore(self, state: dict) -> None:
        self.count = int(state["count"])
        self.total = float(state["total"])
        self.vmin = float(state["min"])
        self.vmax = float(state["max"])
        self.zero = int(state["zero"])
        self.buckets = {
            int(index): int(count)
            for index, count in state["buckets"].items()
        }

    def snapshot(self) -> dict:
        """State plus the derived quantiles, for human-facing dumps."""
        body = self.state_dict()
        body["mean"] = self.mean
        body["p50"] = self.p50
        body["p95"] = self.p95
        body["p99"] = self.p99
        return body


class MetricsRegistry:
    """All metric series of one campaign (or one component under test).

    Instruments are created on first access and live for the registry's
    lifetime; asking for an existing series with a different kind is an
    error (one name+labels, one meaning).
    """

    def __init__(self):
        self._series: dict[str, object] = {}

    # ----- instrument access -----

    def counter(self, name: str, *, diagnostic: bool = False, **labels) -> Counter:
        return self._get(Counter, name, labels, diagnostic)

    def gauge(self, name: str, *, diagnostic: bool = False, **labels) -> Gauge:
        return self._get(Gauge, name, labels, diagnostic)

    def histogram(
        self, name: str, *, diagnostic: bool = False, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, diagnostic)

    def _get(self, cls, name: str, labels: dict, diagnostic: bool):
        key = series_key(name, labels)
        instrument = self._series.get(key)
        if instrument is None:
            instrument = cls(name, dict(labels), diagnostic=diagnostic)
            self._series[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"series {key!r} is a {instrument.kind}, not a {cls.kind}"
            )
        return instrument

    def remove(self, name: str, **labels) -> None:
        self._series.pop(series_key(name, labels), None)

    def series(self):
        """All instruments in sorted-key order (deterministic)."""
        for key in sorted(self._series):
            yield self._series[key]

    def __len__(self) -> int:
        return len(self._series)

    # ----- snapshots -----

    def snapshot(self, full: bool = False) -> dict:
        """Canonical snapshot: ``{counters, gauges, histograms}``.

        Diagnostic series (process incidents like resume counts) are
        excluded unless ``full`` — the canonical snapshot is a pure
        function of the seeded simulation, so interrupted-and-resumed
        campaigns export byte-identically.
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for instrument in self.series():
            if instrument.diagnostic and not full:
                continue
            if isinstance(instrument, Histogram):
                out["histograms"][instrument.key] = instrument.snapshot()
            elif isinstance(instrument, Gauge):
                out["gauges"][instrument.key] = instrument.value
            else:
                out["counters"][instrument.key] = instrument.value
        return out

    def to_json(self) -> str:
        return json.dumps(
            self.snapshot(), sort_keys=True, separators=(",", ":")
        )

    # ----- checkpointing -----

    def state_dict(self) -> dict:
        return {
            "series": [
                {
                    "kind": instrument.kind,
                    "name": instrument.name,
                    "labels": {
                        str(key): value
                        for key, value in instrument.labels.items()
                    },
                    "diagnostic": instrument.diagnostic,
                    "value": (
                        instrument.state_dict()
                        if isinstance(instrument, Histogram)
                        else instrument.value
                    ),
                }
                for instrument in self.series()
            ],
        }

    def restore(self, state: dict) -> None:
        """Overwrite every captured series (unknown series are created).

        Series that exist locally but are absent from ``state`` are left
        alone: a freshly built component may have registered (zeroed)
        instruments the checkpointed run had not touched yet.
        """
        kinds = {"counter": self.counter, "gauge": self.gauge,
                 "histogram": self.histogram}
        for entry in state["series"]:
            labels = {
                key: (int(value) if isinstance(value, bool) is False
                      and isinstance(value, str) and value.lstrip("-").isdigit()
                      else value)
                for key, value in entry["labels"].items()
            }
            instrument = kinds[entry["kind"]](
                entry["name"], diagnostic=bool(entry["diagnostic"]), **labels
            )
            if entry["kind"] == "histogram":
                instrument.restore(entry["value"])
            else:
                instrument.set(entry["value"])


class LabeledCounterMap(MutableMapping):
    """A dict-like view over one labeled counter family.

    ``FuzzStats.mutations`` and ``InferenceStats.batch_sizes`` used to be
    private dicts; they are now views over registry series
    (``fuzz.mutations{type=...}``, ``serve.batches{size=...}``) that keep
    the exact mapping surface the rest of the code — and the tests — use.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        label: str,
        base_labels: dict | None = None,
        key_type=str,
    ):
        self._registry = registry
        self._name = name
        self._label = label
        self._base = dict(base_labels or {})
        self._key_type = key_type
        self._counters: dict = {}

    def _counter(self, key) -> Counter:
        counter = self._counters.get(key)
        if counter is None:
            counter = self._registry.counter(
                self._name, **{**self._base, self._label: key}
            )
            self._counters[key] = counter
        return counter

    def __getitem__(self, key):
        if key not in self._counters:
            raise KeyError(key)
        return self._counters[key].value

    def __setitem__(self, key, value) -> None:
        self._counter(key).set(value)

    def __delitem__(self, key) -> None:
        del self._counters[key]
        self._registry.remove(self._name, **{**self._base, self._label: key})

    def __iter__(self):
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __eq__(self, other) -> bool:
        if isinstance(other, (dict, LabeledCounterMap)):
            return dict(self) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(dict(self))

    def replace(self, mapping: dict) -> None:
        """Atomically swap the whole family for ``mapping`` (restore)."""
        for key in list(self._counters):
            del self[key]
        for key, value in mapping.items():
            self[self._key_type(key)] = value


def _instrument_property(prefix: str, name: str) -> property:
    def _get(self):
        return self._instruments[name].value

    def _set(self, value):
        self._instruments[name].set(value)

    return property(_get, _set, doc=f"view over the {prefix}.{name} series")


class CounterView:
    """Attribute views over one family of registry counters.

    ``FuzzStats``, ``InferenceStats`` and ``HubStats`` subclass this.  A
    subclass names its series prefix in ``PREFIX`` and its counters in
    ``COUNTERS``; each counter becomes a plain property over the
    ``<prefix>.<name>`` series (``stats.executions += 1`` reads and sets
    the registry counter directly — the fuzz loop does this on every
    test).  Counters in ``DIAGNOSTIC`` count process incidents, not
    simulated work, and stay out of canonical snapshots.
    """

    PREFIX = ""
    COUNTERS: tuple[str, ...] = ()
    DIAGNOSTIC: frozenset[str] = frozenset()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name in cls.__dict__.get("COUNTERS", ()):
            setattr(cls, name, _instrument_property(cls.PREFIX, name))

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        labels: dict | None = None,
        **counters,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.labels = dict(labels or {})
        self._instruments = {
            name: self.registry.counter(
                f"{self.PREFIX}.{name}",
                diagnostic=name in self.DIAGNOSTIC,
                **self.labels,
            )
            for name in self.COUNTERS
        }
        for name, value in counters.items():
            if name not in self._instruments:
                raise TypeError(
                    f"{type(self).__name__} got an unexpected counter {name!r}"
                )
            self._instruments[name].set(value)

    def counter_values(self) -> dict[str, int]:
        """Every counter by name, in ``COUNTERS`` order."""
        return {
            name: instrument.value
            for name, instrument in self._instruments.items()
        }

    def restore_counters(self, values: dict) -> None:
        """Set each counter named in ``values`` (other keys are ignored).

        Restored in place, so the views keep pointing at the registry
        series they were built over; a counter ``values`` lacks keeps
        its current value.
        """
        for name, instrument in self._instruments.items():
            if name in values:
                instrument.set(int(values[name]))
