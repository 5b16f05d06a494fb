"""Outside-in tracing: spans around the layers' public entry points.

Nothing inside the program is instrumented.  :class:`Tracer` replaces
each entry point in :data:`ENTRY_POINTS` with a wrapper that records a
span (name, start, end, parent) on an in-memory span stack.  Methods are
patched on their class; module-level functions are patched at every
import site (each ``repro``/``bench`` module that holds the original),
because callers look them up in their own module globals.

Only spans inside the measured phase, the root span opened by
:meth:`Tracer.root`, count toward the per-layer metrics.  A layer's self
time is its span duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from bench.harness import WORKLOADS as ALL

FUZZ = ("fuzz-oracle", "fuzz-pmm", "service-poll")


def _hub_counts(hub) -> dict[str, int]:
    return {"pushes": hub.stats.pushes, "accepted": hub.stats.accepted}


def _serve_counts(service) -> dict[str, int]:
    return {
        "submitted": service.stats.submitted,
        "completed": service.stats.completed,
    }


@dataclass(frozen=True)
class EntryPoint:
    """One layer boundary.

    ``targets`` are ``module:Class.method`` or ``module:function``.
    ``workloads`` are those whose measured phase must call it; a traced
    run of such a workload fails if the entry point records no call.
    ``counts`` reads counters off the called object (the first
    argument); the wrapper keeps their change across each call.
    """

    name: str
    targets: tuple[str, ...]
    workloads: tuple[str, ...]
    counts: Callable[[object], dict[str, int]] | None = None


ENTRY_POINTS = (
    EntryPoint("syzlang.clone", ("repro.syzlang.program:Program.clone",),
               ALL),
    EntryPoint("fuzzer.mutate",
               ("repro.fuzzer.engine:MutationEngine.mutate_test",), FUZZ),
    EntryPoint("fuzzer.corpus_add", ("repro.fuzzer.corpus:Corpus.add",),
               FUZZ),
    EntryPoint("kernel.exec", ("repro.kernel.executor:Executor.run",), ALL),
    EntryPoint("kernel.build", ("repro.kernel.versions:build_kernel",),
               ("service-poll",)),
    EntryPoint("snowplow.localize_oracle",
               ("repro.snowplow.oracle:OracleLocalizer.localize",),
               ("fuzz-oracle",)),
    EntryPoint("snowplow.localize_pmm",
               ("repro.snowplow.fuzzer:PMMLocalizer.localize",),
               ("fuzz-pmm",)),
    EntryPoint("graphs.build", ("repro.graphs.build:build_query_graph",),
               ("fuzz-pmm", "pmm-train")),
    EntryPoint("graphs.encode", ("repro.graphs.encode:GraphEncoder.encode",),
               ("fuzz-pmm", "pmm-train")),
    EntryPoint("pmm.predict", ("repro.pmm.model:PMM.predict_paths",),
               ("fuzz-pmm", "pmm-train")),
    EntryPoint("pmm.loss", ("repro.pmm.model:PMM.loss",), ("pmm-train",)),
    EntryPoint("nn.backward", ("repro.nn.tensor:Tensor.backward",),
               ("pmm-train",)),
    EntryPoint("nn.optim_step",
               ("repro.nn.optim:Adam.step", "repro.nn.optim:SGD.step"),
               ("pmm-train",)),
    EntryPoint("pmm.harvest", ("repro.pmm.dataset:harvest_mutations",),
               ("pmm-train",)),
    EntryPoint("pmm.serve",
               ("repro.pmm.serve:InferenceService.submit",
                "repro.pmm.serve:InferenceService.poll",
                "repro.pmm.serve:BatchingInferenceService.submit",
                "repro.pmm.serve:BatchingInferenceService.poll"),
               FUZZ, _serve_counts),
    EntryPoint("cluster.hub_push",
               ("repro.cluster.hub:CorpusHub.push",
                "repro.cluster.shards:ShardedHub.push"),
               ("service-poll",), _hub_counts),
    EntryPoint("service.handle",
               ("repro.service.server:ServiceServer.handle",),
               ("service-poll",)),
    EntryPoint("service.materialize",
               ("repro.service.runner:JobRunner.__init__",),
               ("service-poll",)),
    EntryPoint("service.job_restore",
               ("repro.service.runner:JobRunner.restore",),
               ("service-poll",)),
    EntryPoint("service.job_state",
               ("repro.service.runner:JobRunner.state_dict",),
               ("service-poll",)),
    EntryPoint("snowplow.restore",
               ("repro.snowplow.checkpointing:restore_loop_state",
                "repro.snowplow.checkpointing:restore_cluster_state"),
               ("service-poll",)),
    EntryPoint("snowplow.state",
               ("repro.snowplow.checkpointing:loop_state",
                "repro.snowplow.checkpointing:cluster_state"),
               ("service-poll",)),
    EntryPoint("snowplow.ckpt_save",
               ("repro.snowplow.checkpointing:save_checkpoint",),
               ("service-poll",)),
    EntryPoint("snowplow.ckpt_load",
               ("repro.snowplow.checkpointing:load_checkpoint",),
               ("service-poll",)),
    EntryPoint("observe.trace_record",
               ("repro.observe.trace:Tracer.record",), ("service-poll",)),
    EntryPoint("observe.ts_sample",
               ("repro.observe.timeseries:TimeSeriesStore.sample",),
               ("service-poll",)),
)

ROOT = "root"

# Ratios derived from counts, reported next to the per-entry metrics.
DERIVED = (
    ("syzlang.clone.per_exec", "ratio", "lower"),
    ("snowplow.localize_pmm.cache_hit_ratio", "ratio", "higher"),
    ("pmm.serve.completed_ratio", "ratio", "higher"),
    ("cluster.hub.accept_ratio", "ratio", "higher"),
    ("service.materialize.per_advance", "ratio", "lower"),
    ("trace.root_self_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer_declarations() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    declared = []
    for entry in ENTRY_POINTS:
        declared += [
            (f"{entry.name}.calls", "count", "lower"),
            (f"{entry.name}.self_s", "s", "lower"),
            (f"{entry.name}.share", "ratio", "lower"),
        ]
    return declared + list(DERIVED)


class TraceError(RuntimeError):
    """An entry point is missing, or a mapped one was never called."""


def _resolve(target: str):
    """``(owner, attribute, original)`` for one target string."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__.get(attribute) if path else getattr(
        owner, attribute, None
    )
    if original is None:
        raise TraceError(f"entry point {target} does not exist")
    return owner, attribute, original


class Tracer:
    """Records spans around every entry point while installed."""

    def __init__(self):
        # Each span: [name, start, end, parent index, counter deltas].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._root: tuple[int, int] | None = None

    # ----- patching -----

    def install(self) -> None:
        for entry in ENTRY_POINTS:
            for target in entry.targets:
                owner, attribute, original = _resolve(target)
                wrapper = self._wrap(entry.name, original, entry.counts)
                if isinstance(owner, type):
                    self._patch(owner, attribute, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if not name.startswith(("repro", "bench")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _wrap(self, name: str, function, counts):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            before = counts(args[0]) if counts is not None else None
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                span = spans[index]
                span[2] = clock()
                if before is not None:
                    after = counts(args[0])
                    span[4] = {
                        key: after[key] - value for key, value in before.items()
                    }

        return wrapper

    @contextmanager
    def root(self):
        """The measured phase: the only spans the metrics count."""
        index = len(self.spans)
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
            self._root = (index, len(self.spans))

    # ----- results -----

    def _measured(self) -> list[list]:
        if self._root is None:
            raise TraceError("no measured phase was traced")
        first, end = self._root
        return self.spans[first:end]

    def layer_metrics(self, advances: int = 0) -> dict[str, float]:
        """Per-entry calls/self time/share plus the derived ratios."""
        spans = self._measured()
        first = self._root[0]
        wall = spans[0][2] - spans[0][1]
        child_time = [0.0] * len(spans)
        for span in spans[1:]:
            child_time[span[3] - first] += span[2] - span[1]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counters: dict[str, int] = {}
        for offset, span in enumerate(spans):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = (
                self_s.get(name, 0.0) + span[2] - span[1] - child_time[offset]
            )
            for key, delta in (span[4] or {}).items():
                counters[key] = counters.get(key, 0) + delta
        metrics: dict[str, float] = {}
        for entry in ENTRY_POINTS:
            metrics[f"{entry.name}.calls"] = calls.get(entry.name, 0)
            metrics[f"{entry.name}.self_s"] = self_s.get(entry.name, 0.0)
            metrics[f"{entry.name}.share"] = (
                self_s.get(entry.name, 0.0) / wall
            )

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        metrics["syzlang.clone.per_exec"] = ratio(
            calls.get("syzlang.clone", 0), calls.get("kernel.exec", 0)
        )
        localized = calls.get("snowplow.localize_pmm", 0)
        metrics["snowplow.localize_pmm.cache_hit_ratio"] = (
            1.0 - ratio(calls.get("pmm.predict", 0), localized)
            if localized else 0.0
        )
        metrics["pmm.serve.completed_ratio"] = ratio(
            counters.get("completed", 0), counters.get("submitted", 0)
        )
        metrics["cluster.hub.accept_ratio"] = ratio(
            counters.get("accepted", 0), counters.get("pushes", 0)
        )
        metrics["service.materialize.per_advance"] = ratio(
            calls.get("service.materialize", 0), advances
        )
        metrics["trace.root_self_share"] = self_s[ROOT] / wall
        return metrics

    def check_mapped(self, workload: str, metrics: dict[str, float]) -> None:
        """Raise unless every entry point mapped to ``workload`` was hit."""
        missing = [
            entry.name for entry in ENTRY_POINTS
            if workload in entry.workloads
            and not metrics[f"{entry.name}.calls"]
        ]
        if missing:
            raise TraceError(
                f"{workload}: mapped entry points never called: "
                f"{', '.join(missing)}"
            )

    def chrome_trace(self) -> str:
        """Every recorded span (set-up included) as Chrome trace events."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"parent": parent},
            }
            for name, start, end, parent, _ in self.spans
        ]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def format_layers(metrics: dict[str, float]) -> str:
    """The per-layer table, busiest layer first."""
    rows = sorted(
        (entry.name for entry in ENTRY_POINTS),
        key=lambda name: -metrics[f"{name}.self_s"],
    )
    lines = [f"  {'layer entry':<28}{'calls':>9}{'self_s':>10}{'share':>8}"]
    for name in rows:
        if not metrics[f"{name}.calls"]:
            continue
        lines.append(
            f"  {name:<28}{metrics[f'{name}.calls']:>9.0f}"
            f"{metrics[f'{name}.self_s']:>10.3f}"
            f"{100 * metrics[f'{name}.share']:>7.1f}%"
        )
    lines.append(
        f"  {'(root self)':<28}{'':>9}{'':>10}"
        f"{100 * metrics['trace.root_self_share']:>7.1f}%"
    )
    return "\n".join(lines)
