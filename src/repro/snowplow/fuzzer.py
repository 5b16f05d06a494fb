"""The Snowplow fuzz loop: PMM as the argument localizer (§3.4).

Control flow per iteration:

1. completed inference results are polled from the service; each result
   enqueues a burst of argument mutations on the predicted paths — more
   predicted arguments, more mutations (the dynamic adjustment of §3.4);
2. if a burst is pending, its next mutation runs;
3. otherwise the chosen base test's mutation query is submitted (unless
   the queue is full) and the loop falls back to the fuzzer's own
   heuristics — mostly non-argument mutation types, with a small
   probability of random argument localization as the §3.4 safety net.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.faults import CircuitBreaker, FaultInjector
from repro.fuzzer.corpus import CorpusEntry
from repro.fuzzer.engine import MutationEngine, MutationOutcome, TypeSelector
from repro.fuzzer.loop import FuzzLoop, FuzzStats
from repro.graphs.build import build_query_graph
from repro.graphs.encode import GraphEncoder
from repro.kernel.build import Kernel
from repro.kernel.coverage import Coverage
from repro.nn.tensor import Tensor, no_grad
from repro.pmm.model import PMM
from repro.observe import Observer
from repro.pmm.serve import BatchingInferenceService, InferenceService
from repro.syzlang.program import ArgPath, Program

__all__ = [
    "PMMLocalizer",
    "SnowplowConfig",
    "SnowplowLoop",
    "build_inference_service",
]


# Max targets marked per mutation query (uncovered frontier sample).
MAX_TARGETS = 8
# Sigmoid threshold for MUTATE at fuzz time.  Deliberately recall-biased
# (below the F1-calibrated decision threshold): a spurious predicted
# argument costs one wasted mutation, a missed one forfeits the whole
# burst.
PREDICTION_THRESHOLD = 0.30
# Burst size per predicted argument (dynamic adjustment, §3.4).  Hard
# branches compare against exact operands; with the instantiator's ~10 %
# per-draw chance of producing the right constant, a burst needs
# double-digit draws per argument.
MUTATIONS_PER_PREDICTED_ARG = 8
MAX_BURST = 24
# Ceiling on the share of loop iterations given to pending PMM bursts;
# the rest keep the fuzzer's other mutation types flowing (Snowplow
# replaces the *argument* localizer, not the whole mutation mix — §3.4).
# The effective share adapts to recent burst yield: when predictions
# stop producing coverage (late-campaign residue the model cannot
# localize), Snowplow degrades gracefully toward the baseline mix
# instead of taxing the loop.
BURST_SHARE = 0.7
BURST_SHARE_FLOOR = 0.15
# EMA smoothing for per-mutation burst success.
BURST_YIELD_DECAY = 0.97
# Inference service sizing: ~39 concurrent slots reproduce the paper's
# 57 q/s at 0.69 s latency (machine_infer, 8 L4 GPUs).
SERVERS = 40
MAX_QUEUE = 128
# Dynamic batching (cluster serving tier): a batch of b requests
# occupies one slot for ``(BATCH_BASE_FACTOR + b * BATCH_MARGINAL_FACTOR)
# * inference_latency`` — at b=1 that is exactly the unbatched latency,
# so single-worker runs are unchanged, while a full batch of 8 amortizes
# the fixed cost ~2.9x.
BATCH_TIMEOUT_FACTOR = 0.25
BATCH_BASE_FACTOR = 0.75
BATCH_MARGINAL_FACTOR = 0.25
# Resilience (§3.4's degradation story, under fault injection):
# per-request deadline and first-retry backoff, as multiples of the
# inference latency; retries double the backoff each attempt.
REQUEST_DEADLINE_FACTOR = 2.0
RETRY_BACKOFF_FACTOR = 0.5
MAX_RETRIES = 2
# Circuit breaker: consecutive delivery failures before the serving tier
# is declared down, and how long (in latencies) to wait before the
# half-open probe.
BREAKER_FAILURE_THRESHOLD = 4
BREAKER_RESET_FACTOR = 4.0


@dataclass
class SnowplowConfig:
    """The knobs of the hybrid integration that callers set."""

    # Probability of a random argument localization on the fallback path.
    fallback_argument_prob: float = 0.10
    # Serving-tier max batch size; 1 disables batching entirely.
    max_batch_size: int = 8
    # Deadline-aware load shedding: refuse a submission whose projected
    # slot wait exceeds this many inference latencies (the worker falls
    # back to the heuristic localizer instead of queueing stale work).
    # None keeps the historical queue-until-full behaviour.
    shed_timeout_factor: float | None = None


def build_inference_service(
    predict_fn,
    config: SnowplowConfig,
    latency: float,
    injector: FaultInjector | None = None,
    observer: Observer | None = None,
    batched: bool = False,
) -> InferenceService:
    """The serving tier ``config`` describes, at ``latency`` virtual
    seconds per unbatched inference.

    Deadline, retry backoff, shed timeout and breaker reset are
    factors of ``latency``; ``observer`` supplies the metrics registry
    and tracer.  ``batched=True`` (a cluster's shared tier) batches
    requests when ``config.max_batch_size > 1``.
    """
    common = dict(
        servers=SERVERS,
        max_queue=MAX_QUEUE,
        deadline=REQUEST_DEADLINE_FACTOR * latency,
        max_retries=MAX_RETRIES,
        retry_backoff=RETRY_BACKOFF_FACTOR * latency,
        injector=injector,
        breaker=CircuitBreaker(
            failure_threshold=BREAKER_FAILURE_THRESHOLD,
            reset_timeout=BREAKER_RESET_FACTOR * latency,
        ),
        registry=observer.registry if observer is not None else None,
        tracer=observer.tracer if observer is not None else None,
        shed_timeout=(
            config.shed_timeout_factor * latency
            if config.shed_timeout_factor is not None else None
        ),
    )
    if batched and config.max_batch_size > 1:
        return BatchingInferenceService(
            predict_fn,
            base_latency=BATCH_BASE_FACTOR * latency,
            marginal_latency=BATCH_MARGINAL_FACTOR * latency,
            max_batch_size=config.max_batch_size,
            batch_timeout=BATCH_TIMEOUT_FACTOR * latency,
            **common,
        )
    return InferenceService(predict_fn, latency=latency, **common)


class PMMLocalizer:
    """A :class:`~repro.fuzzer.localizer.Localizer` backed by PMM.

    Used directly (synchronously) by Snowplow-D; the undirected Snowplow
    loop goes through the asynchronous service instead.

    The localizer is the fuzz-time owner of one kernel and one frozen
    model.  Contract: ``model`` is never trained while a localizer
    holds it (weights change only in the trainer, assembly pretraining
    and checkpoint loading, all of which finish before a localizer is
    built).  That makes a block's pooled assembly embedding a function
    of its token row alone, so :meth:`encode_blocks` computes each
    distinct row once per localizer instead of once per query.
    """

    def __init__(
        self,
        model: PMM,
        encoder: GraphEncoder,
        kernel: Kernel,
        executor,
        cache_size: int = 512,
        profiler=None,
    ):
        self.model = model
        self.encoder = encoder
        self.kernel = kernel
        self.executor = executor
        self.cache_size = cache_size
        self.profiler = profiler
        self._cache: dict = {}
        # Pooled block embeddings keyed by token-row bytes; unbounded,
        # since there are at most as many rows as kernel blocks.
        self._block_embeddings: dict[bytes, np.ndarray] = {}

    def _section(self, name: str):
        if self.profiler is None:
            return nullcontext()
        return self.profiler.section(name)

    def localize(
        self,
        program: Program,
        coverage: Coverage | None,
        targets: set[int] | None,
        rng: np.random.Generator,
    ) -> list[ArgPath]:
        if coverage is None or not coverage.call_traces:
            coverage = self.executor.run(program).coverage
        if targets is None:
            frontier = sorted(self.kernel.frontier(coverage.blocks))
            if not frontier:
                return []
            picks = rng.permutation(len(frontier))[:MAX_TARGETS]
            targets = {frontier[int(pick)] for pick in picks}
        cache_key = self._cache_key(program, targets)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return list(cached)
        with self._section("localizer.graph_build"):
            graph = build_query_graph(program, coverage, self.kernel, targets)
        if not graph.mutable_argument_nodes():
            return []
        with self._section("localizer.encode"):
            encoded = self.encoder.encode(graph)
        with self._section("localizer.gnn_forward"):
            paths = self.model.predict_paths(
                encoded, threshold=PREDICTION_THRESHOLD,
                block_encoder=self.encode_blocks,
            )
        if len(self._cache) >= self.cache_size:
            self._cache.clear()
        self._cache[cache_key] = list(paths)
        return paths

    def encode_blocks(self, token_rows: np.ndarray) -> Tensor:
        """Pooled embeddings [B, D] of block ``token_rows`` [B, L].

        Rows not seen before are encoded in one batch through the
        model's assembly encoder; pooled rows do not depend on the
        batch they were encoded in, so cached and fresh rows agree
        bit for bit.
        """
        cache = self._block_embeddings
        keys = [row.tobytes() for row in token_rows]
        misses = {
            key: row for key, row in zip(keys, token_rows) if key not in cache
        }
        if misses:
            with no_grad():
                pooled = self.model.asm_encoder(
                    np.stack(list(misses.values()))
                )
            cache.update(zip(misses, pooled.data))
        return Tensor(np.stack([cache[key] for key in keys]))

    @staticmethod
    def _cache_key(program: Program, targets: set[int]):
        from repro.syzlang.parser import serialize_program

        return (serialize_program(program), frozenset(targets))


@dataclass
class _Burst:
    """Pending PMM-guided argument mutations for one base test."""

    program: Program
    paths: list[ArgPath]
    remaining: int
    targets: set[int]
    hints: frozenset[int] = frozenset()
    # Model-quality evidence: predicted targets this burst's own
    # mutations covered, and how many new blocks it gained in total.
    hit: set[int] = field(default_factory=set)
    gained: int = 0
    # Deterministic burst id ("w<worker>b<seq>") stamped into the
    # lineage records of every mutation this burst schedules.
    burst_id: str | None = None


class SnowplowLoop(FuzzLoop):
    """FuzzLoop with asynchronous PMM argument localization."""

    def __init__(
        self,
        *args,
        localizer: PMMLocalizer,
        snowplow_config: SnowplowConfig | None = None,
        service=None,
        analysis=None,
        director=None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.pmm_localizer = localizer
        self.snowplow_config = snowplow_config or SnowplowConfig()
        # Optional repro.analyze.ReachabilityAnalysis: frontier targets
        # it proves statically dead are dropped before they waste a
        # mutation query (fuzz.dead_targets_skipped counts them).  None
        # keeps target selection byte-identical to earlier baselines.
        self.analysis = analysis
        # Optional repro.analyze.impact.PatchDirector: biases target
        # selection toward a release's changed-block surface and
        # schedules directed steering mutations.  None (and
        # observe-only directors, which draw no randomness) keep the
        # loop byte-identical to the undirected baseline.
        self.director = director
        self._directed_last = False
        cfg = self.snowplow_config
        # A cluster hands every worker a view onto one shared serving
        # tier; standalone loops build their own private, unbatched
        # service.
        self._owns_service = service is None
        if service is not None:
            self.service = service
        else:
            self.service = build_inference_service(
                self._predict, cfg, self.cost.inference_latency,
                injector=self.injector, observer=self.observer,
            )
        # The oracle localizer has no profiler hook; only the PMM path
        # attributes graph-build/GNN time.
        if (
            self.observer is not None
            and getattr(localizer, "profiler", False) is None
        ):
            localizer.profiler = self.observer.profiler
        self._bursts: deque[_Burst] = deque()
        # Live localizer scoring (precision/recall@k against realized
        # coverage) — observed runs only, keyed by kernel release so
        # cross-version drift falls out of the snapshot.
        if self.observer is not None:
            from repro.observe import ModelQualityTracker

            self._model_quality = ModelQualityTracker(
                self.observer.registry,
                kernel=self.kernel.version,
                worker=self.worker,
            )
        else:
            self._model_quality = None
        # Recent burst productivity (EMA of "this burst mutation found
        # new coverage"), driving the adaptive burst share.
        self._burst_yield = 0.25
        self._active_burst: _Burst | None = None
        # Monotone burst counter behind the deterministic burst ids
        # (checkpointed, so resumed runs keep numbering where they were).
        self._burst_seq = 0
        # The fallback selector rarely mutates arguments at random;
        # insertion/removal keep their usual share (§3.4).
        self._fallback_selector = TypeSelector(
            argument_weight=cfg.fallback_argument_prob,
            insertion_weight=0.30,
            removal_weight=0.10,
        )

    # ----- inference plumbing -----

    def _predict(self, query) -> list[ArgPath]:
        program, coverage, targets, _ = query
        return self.pmm_localizer.localize(
            program, coverage, targets, self.rng
        )

    def _query_targets(self, coverage: Coverage) -> set[int] | None:
        """Frontier blocks of this test still uncovered globally.

        Blocks guarded by argument conditions are preferred: an
        argument-mutation query aimed at a branch that only kernel state
        can flip wastes the prediction.  (The same static CFG analysis
        that produces the frontier exposes the guarding condition.)
        """
        from repro.kernel.conditions import ArgCondition

        frontier = self.kernel.frontier(coverage.blocks)
        fresh = sorted(frontier - self.accumulated.blocks)
        if self.analysis is not None and fresh:
            live = [
                block for block in fresh
                if not self.analysis.is_dead(block)
            ]
            self.stats.dead_targets_skipped += len(fresh) - len(live)
            fresh = live
        if not fresh:
            return None
        steerable = [
            block for block in fresh
            if isinstance(self.kernel.guarding_condition(block), ArgCondition)
        ]
        pool = steerable or fresh
        picks = self.rng.permutation(len(pool))
        limit = MAX_TARGETS
        director = self.director
        if director is not None and not director.observe_only:
            # Directed mode: half the query slots go to the frontier
            # blocks nearest the pending changed surface (pending
            # targets themselves rank first at distance 0); the rest
            # stay random so undirected exploration keeps flowing.
            chosen = set(director.rank_targets(fresh, max(1, limit // 2)))
            for pick in picks:
                if len(chosen) >= limit:
                    break
                chosen.add(pool[int(pick)])
            return chosen or None
        return {pool[int(pick)] for pick in picks[:limit]}

    def seed(self, programs) -> None:
        super().seed(programs)
        if self.director is not None:
            # Targets the seed corpus already covers count as reached at
            # time zero — both arms of a directed-vs-plain comparison
            # see the identical starting surface.
            self.director.note_coverage(
                self.accumulated.blocks, self.clock.now
            )

    # ----- the hook -----

    def propose_mutation(self, entry: CorpusEntry) -> MutationOutcome | None:
        start = self.clock.now
        try:
            return self._propose(entry)
        finally:
            if self.tracer is not None:
                self.tracer.record(
                    self.track, "mutate", start, self.clock.now, cat="mutate",
                )

    def _propose(self, entry: CorpusEntry) -> MutationOutcome | None:
        self._directed_last = False
        self.clock.advance(self.cost.mutation, "mutation")
        if self.cost.inference_charge:
            # Blocking-inference ablation: the loop pays the latency.
            self.clock.advance(self.cost.inference_charge, "inference")
        completed = self.service.poll(self.clock.now)
        self.stats.inference_completed += len(completed)
        # Requests lost to injected timeouts/slot crashes never burst;
        # the fuzzer simply keeps its heuristics flowing (§3.4), but the
        # losses are accounted so degraded runs are measurable.
        self.stats.inference_failures += len(self.service.drain_failures())
        for query, paths in completed:
            program, _, targets, hints = query
            if self._model_quality is not None:
                self._model_quality.note_prediction(bool(paths))
            if paths:
                burst = min(
                    MAX_BURST, MUTATIONS_PER_PREDICTED_ARG * len(paths)
                )
                self._burst_seq += 1
                self._bursts.append(
                    _Burst(
                        program=program, paths=list(paths),
                        remaining=burst, targets=set(targets), hints=hints,
                        burst_id=f"w{self.worker}b{self._burst_seq}",
                    )
                )
        burst = self._next_live_burst()
        if burst is not None and (
            self.rng.random() < self._effective_burst_share()
        ):
            burst.remaining -= 1
            if burst.remaining <= 0:
                self._bursts.popleft()
            self._active_burst = burst
            chosen = self._choose_burst_paths(burst.paths)
            return self.engine.mutate_test(
                burst.program, forced_paths=chosen, hints=burst.hints
            )
        self._active_burst = None
        director = self.director
        if (
            director is not None
            and not director.observe_only
            and director.pending
            and self.rng.random() < director.directed_share
        ):
            # Patch-directed steering: plant the target (or producer)
            # call, or force-mutate the pending slots the oracle says
            # still violate a mandatory predicate.
            outcome = director.propose(entry.program, self.engine, self.rng)
            if outcome is not None:
                self._directed_last = True
                return outcome
        self._maybe_submit(entry.program, entry.coverage, entry.hints)
        # Fallback: the fuzzer's own heuristics while inference runs.
        # When PMM bursts are productive, random argument localization is
        # mostly redundant and stays rare (§3.4); when they dry up, the
        # fallback restores Syzkaller's full argument-mutation share so
        # the hybrid never does worse than its host fuzzer.
        original_selector = self.engine.selector
        self.engine.selector = self._adaptive_fallback_selector()
        try:
            return self.engine.mutate_test(
                entry.program, entry.coverage, hints=entry.hints
            )
        finally:
            self.engine.selector = original_selector

    def _mutation_meta(self) -> tuple[str, str, str | None, int]:
        """Burst-steered mutations are the learned engine; the fallback
        path is the host fuzzer's own heuristics."""
        burst = self._active_burst
        if burst is None:
            if self._directed_last and self.director is not None:
                return (
                    "snowplow", "patch", None,
                    self.director.last_proposal_paths,
                )
            return super()._mutation_meta()
        slot = "pmm" if hasattr(self.pmm_localizer, "model") else "oracle"
        return "snowplow", slot, burst.burst_id, len(burst.paths)

    def _adaptive_fallback_selector(self) -> TypeSelector:
        argument_weight = max(
            self.snowplow_config.fallback_argument_prob,
            0.60 - 2.0 * self._burst_yield,
        )
        return TypeSelector(
            argument_weight=min(argument_weight, 0.60),
            insertion_weight=0.30,
            removal_weight=0.10,
        )

    def _effective_burst_share(self) -> float:
        """Adaptive scheduling: recent burst yield sets the share."""
        share = BURST_SHARE_FLOOR + 3.0 * self._burst_yield
        return min(BURST_SHARE, share)

    def _run_candidate(self, entry, outcome) -> None:
        pre_edges = len(self.accumulated.edges)
        pre_blocks = len(self.accumulated.blocks)
        burst = self._active_burst
        # Targets still unreached before this execution: anything in
        # here that is covered afterwards was hit by *this* mutation
        # (hub pulls only land between iterations, never inside one).
        pending_targets = (
            burst.targets - self.accumulated.blocks
            if burst is not None else None
        )
        super()._run_candidate(entry, outcome)
        if (
            self.director is not None
            and len(self.accumulated.blocks) != pre_blocks
        ):
            self.director.note_coverage(
                self.accumulated.blocks, self.clock.now
            )
        if burst is not None:
            produced = len(self.accumulated.edges) > pre_edges
            self._burst_yield = (
                BURST_YIELD_DECAY * self._burst_yield
                + (1.0 - BURST_YIELD_DECAY) * float(produced)
            )
            burst.gained += len(self.accumulated.blocks) - pre_blocks
            burst.hit |= pending_targets & self.accumulated.blocks
            if burst.remaining <= 0:
                self._score_burst(burst)
            self._active_burst = None

    def _score_burst(self, burst: _Burst) -> None:
        if self._model_quality is not None:
            self._model_quality.score_burst(
                burst.targets, burst.hit, burst.gained
            )

    def _next_live_burst(self) -> _Burst | None:
        """The front-most burst whose targets are still uncovered.

        Inference latency means a prediction can arrive after other
        mutations already reached its targets; spending the burst then
        would duplicate coverage, so stale bursts are dropped.
        """
        while self._bursts:
            burst = self._bursts[0]
            if burst.targets - self.accumulated.blocks:
                return burst
            # Stale bursts still get scored: a prediction overtaken by
            # the rest of the fleet is (deserved) zero precision unless
            # this burst's own early mutations produced the hits.
            self._score_burst(burst)
            self._bursts.popleft()
        return None

    def _maybe_submit(
        self,
        program: Program,
        coverage: Coverage,
        hints: frozenset[int] = frozenset(),
    ) -> None:
        targets = self._query_targets(coverage)
        if targets is None:
            return
        ready = self.service.submit(
            (program, coverage, targets, hints), self.clock.now
        )
        if ready is None:
            # Queue full or breaker open: this query's localization is
            # served by the heuristic SyzkallerLocalizer instead.
            self.stats.heuristic_fallbacks += 1
        else:
            self.stats.inference_submitted += 1

    def finalize(self) -> FuzzStats:
        stats = super().finalize()
        if self.director is not None:
            self.director.publish()
        if self._owns_service:
            # Breaker visibility belongs to whoever owns the tier: with
            # a shared cluster service the cluster result reports it once
            # instead of every worker double-counting the same trips.
            stats.breaker_trips = self.service.stats.breaker_trips
            stats.breaker_state = self.service.stats.breaker_state
        return stats

    def on_new_coverage(self, entry, outcome, coverage) -> None:
        """Chain climbing (§3.4): a test that just crossed one branch is
        queried immediately for its next frontier instead of waiting to
        be re-chosen from the corpus."""
        self._maybe_submit(outcome.program, coverage)

    def _choose_burst_paths(self, paths: list[ArgPath]) -> list[ArgPath]:
        """Each burst mutation rewrites a subset of the predicted
        arguments, always including the most confident one (predictions
        arrive sorted by probability)."""
        if len(paths) == 1:
            return list(paths)
        chosen = [paths[0]]
        for path in paths[1:3]:
            if self.rng.random() < 0.4:
                chosen.append(path)
        return chosen
