"""Experiment harness: the paper's campaigns at laptop scale.

Each function reproduces one experimental protocol:

- :func:`train_pmm` — §5.1's pipeline: seed corpus → random-mutation
  harvesting → PMM training with validation-F1 model selection;
- :func:`run_coverage_campaign` — Fig. 6: repeated side-by-side 24-hour
  (virtual) runs of Syzkaller vs Snowplow on one kernel, with the
  speedup and final-coverage-improvement summaries;
- :func:`run_crash_campaign` — Tables 2/3: long exhaustive campaigns with
  crash triage, the known-crash (Syzbot) list, and reproducer minimisation;
- :func:`run_directed_campaign` — Table 5: time-to-target for SyzDirect
  vs Snowplow-D over a set of bug-related code locations.
- :func:`run_fault_tolerance_campaign` — the failure model: the same
  seed run fault-free and under an injected :class:`~repro.faults.FaultPlan`
  (inference outages, VM hangs, flaky stores, a mid-run worker crash
  resumed from checkpoint), with the graceful-degradation summary.
- :func:`run_scaling_campaign` — the fleet: deterministic multi-worker
  clusters (:mod:`repro.cluster`) swept over fleet sizes, reporting
  coverage-vs-workers and the shared batching tier's throughput.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import (
    ClusterConfig,
    ClusterFuzzer,
    ClusterResult,
    ClusterWorker,
    CorpusHub,
    FleetSupervisor,
    ShardedHub,
    SharedInferenceTier,
)
from repro.errors import CampaignError
from repro.faults import FaultInjector, FaultPlan
from repro.fuzzer.crash import CrashTriage, TriagedCrash
from repro.fuzzer.directed import DirectedFuzzer, DirectedResult, SyzDirectLocalizer
from repro.fuzzer.engine import MutationEngine, TypeSelector
from repro.fuzzer.localizer import SyzkallerLocalizer
from repro.fuzzer.loop import FuzzLoop, FuzzStats
from repro.graphs.encode import AsmVocab, GraphEncoder
from repro.kernel.blocks import BlockRole
from repro.kernel.build import Kernel
from repro.kernel.executor import Executor
from repro.observe import Observer
from repro.pmm.checkpoint import load_pmm
from repro.pmm.dataset import DatasetConfig, MutationDataset, harvest_mutations
from repro.pmm.metrics import SelectorMetrics
from repro.pmm.model import PMM, PMMConfig
from repro.pmm.train import TrainConfig, Trainer
from repro.rng import derive_seed, make_rng, split
from repro.snowplow.checkpointing import (
    CheckpointStore,
    cluster_state,
    loop_state,
    restore_cluster_state,
    restore_loop_state,
)
from repro.snowplow.fuzzer import (
    PMMLocalizer,
    SnowplowConfig,
    SnowplowLoop,
    build_inference_service,
)
from repro.syzlang.generator import ProgramGenerator
from repro.syzlang.program import Program
from repro.syzlang.spec import SyscallTable
from repro.vclock import CostModel, VirtualClock

__all__ = [
    "CampaignConfig",
    "ChaosCampaignResult",
    "CoverageCampaignResult",
    "CrashCampaignResult",
    "FaultCampaignResult",
    "PatchCampaignResult",
    "ScalingCampaignResult",
    "ScalingPoint",
    "TrainedPMM",
    "build_cluster",
    "build_fuzz_loop",
    "build_loop",
    "campaign_seeds",
    "chaos_plan",
    "fuzz_campaign_config",
    "fuzz_run_seed",
    "default_directed_targets",
    "known_crash_signatures",
    "run_chaos_campaign",
    "run_coverage_campaign",
    "run_crash_campaign",
    "run_directed_campaign",
    "run_fault_tolerance_campaign",
    "run_patch_campaign",
    "run_scaling_campaign",
    "train_pmm",
]

HOUR = 3600.0
DAY = 24 * HOUR


def known_crash_signatures(kernel: Kernel) -> set[str]:
    """The synthetic Syzbot backlog: signatures of all known bugs."""
    return {bug.description() for bug in kernel.bugs if bug.known}


@dataclass
class TrainedPMM:
    """A trained model with everything needed to deploy it."""

    model: PMM
    encoder: GraphEncoder
    vocab: AsmVocab
    dataset: MutationDataset | None
    validation: SelectorMetrics | None

    @classmethod
    def load(cls, path: str, table: SyscallTable) -> TrainedPMM:
        """A deployable model from a :func:`~repro.pmm.checkpoint
        .save_pmm` checkpoint (no dataset or validation travels with
        it).  The one loader behind ``--model`` and service specs."""
        model, vocab, encoder = load_pmm(path, table)
        return cls(
            model=model, encoder=encoder, vocab=vocab,
            dataset=None, validation=None,
        )


def train_pmm(
    kernel: Kernel,
    seed: int = 0,
    corpus_size: int = 120,
    dataset_config: DatasetConfig | None = None,
    pmm_config: PMMConfig | None = None,
    train_config: TrainConfig | None = None,
) -> TrainedPMM:
    """The §5.1 training pipeline on one kernel."""
    generator = ProgramGenerator(kernel.table, split(seed, "train-corpus"))
    executor = Executor(kernel)
    corpus = generator.seed_corpus(corpus_size)
    dataset = harvest_mutations(
        kernel, executor, generator, corpus,
        dataset_config or DatasetConfig(seed=derive_seed(seed, "dataset")),
    )
    vocab = AsmVocab.build(kernel)
    encoder = GraphEncoder(vocab, kernel.table)
    model = PMM(
        len(vocab), encoder.num_syscalls,
        pmm_config or PMMConfig(seed=derive_seed(seed, "model")),
    )
    trainer = Trainer(
        model, dataset, kernel, encoder,
        train_config or TrainConfig(seed=derive_seed(seed, "train")),
    )
    reports = trainer.train()
    validation = reports[-1].validation if reports else None
    best = max(
        (r.validation for r in reports if r.validation is not None),
        key=lambda metrics: metrics.f1,
        default=validation,
    )
    return TrainedPMM(
        model=model, encoder=encoder, vocab=vocab, dataset=dataset,
        validation=best,
    )


@dataclass
class CampaignConfig:
    """Shared experiment knobs."""

    horizon: float = 24 * HOUR
    runs: int = 5
    seed: int = 0
    seed_corpus_size: int = 60
    sample_interval: float = 1800.0
    cost: CostModel = field(default_factory=CostModel)
    snowplow: SnowplowConfig = field(default_factory=SnowplowConfig)


# ----- coverage (Fig. 6) -----


@dataclass
class CoverageCampaignResult:
    """Per-run coverage series and the Fig. 6 summary numbers."""

    kernel_version: str
    horizon: float
    syzkaller_runs: list[FuzzStats]
    snowplow_runs: list[FuzzStats]

    def _grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, 97)

    def _curves(self, runs: list[FuzzStats]) -> np.ndarray:
        """Each run's edge curve resampled onto the grid, one row each."""
        grid = self._grid()
        return np.vstack([
            np.interp(
                grid,
                [obs.time for obs in stats.observations],
                [obs.edges for obs in stats.observations],
            )
            for stats in runs
        ])

    def _mean_series(self, runs: list[FuzzStats]) -> np.ndarray:
        return self._curves(runs).mean(axis=0)

    @property
    def syzkaller_final_mean(self) -> float:
        return float(
            np.mean([stats.final_edges for stats in self.syzkaller_runs])
        )

    @property
    def snowplow_final_mean(self) -> float:
        return float(
            np.mean([stats.final_edges for stats in self.snowplow_runs])
        )

    @property
    def coverage_improvement(self) -> float:
        """Fig. 6d: final-coverage improvement of Snowplow, in percent."""
        baseline = self.syzkaller_final_mean
        if baseline == 0:
            return 0.0
        return 100.0 * (self.snowplow_final_mean - baseline) / baseline

    @property
    def speedup(self) -> float:
        """Fig. 6a-c: horizon / time for Snowplow's mean curve to reach
        Syzkaller's final mean coverage (inf if it gets there instantly,
        <1 if it never does within the horizon)."""
        target = self.syzkaller_final_mean
        grid = self._grid()
        snow = self._mean_series(self.snowplow_runs)
        reached = np.nonzero(snow >= target)[0]
        if len(reached) == 0:
            return float(self.snowplow_final_mean >= target)
        time_to = grid[reached[0]]
        if time_to <= 0:
            return float("inf")
        return self.horizon / time_to

    def discovery_auc_ratio(self) -> float:
        """Area under the mean coverage curve, Snowplow over Syzkaller.

        >1 means Snowplow held more coverage through the campaign —
        i.e. discovered it earlier — even where finals converge.
        """
        snow = self._mean_series(self.snowplow_runs)
        syz = self._mean_series(self.syzkaller_runs)
        denominator = float(syz.sum())
        if denominator == 0:
            return 1.0
        return float(snow.sum()) / denominator

    def bands_overlap_after(self, time: float) -> bool:
        """Whether the min/max bands still overlap after ``time``."""
        grid = self._grid()
        syz_max = self._curves(self.syzkaller_runs).max(axis=0)
        snow_min = self._curves(self.snowplow_runs).min(axis=0)
        mask = grid >= time
        return bool((syz_max[mask] >= snow_min[mask]).any())


def build_loop(
    kernel: Kernel,
    trained: TrainedPMM | None,
    run_seed: int,
    config: CampaignConfig,
    baseline: bool = False,
    oracle: bool = False,
    injector: FaultInjector | None = None,
    observer: Observer | None = None,
    analysis=None,
    director=None,
    service=None,
    worker: int = 0,
) -> FuzzLoop:
    """An unseeded campaign loop: the Syzkaller baseline when
    ``baseline=True``, else a Snowplow loop (oracle- or PMM-localized).

    Every RNG stream derives from ``run_seed``, so two calls with the
    same arguments build identical loops.  Campaigns start from
    :func:`build_fuzz_loop`, which seeds this loop; a checkpoint is
    restored onto a loop from this builder.  ``service`` is a view onto
    a cluster's shared serving tier (None: the loop serves itself), and
    ``worker`` is the loop's fleet index.
    """
    executor = Executor(kernel, seed=derive_seed(run_seed, "exec"))
    generator = ProgramGenerator(kernel.table, split(run_seed, "gen"))
    engine = MutationEngine(
        TypeSelector(), SyzkallerLocalizer(k=1), generator,
        split(run_seed, "mutate"),
    )
    triage = CrashTriage(executor, known_crash_signatures(kernel))
    clock = VirtualClock(horizon=config.horizon)
    parts = (
        kernel, engine, executor, triage, clock, config.cost,
        split(run_seed, "loop"),
    )
    if baseline:
        return FuzzLoop(
            *parts, sample_interval=config.sample_interval,
            injector=injector, observer=observer, worker=worker,
        )
    if oracle:
        from repro.snowplow.oracle import OracleLocalizer

        localizer = OracleLocalizer(kernel)
    else:
        localizer = PMMLocalizer(
            trained.model, trained.encoder, kernel, executor,
            max_targets=config.snowplow.max_targets,
            threshold=config.snowplow.prediction_threshold,
        )
    return SnowplowLoop(
        *parts, sample_interval=config.sample_interval,
        localizer=localizer, snowplow_config=config.snowplow,
        injector=injector, service=service, observer=observer,
        worker=worker, analysis=analysis, director=director,
    )


# ----- the one campaign entry point (CLI fuzz == service job) -----


def fuzz_run_seed(seed: int, kernel_version: str) -> int:
    """The `repro fuzz` seed derivation.

    Shared by the CLI and :mod:`repro.service` so a campaign submitted
    to the control plane replays the standalone ``repro fuzz`` run of
    the same spec bit-identically.
    """
    return derive_seed(seed, "cli-fuzz", kernel_version)


def fuzz_campaign_config(
    hours: float,
    seed: int,
    seed_corpus: int = 50,
    batch_size: int | None = None,
) -> CampaignConfig:
    """The `repro fuzz` campaign parameters for a given horizon/seed.

    One constructor for every front door (CLI flags, service specs) so
    sample cadence and Snowplow tuning can never drift between them.
    """
    snowplow = SnowplowConfig()
    if batch_size is not None:
        snowplow.max_batch_size = batch_size
    return CampaignConfig(
        horizon=hours * HOUR,
        runs=1,
        seed=seed,
        seed_corpus_size=seed_corpus,
        sample_interval=max(hours * HOUR / 16.0, 60.0),
        snowplow=snowplow,
    )


def build_fuzz_loop(
    kernel: Kernel,
    trained: TrainedPMM | None,
    run_seed: int,
    config: CampaignConfig,
    baseline: bool = False,
    oracle: bool = False,
    injector: FaultInjector | None = None,
    observer: Observer | None = None,
    analysis=None,
    director=None,
) -> FuzzLoop:
    """A seeded single-worker campaign loop, ready to ``run()``.

    Exactly the loop `repro fuzz` runs for ``--workers 1``: the
    Syzkaller baseline when ``baseline=True``, else a Snowplow loop
    (oracle- or PMM-localized), seeded from the ``(run_seed,
    "seed-corpus")`` stream.  The orchestrator drives the same builder,
    which is what makes standalone-vs-multiplexed bit-identity a
    structural property instead of a test-time coincidence.
    """
    loop = build_loop(
        kernel, trained, run_seed, config, baseline=baseline,
        oracle=oracle, injector=injector, observer=observer,
        analysis=analysis, director=director,
    )
    loop.seed(campaign_seeds(kernel, run_seed, config.seed_corpus_size))
    return loop


def campaign_seeds(kernel: Kernel, run_seed: int, size: int) -> list[Program]:
    """The seed corpus every arm and worker built from ``run_seed``
    starts from (the ``(run_seed, "seed-corpus")`` stream)."""
    return ProgramGenerator(
        kernel.table, split(run_seed, "seed-corpus")
    ).seed_corpus(size)


def run_coverage_campaign(
    kernel: Kernel,
    trained: TrainedPMM,
    config: CampaignConfig,
    oracle: bool = False,
) -> CoverageCampaignResult:
    """Fig. 6: repeated side-by-side runs with shared per-run seeds.

    ``oracle=True`` swaps PMM for the perfect white-box localizer
    (:mod:`repro.snowplow.oracle`) — the mechanism's upper bound.
    """
    syzkaller_runs: list[FuzzStats] = []
    snowplow_runs: list[FuzzStats] = []
    for run in range(config.runs):
        run_seed = derive_seed(config.seed, "run", run, kernel.version)
        syzkaller_runs.append(
            build_fuzz_loop(kernel, None, run_seed, config, baseline=True)
            .run()
        )
        snowplow_runs.append(
            build_fuzz_loop(kernel, trained, run_seed, config, oracle=oracle)
            .run()
        )
    return CoverageCampaignResult(
        kernel_version=kernel.version,
        horizon=config.horizon,
        syzkaller_runs=syzkaller_runs,
        snowplow_runs=snowplow_runs,
    )


# ----- crashes (Tables 2-4) -----


@dataclass
class CrashCampaignResult:
    """One exhaustive (7-day-style) campaign's crash ledger."""

    kernel_version: str
    snowplow_crashes: list[list[TriagedCrash]]  # per run
    syzkaller_crashes: list[list[TriagedCrash]]

    @staticmethod
    def _count(crashes: list[TriagedCrash], new: bool) -> int:
        return sum(1 for crash in crashes if crash.is_new == new)

    def table2_rows(self) -> dict[str, list[int]]:
        """Counts in Table 2's layout (per run, per fuzzer)."""
        return {
            "snowplow_new": [
                self._count(run, True) for run in self.snowplow_crashes
            ],
            "snowplow_known": [
                self._count(run, False) for run in self.snowplow_crashes
            ],
            "syzkaller_new": [
                self._count(run, True) for run in self.syzkaller_crashes
            ],
            "syzkaller_known": [
                self._count(run, False) for run in self.syzkaller_crashes
            ],
        }

    def unique_new_crashes(self) -> list[TriagedCrash]:
        """New crashes across all Snowplow runs, deduplicated."""
        seen: dict[str, TriagedCrash] = {}
        for run in self.snowplow_crashes:
            for crash in run:
                if crash.is_new and crash.signature not in seen:
                    seen[crash.signature] = crash
        return list(seen.values())


def run_crash_campaign(
    kernel: Kernel,
    trained: TrainedPMM,
    config: CampaignConfig,
    reproduce: bool = True,
) -> CrashCampaignResult:
    """Tables 2/3: exhaustive side-by-side fuzzing with crash triage."""
    snowplow_crashes: list[list[TriagedCrash]] = []
    syzkaller_crashes: list[list[TriagedCrash]] = []
    for run in range(config.runs):
        run_seed = derive_seed(config.seed, "crash-run", run, kernel.version)
        syz_stats = build_fuzz_loop(
            kernel, None, run_seed, config, baseline=True
        ).run()
        syzkaller_crashes.append(list(syz_stats.crashes))
        snow = build_fuzz_loop(kernel, trained, run_seed, config)
        snow_stats = snow.run()
        if reproduce:
            for crash in snow_stats.crashes:
                snow.triage.reproduce(crash)
        snowplow_crashes.append(list(snow_stats.crashes))
    return CrashCampaignResult(
        kernel_version=kernel.version,
        snowplow_crashes=snowplow_crashes,
        syzkaller_crashes=syzkaller_crashes,
    )


# ----- fault tolerance (failure model) -----


@dataclass
class FaultCampaignResult:
    """One seed run twice: fault-free, and under an injected fault plan.

    Graceful degradation means the faulted run ends within a tolerance
    of the fault-free coverage instead of collapsing, while the failure
    ledger (restarts, lost predictions, breaker trips, resumes) shows
    the faults actually happened.
    """

    kernel_version: str
    horizon: float
    fault_free: FuzzStats
    faulted: FuzzStats
    crash_time: float | None
    checkpoints_taken: int
    resumed: bool
    # Telemetry of the faulted run (``observe=True`` runs only).
    observer: Observer | None = None

    @property
    def coverage_ratio(self) -> float:
        """Faulted final edge coverage as a fraction of fault-free."""
        baseline = self.fault_free.final_edges
        if baseline == 0:
            return 1.0
        return self.faulted.final_edges / baseline

    @property
    def degradation_pct(self) -> float:
        return 100.0 * (1.0 - self.coverage_ratio)

    def degraded_gracefully(self, tolerance_pct: float = 15.0) -> bool:
        """Within tolerance of the fault-free run of the same seed."""
        return self.degradation_pct <= tolerance_pct


def run_fault_tolerance_campaign(
    kernel: Kernel,
    trained: TrainedPMM,
    config: CampaignConfig,
    plan: FaultPlan,
    checkpoint_interval: float | None = None,
    checkpoint_dir: str | None = None,
    observe: bool = False,
) -> FaultCampaignResult:
    """Run one seed fault-free and under ``plan``, with checkpoint/resume.

    The faulted run checkpoints every ``checkpoint_interval`` virtual
    seconds (default: an eighth of the horizon).  If the plan schedules
    a ``campaign_crash`` window, the live loop is discarded at that
    virtual time — exactly as a killed worker would lose it — and a
    fresh loop is rebuilt from the same construction seeds, restored
    from the latest checkpoint, and run to the horizon.  Everything,
    including the remainder of the fault schedule, replays from the
    single campaign seed.
    """
    if checkpoint_interval is None:
        checkpoint_interval = config.horizon / 8.0
    if checkpoint_interval <= 0:
        raise CampaignError(
            f"checkpoint interval must be positive, got {checkpoint_interval}"
        )
    run_seed = derive_seed(config.seed, "fault-run", kernel.version)

    # Reference: the same seed with nothing failing.
    fault_free = build_fuzz_loop(kernel, trained, run_seed, config).run()

    # Degraded: same seed, same construction, faults injected.  Only
    # the faulted loop is observed — an observer shared with the clean
    # loop would collide on the unlabeled per-worker series.
    injector = FaultInjector(plan)
    observer = Observer() if observe else None
    loop = build_fuzz_loop(
        kernel, trained, run_seed, config, injector=injector,
        observer=observer,
    )
    store = (
        CheckpointStore(checkpoint_dir, injector=injector)
        if checkpoint_dir is not None else None
    )
    crash_time = injector.crash_time()
    last_state: dict | None = None
    next_checkpoint = checkpoint_interval
    checkpoints = 0
    resumed = False
    while not loop.clock.expired():
        bound = next_checkpoint
        if crash_time is not None and not resumed:
            bound = min(bound, crash_time)
        loop.run_until(bound)
        if (
            crash_time is not None and not resumed
            and loop.clock.now >= crash_time
        ):
            # The injected crash kills the worker: the live loop (and
            # its in-flight inference) is gone.  Rebuild and resume.
            # The replacement gets a fresh observer; the checkpoint
            # carries the telemetry recorded up to the last save, so a
            # resumed run's exports replay from durable state alone.
            observer = Observer() if observe else None
            if last_state is not None:
                loop = build_loop(
                    kernel, trained, run_seed, config,
                    injector=FaultInjector(plan), observer=observer,
                )
                restore_loop_state(loop, last_state)
            else:
                # Crashed before the first checkpoint: restart from the
                # seed corpus, which is all a worker with no durable
                # state can do.
                loop = build_fuzz_loop(
                    kernel, trained, run_seed, config,
                    injector=FaultInjector(plan), observer=observer,
                )
                loop.stats.resumes += 1
            resumed = True
            continue
        if not loop.clock.expired() and loop.clock.now >= next_checkpoint:
            # The checkpoint span goes in before the state capture so
            # the saved telemetry already contains it — a resumed run's
            # trace then matches an uninterrupted one span for span.
            if loop.tracer is not None:
                loop.tracer.instant(
                    loop.track, "checkpoint", loop.clock.now,
                    cat="checkpoint", number=checkpoints + 1,
                )
            last_state = loop_state(loop)
            if store is not None:
                store.save(last_state)
            checkpoints += 1
            next_checkpoint += checkpoint_interval
    faulted = loop.finalize()
    return FaultCampaignResult(
        kernel_version=kernel.version,
        horizon=config.horizon,
        fault_free=fault_free,
        faulted=faulted,
        crash_time=crash_time,
        checkpoints_taken=checkpoints,
        resumed=resumed,
        observer=observer,
    )


# ----- scaling (the fleet) -----


def _build_shared_tier(
    kernel: Kernel, trained: TrainedPMM, run_seed: int,
    config: CampaignConfig, oracle: bool = False,
    injector: FaultInjector | None = None,
    observer: Observer | None = None,
) -> SharedInferenceTier:
    """The cluster's central serving tier: one (batching) service whose
    predictor runs the localizer on tagged ``(worker_id, query)``
    payloads with a serve-side RNG stream."""
    cfg = config.snowplow
    if oracle:
        from repro.snowplow.oracle import OracleLocalizer

        localizer = OracleLocalizer(kernel)
    else:
        localizer = PMMLocalizer(
            trained.model, trained.encoder, kernel,
            Executor(kernel, seed=derive_seed(run_seed, "serve-exec")),
            max_targets=cfg.max_targets,
            threshold=cfg.prediction_threshold,
            profiler=observer.profiler if observer is not None else None,
        )
    serve_rng = split(run_seed, "serve")

    def predict(payload):
        _, query = payload
        program, coverage, targets, _ = query
        return localizer.localize(program, coverage, targets, serve_rng)

    service = build_inference_service(
        predict, cfg, config.cost.inference_latency, injector=injector,
        observer=observer, batched=True,
    )
    return SharedInferenceTier(service)


def build_cluster(
    kernel: Kernel,
    trained: TrainedPMM | None,
    run_seed: int,
    config: CampaignConfig,
    cluster_config: ClusterConfig | None = None,
    baseline: bool = False,
    oracle: bool = False,
    injector: FaultInjector | None = None,
    observer: Observer | None = None,
) -> ClusterFuzzer:
    """Assemble a seeded, ready-to-run fleet.

    Worker ``i``'s RNG streams derive from ``(run_seed, "worker", i)``
    regardless of fleet size, so worker 0 of a 1-worker cluster and
    worker 0 of an 8-worker cluster run the same private schedule — the
    scaling sweep then measures sharing, not reseeding.  All workers
    start from one shared seed corpus.  ``baseline=True`` builds a
    Syzkaller (heuristics-only) fleet with no serving tier.

    ``cluster_config.shards > 1`` shards the hub by coverage-signature
    range; ``cluster_config.heartbeat_deadline`` attaches a
    :class:`~repro.cluster.FleetSupervisor` that restarts hung/dead
    workers with deterministically reseeded loops.
    """
    cluster_config = cluster_config or ClusterConfig()
    seeds = campaign_seeds(kernel, run_seed, config.seed_corpus_size)
    registry = observer.registry if observer is not None else None
    if cluster_config.shards > 1:
        hub: CorpusHub = ShardedHub(
            shards=cluster_config.shards, registry=registry,
        )
    else:
        hub = CorpusHub(registry=registry)
    tier = None
    if not baseline:
        tier = _build_shared_tier(
            kernel, trained, run_seed, config, oracle=oracle,
            injector=injector, observer=observer,
        )

    def loop_factory(index: int, seed: int) -> FuzzLoop:
        # Shared between generation-0 construction and supervisor
        # restarts: only the seed differs across a worker's generations.
        loop = build_loop(
            kernel, trained, seed, config, baseline=baseline,
            oracle=oracle, injector=injector, observer=observer,
            service=tier.view(index) if tier is not None else None,
            worker=index,
        )
        loop.seed(seeds)
        return loop

    workers = []
    for index in range(cluster_config.workers):
        loop = loop_factory(index, derive_seed(run_seed, "worker", index))
        workers.append(
            ClusterWorker(
                worker_id=index, loop=loop, hub=hub,
                sync_interval=cluster_config.sync_interval,
                sync_cost=cluster_config.sync_cost,
                injector=injector,
                max_sync_retries=cluster_config.max_sync_retries,
            )
        )
    supervisor = None
    if cluster_config.heartbeat_deadline is not None:
        supervisor = FleetSupervisor(
            workers, hub, loop_factory,
            run_seed=run_seed,
            heartbeat_deadline=cluster_config.heartbeat_deadline,
            check_interval=cluster_config.supervise_interval,
            injector=injector,
            observer=observer,
        )
    return ClusterFuzzer(
        workers, hub, tier=tier, observer=observer, supervisor=supervisor,
    )


@dataclass
class ScalingPoint:
    """One fleet size's outcome."""

    workers: int
    result: ClusterResult
    # Telemetry for this fleet size (``observe=True`` runs only); each
    # point gets a fresh Observer so per-worker series never collide
    # across fleet sizes.
    observer: Observer | None = None


@dataclass
class ScalingCampaignResult:
    """Coverage-vs-fleet-size sweep (plus serving-tier throughput)."""

    kernel_version: str
    horizon: float
    points: list[ScalingPoint]

    def final_edges(self) -> dict[int, int]:
        return {point.workers: point.result.final_edges for point in self.points}

    def observed_qps(self) -> dict[int, float]:
        """Completed inferences per virtual second, by fleet size."""
        rates: dict[int, float] = {}
        for point in self.points:
            stats = point.result.service_stats
            rates[point.workers] = (
                stats.completed / self.horizon
                if stats is not None and self.horizon > 0 else 0.0
            )
        return rates


def run_scaling_campaign(
    kernel: Kernel,
    trained: TrainedPMM | None,
    config: CampaignConfig,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    cluster_config: ClusterConfig | None = None,
    baseline: bool = False,
    oracle: bool = False,
    observe: bool = False,
) -> ScalingCampaignResult:
    """Sweep fleet sizes at a fixed per-worker virtual budget.

    Every fleet size runs from the same campaign-derived ``run_seed``,
    so the sweep isolates the effect of fleet width (hub sharing plus
    serving-tier contention) from reseeding noise.  ``observe=True``
    attaches a fresh :class:`~repro.observe.Observer` per fleet size;
    its exports are a pure function of the campaign seed.
    """
    if not worker_counts:
        raise CampaignError("scaling campaign needs at least one fleet size")
    base = cluster_config or ClusterConfig()
    run_seed = derive_seed(config.seed, "scaling", kernel.version)
    points = []
    for count in worker_counts:
        observer = Observer() if observe else None
        cluster = build_cluster(
            kernel, trained, run_seed, config,
            cluster_config=dataclasses.replace(base, workers=count),
            baseline=baseline, oracle=oracle, observer=observer,
        )
        result = cluster.run()
        if observer is not None:
            end = max(
                worker.loop.clock.now for worker in cluster.workers
            )
            observer.tracer.record(
                "campaign", f"fleet{count}", 0.0, end,
                cat="campaign", workers=count,
            )
        points.append(
            ScalingPoint(workers=count, result=result, observer=observer)
        )
    return ScalingCampaignResult(
        kernel_version=kernel.version,
        horizon=config.horizon,
        points=points,
    )


# ----- chaos (the failure model at fleet scale) -----


def chaos_plan(
    seed: int, horizon: float, cluster_config: ClusterConfig
) -> FaultPlan:
    """A seeded cluster-level fault schedule covering all four kinds.

    Victims are drawn from ``derive_seed(seed, "chaos-plan")`` so the
    schedule is a pure function of the campaign seed and topology:

    - one worker killed at 25% of the horizon (restarted by the
      supervisor once its heartbeat deadline lapses);
    - one worker hung from 35% for up to two heartbeat deadlines;
    - one worker partitioned from the hub at 50% for long enough to
      exhaust its sync retries (exercising the drop-and-reoffer path);
    - one hub shard lost from 55% to 70% (sharded hubs only).
    """
    deadline = cluster_config.heartbeat_deadline or 0.25 * horizon
    rng = make_rng(derive_seed(seed, "chaos-plan"))
    kill_victim = int(rng.integers(cluster_config.workers))
    hang_victim = int(rng.integers(cluster_config.workers))
    partition_victim = int(rng.integers(cluster_config.workers))
    plan = (
        FaultPlan()
        .with_worker_kill(kill_victim, 0.25 * horizon)
        .with_worker_hang(
            hang_victim,
            0.35 * horizon,
            min(0.35 * horizon + 2 * deadline, 0.95 * horizon),
        )
        .with_hub_partition(
            partition_victim,
            0.50 * horizon,
            min(
                0.50 * horizon
                + (cluster_config.max_sync_retries + 2)
                * cluster_config.sync_interval,
                0.90 * horizon,
            ),
        )
    )
    if cluster_config.shards > 1:
        shard = int(rng.integers(cluster_config.shards))
        plan = plan.with_shard_loss(shard, 0.55 * horizon, 0.70 * horizon)
    return plan


@dataclass
class ChaosCampaignResult:
    """One seeded chaos campaign: the same supervised fleet run clean
    and under a cluster-level :func:`chaos_plan`, with the robustness
    invariants the gate asserts."""

    kernel_version: str
    horizon: float
    workers: int
    shards: int
    plan: FaultPlan
    clean: ClusterResult
    chaos: ClusterResult
    # Signatures of two independent restores of the mid-campaign
    # checkpoint, run to completion.  With in-flight inference the
    # resumed timeline legitimately differs from an uninterrupted one
    # (lost requests are booked as failures), so bit-identical resume
    # means: every restore of the same bytes replays identically.
    resume_signatures: tuple[tuple, tuple]
    restarts: int
    dropped_entries: int
    shed: int
    outstanding_lost: int
    peak_edges: int
    observer: Observer | None = None
    # Hub lineage accounting at the end of the chaos run: pushes /
    # accepted / duplicates / subsumed counters plus how many lineage
    # records the hub actually marked ``superseded_by``.
    hub_accounting: dict = field(default_factory=dict)

    @property
    def coverage_ratio(self) -> float:
        """Faulty-run final coverage as a fraction of the clean run's."""
        if self.clean.final_edges == 0:
            return 1.0
        return self.chaos.final_edges / self.clean.final_edges

    @property
    def zero_corpus_loss(self) -> bool:
        """No admitted entry's coverage left the hub for good: nothing
        is stranded in a dead shard's backlog and the fleet-union edge
        count ends at (or above) its high-water mark."""
        return (
            self.outstanding_lost == 0
            and self.chaos.final_edges >= self.peak_edges
        )

    @property
    def coverage_monotone(self) -> bool:
        """Fleet-union coverage never regressed across the timeline."""
        edges = [obs.edges for obs in self.chaos.hub_timeline]
        return all(b >= a for a, b in zip(edges, edges[1:]))

    @property
    def resume_identical(self) -> bool:
        return self.resume_signatures[0] == self.resume_signatures[1]

    def degraded_gracefully(self, threshold_pct: float = 10.0) -> bool:
        """Final coverage within ``threshold_pct`` of the no-fault run."""
        return self.coverage_ratio >= 1.0 - threshold_pct / 100.0

    @property
    def accounting_closed(self) -> bool:
        """Zero-loss lineage accounting: every offered entry is either
        accepted or a counted duplicate, and every subsumption left a
        ``superseded_by`` record behind (re-offers of an already-
        superseded entry re-bump the counter but add no record, so the
        record count is a lower bound, never zero while drops happened).
        """
        acc = self.hub_accounting
        if not acc:
            return True
        if acc["pushes"] != acc["accepted"] + acc["duplicates"]:
            return False
        if acc["superseded_records"] > acc["subsumed"]:
            return False
        return acc["subsumed"] == 0 or acc["superseded_records"] > 0

    def passed(self, threshold_pct: float = 10.0) -> bool:
        return (
            self.zero_corpus_loss
            and self.coverage_monotone
            and self.resume_identical
            and self.degraded_gracefully(threshold_pct)
            and self.accounting_closed
        )


def run_chaos_campaign(
    kernel: Kernel,
    trained: TrainedPMM | None,
    config: CampaignConfig,
    cluster_config: ClusterConfig | None = None,
    plan: FaultPlan | None = None,
    baseline: bool = False,
    oracle: bool = False,
    observe: bool = False,
) -> ChaosCampaignResult:
    """The chaos gate: a supervised, sharded fleet under seeded faults.

    Protocol: (1) run the fleet fault-free for the reference coverage;
    (2) run it under :func:`chaos_plan`, checkpointing at 80% of the
    horizon — after the killed worker's restart — then finishing from
    two *independent* restores of that checkpoint and comparing their
    result signatures bit-for-bit.  The result carries the invariants
    the gate asserts: zero corpus-entry loss, monotone fleet-union
    coverage within a bound of the clean run, and identical resumes.
    """
    cluster_config = cluster_config or ClusterConfig(
        workers=4, shards=2, heartbeat_deadline=900.0,
    )
    if cluster_config.heartbeat_deadline is None:
        raise CampaignError(
            "chaos campaign needs a supervised cluster: "
            "set ClusterConfig.heartbeat_deadline"
        )
    run_seed = derive_seed(config.seed, "chaos", kernel.version)
    plan = plan or chaos_plan(config.seed, config.horizon, cluster_config)

    def fleet(faulted: bool) -> ClusterFuzzer:
        return build_cluster(
            kernel, trained, run_seed, config,
            cluster_config=cluster_config, baseline=baseline, oracle=oracle,
            injector=FaultInjector(plan) if faulted else None,
            observer=Observer() if faulted and observe else None,
        )

    clean_result = fleet(faulted=False).run()

    # The chaos run proper is interrupted at 80% of the horizon and
    # finished twice from the same serialized checkpoint; the first
    # restore's completion is reported as *the* chaos run.
    ckpt_at = 0.8 * config.horizon
    probe = fleet(faulted=True)
    probe.run_until(ckpt_at)
    state = json.loads(json.dumps(cluster_state(probe)))

    resumed: list[ClusterFuzzer] = []
    results: list[ClusterResult] = []
    for _ in range(2):
        cluster = fleet(faulted=True)
        restore_cluster_state(cluster, state)
        resumed.append(cluster)
        results.append(cluster.run())
    chaos_result = results[0]
    hub = resumed[0].hub
    observer = resumed[0].observer

    timeline_edges = [obs.edges for obs in chaos_result.hub_timeline]
    peak_edges = max(timeline_edges, default=0)
    outstanding = (
        hub.outstanding_lost_entries()
        if isinstance(hub, ShardedHub) else 0
    )
    service = chaos_result.service_stats
    result = ChaosCampaignResult(
        kernel_version=kernel.version,
        horizon=config.horizon,
        workers=cluster_config.workers,
        shards=cluster_config.shards,
        plan=plan,
        clean=clean_result,
        chaos=chaos_result,
        resume_signatures=(results[0].signature(), results[1].signature()),
        restarts=(
            resumed[0].supervisor.restarts
            if resumed[0].supervisor is not None else 0
        ),
        dropped_entries=hub.stats.dropped_entries,
        shed=service.shed if service is not None else 0,
        outstanding_lost=outstanding,
        peak_edges=peak_edges,
        observer=observer,
        hub_accounting={
            "pushes": hub.stats.pushes,
            "accepted": hub.stats.accepted,
            "duplicates": hub.stats.duplicates,
            "subsumed": hub.stats.subsumed_entries,
            "superseded_records": hub.provenance.superseded_count,
        },
    )
    if observer is not None:
        # End-state gauges for the supervision SLO pack: these are the
        # chaos invariants themselves, sampled once at the horizon so
        # threshold rules see only the campaign's verdict.
        registry = observer.registry
        registry.gauge("chaos.lost_edges").set(
            max(0, peak_edges - chaos_result.final_edges)
        )
        registry.gauge("chaos.coverage_regressions").set(
            sum(
                1 for a, b in zip(timeline_edges, timeline_edges[1:])
                if b < a
            )
        )
        registry.gauge("chaos.coverage_ratio_pct").set(
            100.0 * result.coverage_ratio
        )
        registry.gauge("chaos.resume_identical").set(
            1 if result.resume_identical else 0
        )
        registry.gauge("chaos.outstanding_lost_entries").set(outstanding)
        observer.timeseries.sample(config.horizon, registry)
    return result


# ----- directed fuzzing (Table 5) -----


def default_directed_targets(kernel: Kernel, count: int = 12) -> list[int]:
    """Bug-related target code locations, mixing easy and hard.

    Table 5's dataset consists of code locations tied to SyzBot bugs;
    here the crash blocks of planted bugs provide the hard targets and
    shallow blocks of the same handlers the easy ones.
    """
    rng = split(derive_seed(0, "targets", kernel.version), "pick")
    hard = [
        kernel.bug_blocks[bug.bug_id]
        for bug in sorted(kernel.bugs, key=lambda bug: bug.bug_id)
        if not bug.known
    ]
    easy: list[int] = []
    for name in sorted(kernel.handlers):
        cfg = kernel.handlers[name]
        shallow = [
            block_id for block_id in cfg.block_ids()
            if kernel.blocks[block_id].role is BlockRole.BODY
            and cfg.depth_of(block_id) <= 1
        ]
        if shallow:
            easy.append(shallow[int(rng.integers(len(shallow)))])
    rng.shuffle(easy)
    half = count // 2
    targets = hard[:half] + easy[: count - min(half, len(hard))]
    return targets[:count]


def run_directed_campaign(
    kernel: Kernel,
    trained: TrainedPMM,
    targets: list[int],
    config: CampaignConfig,
    oracle=None,
) -> dict[int, dict[str, list[DirectedResult]]]:
    """Table 5: per-target time-to-reach for SyzDirect vs Snowplow-D.

    ``oracle`` (a :class:`repro.analyze.DependencyOracle`) upgrades the
    SyzDirect mode to exact static steering slots; it defaults to None
    so baseline runs stay byte-identical.
    """
    if not targets:
        raise CampaignError("directed campaign needs at least one target")
    results: dict[int, dict[str, list[DirectedResult]]] = {}
    for target in targets:
        per_mode: dict[str, list[DirectedResult]] = {
            "syzdirect": [], "snowplow_d": []
        }
        target_syscall = kernel.handler_of_block.get(target, "")
        for run in range(config.runs):
            run_seed = derive_seed(config.seed, "directed", target, run)
            seeds = ProgramGenerator(
                kernel.table, split(run_seed, "seed-corpus")
            ).seed_corpus(max(10, config.seed_corpus_size // 4))
            for mode in ("syzdirect", "snowplow_d"):
                executor = Executor(kernel, seed=derive_seed(run_seed, mode))
                generator = ProgramGenerator(
                    kernel.table, split(run_seed, "gen", mode)
                )
                if mode == "syzdirect":
                    localizer = SyzDirectLocalizer(
                        target_syscall, oracle=oracle
                    )
                    overhead = 0.0
                else:
                    localizer = PMMLocalizer(
                        trained.model, trained.encoder, kernel, executor
                    )
                    # Amortized inference overhead of the learned
                    # localizer (why Snowplow-D is marginally slower on
                    # trivial targets, Table 5).
                    overhead = 0.2 * config.cost.test_execution
                fuzzer = DirectedFuzzer(
                    kernel=kernel,
                    target_block=target,
                    executor=executor,
                    generator=generator,
                    localizer=localizer,
                    clock=VirtualClock(horizon=config.horizon),
                    cost=config.cost,
                    rng=split(run_seed, "loop", mode),
                    mutation_overhead=overhead,
                )
                fuzzer.seed(seeds)
                per_mode[mode].append(fuzzer.run())
        results[target] = per_mode
    return results


# ----- patch-directed fuzzing (repro.analyze.impact) -----


@dataclass
class PatchCampaignResult:
    """A directed-vs-plain pair of runs against one release diff."""

    from_version: str
    to_version: str
    horizon: float
    targets: tuple[int, ...]
    directed: FuzzStats
    plain: FuzzStats
    directed_reached_at: dict[int, float]
    plain_reached_at: dict[int, float]
    directed_time: float
    plain_time: float
    directed_complete: bool
    plain_complete: bool

    def speedup(self) -> float:
        """Plain over directed time-to-all-targets (>1 = directed wins)."""
        if self.directed_time <= 0:
            return float("inf")
        return self.plain_time / self.directed_time

    def targets_reached_fraction(self) -> float:
        if not self.targets:
            return 1.0
        return len(self.directed_reached_at) / len(self.targets)


def run_patch_campaign(
    old_kernel: Kernel,
    new_kernel: Kernel,
    config: CampaignConfig,
    manifest=None,
) -> PatchCampaignResult:
    """Directed-vs-plain time-to-changed-surface on one release diff.

    Both arms run the *same* oracle Snowplow loop with the same run
    seed and a cloned seed corpus; the plain arm carries an
    observe-only :class:`~repro.analyze.impact.PatchDirector` (zero rng
    draws, so it is bit-identical to an undirected run) purely to
    record when each changed block is first covered, while the directed
    arm's director actively schedules distance-ranked targets and
    steers mutations toward them.  The ratio of the two
    time-to-all-targets numbers is the directed bench's headline.
    """
    from repro.analyze.impact import PatchDirector, build_target_manifest

    if manifest is None:
        manifest = build_target_manifest(old_kernel, new_kernel)
    targets = tuple(manifest.fuzzable_blocks())
    run_seed = derive_seed(
        config.seed, "patch", old_kernel.version, new_kernel.version
    )
    plain_director = PatchDirector(new_kernel, manifest, observe_only=True)
    plain_stats = build_fuzz_loop(
        new_kernel, None, run_seed, config, oracle=True,
        director=plain_director,
    ).run()

    directed_director = PatchDirector(new_kernel, manifest)
    directed_stats = build_fuzz_loop(
        new_kernel, None, run_seed, config, oracle=True,
        director=directed_director,
    ).run()

    return PatchCampaignResult(
        from_version=old_kernel.version,
        to_version=new_kernel.version,
        horizon=config.horizon,
        targets=targets,
        directed=directed_stats,
        plain=plain_stats,
        directed_reached_at=dict(directed_director.reached_at),
        plain_reached_at=dict(plain_director.reached_at),
        directed_time=directed_director.time_to_all(config.horizon),
        plain_time=plain_director.time_to_all(config.horizon),
        directed_complete=directed_director.complete,
        plain_complete=plain_director.complete,
    )
