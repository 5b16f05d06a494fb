"""The main fuzzing loop (Figure 1's ``fuzz_corpus``).

The loop runs against the virtual clock: every mutation, execution, and
VM reset charges its cost, and coverage is sampled on a fixed virtual
cadence so campaigns produce the coverage-over-time series of Figure 6.
``FuzzLoop`` is the Syzkaller baseline; Snowplow subclasses it to route
argument localization through asynchronous PMM inference.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.errors import CampaignError
from repro.faults import FaultInjector
from repro.fuzzer.corpus import Corpus, CorpusEntry
from repro.fuzzer.crash import CrashTriage, TriagedCrash
from repro.fuzzer.engine import MutationEngine, MutationOutcome, MutationType
from repro.kernel.build import Kernel
from repro.kernel.coverage import Coverage
from repro.kernel.executor import Executor
from repro.observe import (
    CounterView,
    LabeledCounterMap,
    MetricsRegistry,
    Observer,
)
from repro.observe.provenance import (
    SEED_ENGINE,
    LineageRecord,
    ProvenanceLog,
    entry_id_for,
)
from repro.syzlang.program import Program
from repro.vclock import CostModel, VirtualClock

__all__ = ["FuzzLoop", "FuzzObservation", "FuzzStats"]

# A transient corpus-store write failure is retried at most this often
# before the write is forced through (the store is durable, just flaky).
_CORPUS_WRITE_ATTEMPTS = 5


@dataclass(frozen=True)
class FuzzObservation:
    """One point of the coverage-over-time series."""

    time: float
    edges: int
    blocks: int
    executions: int


class FuzzStats(CounterView):
    """Everything a campaign reports about one fuzzer run.

    Counter attributes keep the original dataclass surface
    (``stats.executions += 1``, keyword construction, ``merge``) but are
    thin views over ``fuzz.*`` series in a
    :class:`~repro.observe.MetricsRegistry` — pass a shared registry
    (plus ``labels={"worker": i}`` in a fleet) and the campaign's
    exported metrics JSON carries every per-worker series with no second
    bookkeeping path.  The coverage timeline, crash list, and breaker
    state stay plain attributes: they are structured records, not
    scalars.
    """

    PREFIX = "fuzz"
    # Every counter, in declaration order.  Each one is a ``fuzz.<name>``
    # series in the backing metrics registry, sums when runs are merged,
    # and is saved in loop checkpoints.
    COUNTERS = (
        "executions",
        "corpus_size",
        # --- resilience accounting (fault-injected campaigns) ---
        # Hung calls the watchdog converted into VM restarts.
        "exec_timeouts",
        "vm_restarts",
        # Inference requests submitted to / completed by the serving tier.
        "inference_submitted",
        "inference_completed",
        # Inference requests lost to timeouts/slot crashes (incl.
        # in-flight predictions dropped by a checkpoint resume).
        "inference_failures",
        # Mutation queries routed to the heuristic localizer because the
        # serving tier rejected the submission (queue full / breaker open).
        "heuristic_fallbacks",
        # Transient corpus-store write failures that were retried.
        "corpus_write_retries",
        # Circuit-breaker visibility, synced from InferenceStats at the
        # end of a Snowplow run.
        "breaker_trips",
        # Times this run was restored from a campaign checkpoint.
        "resumes",
        # Frontier targets dropped because static analysis proved them
        # unreachable (repro.analyze; only with an attached analysis).
        "dead_targets_skipped",
        # --- cluster accounting (repro.cluster) ---
        # Corpus-hub sync round-trips, and entries pushed to / pulled
        # from the hub by this worker.
        "hub_syncs",
        "hub_pushed",
        "hub_pulled",
    )
    # Process incidents rather than simulated work: excluded from
    # canonical metric exports so kill+resume runs export byte-identically.
    DIAGNOSTIC = frozenset({"resumes"})

    def __init__(
        self,
        observations: list[FuzzObservation] | None = None,
        crashes: list[TriagedCrash] | None = None,
        mutations: dict[str, int] | None = None,
        breaker_state: str = "closed",
        registry: MetricsRegistry | None = None,
        labels: dict | None = None,
        **counters,
    ):
        super().__init__(registry, labels, **counters)
        self._mutations = LabeledCounterMap(
            self.registry, "fuzz.mutations", "type", self.labels
        )
        self.observations = list(observations) if observations else []
        self.crashes = list(crashes) if crashes else []
        self.breaker_state = breaker_state
        if mutations:
            self._mutations.replace(dict(mutations))

    @property
    def mutations(self):
        """Per-mutation-type tally (``fuzz.mutations{type=...}`` view)."""
        return self._mutations

    @mutations.setter
    def mutations(self, mapping) -> None:
        self._mutations.replace(dict(mapping))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzStats):
            return NotImplemented
        return (
            self.counter_values() == other.counter_values()
            and dict(self.mutations) == dict(other.mutations)
            and self.observations == other.observations
            and self.crashes == other.crashes
            and self.breaker_state == other.breaker_state
        )

    def __repr__(self) -> str:
        nonzero = ", ".join(
            f"{name}={value}"
            for name, value in self.counter_values().items()
            if value
        )
        return f"FuzzStats({nonzero})"

    @property
    def final_edges(self) -> int:
        """Edge coverage at the end of the run."""
        return self.observations[-1].edges if self.observations else 0

    @property
    def final_blocks(self) -> int:
        """Block coverage at the end of the run."""
        return self.observations[-1].blocks if self.observations else 0

    def signature(self) -> tuple:
        """A hashable digest of everything the campaign *computed*.

        Counts the simulated work — canonical counters, mutation tally,
        crash set, and the full coverage timeline — while excluding
        process incidents (the diagnostic ``resumes`` counter), so two
        replays of the same campaign compare equal even when one of them
        was resumed from a checkpoint.  This is the single-worker
        counterpart of :meth:`repro.cluster.ClusterResult.signature`:
        the standalone-vs-service isolation gate compares exactly this.
        """
        return (
            tuple(
                (name, value)
                for name, value in sorted(self.counter_values().items())
                if name not in self.DIAGNOSTIC
            ),
            tuple(sorted(dict(self.mutations).items())),
            tuple(
                (crash.signature, crash.is_new) for crash in self.crashes
            ),
            self.breaker_state,
            tuple(
                (obs.time, obs.edges, obs.blocks, obs.executions)
                for obs in self.observations
            ),
        )

    def time_to_edges(self, edges: int) -> float | None:
        """First virtual time at which coverage reached ``edges``."""
        for observation in self.observations:
            if observation.edges >= edges:
                return observation.time
        return None

    @classmethod
    def merge(cls, runs: list["FuzzStats"]) -> "FuzzStats":
        """Aggregate several (e.g. per-worker) runs into one ledger.

        Counters sum; mutation tallies sum key-wise; crashes concatenate
        with per-signature dedup; the coverage timelines merge onto the
        union of their sample times, taking at each instant the **best
        coverage any run holds** (with hub syncing this envelope tracks
        the fleet union up to one sync interval of lag) and the **sum of
        executions**.  ``time_to_edges`` then reads naturally off the
        merged timeline.
        """
        merged = cls()
        if not runs:
            return merged
        for stats in runs:
            for counter in cls.COUNTERS:
                setattr(
                    merged, counter,
                    getattr(merged, counter) + getattr(stats, counter),
                )
            for name, count in stats.mutations.items():
                merged.mutations[name] = merged.mutations.get(name, 0) + count
        for rank in ("open", "half_open"):
            if any(stats.breaker_state == rank for stats in runs):
                merged.breaker_state = rank
                break
        seen_crashes: set[str] = set()
        for stats in runs:
            for crash in stats.crashes:
                if crash.signature not in seen_crashes:
                    seen_crashes.add(crash.signature)
                    merged.crashes.append(crash)
        times = sorted(
            {obs.time for stats in runs for obs in stats.observations}
        )
        cursors = [0] * len(runs)
        latest: list[FuzzObservation | None] = [None] * len(runs)
        for time in times:
            for index, stats in enumerate(runs):
                series = stats.observations
                while (
                    cursors[index] < len(series)
                    and series[cursors[index]].time <= time
                ):
                    latest[index] = series[cursors[index]]
                    cursors[index] += 1
            merged.observations.append(
                FuzzObservation(
                    time=time,
                    edges=max(
                        (obs.edges for obs in latest if obs is not None),
                        default=0,
                    ),
                    blocks=max(
                        (obs.blocks for obs in latest if obs is not None),
                        default=0,
                    ),
                    executions=sum(
                        obs.executions for obs in latest if obs is not None
                    ),
                )
            )
        return merged


class FuzzLoop:
    """Coverage-guided fuzzing against a synthetic kernel."""

    def __init__(
        self,
        kernel: Kernel,
        engine: MutationEngine,
        executor: Executor,
        triage: CrashTriage,
        clock: VirtualClock,
        cost: CostModel,
        rng: np.random.Generator,
        sample_interval: float = 300.0,
        injector: FaultInjector | None = None,
        observer: Observer | None = None,
        worker: int = 0,
    ):
        self.kernel = kernel
        self.engine = engine
        self.executor = executor
        self.triage = triage
        self.clock = clock
        self.cost = cost
        self.rng = rng
        self.sample_interval = sample_interval
        self.injector = injector
        if injector is not None and executor.injector is None:
            # One plan drives every layer: attach the loop's injector to
            # the executor so VM hangs ride the same seeded schedule.
            executor.injector = injector
            executor.watchdog = True
        self.corpus = Corpus()
        self.accumulated = Coverage()
        self.observer = observer
        self.worker = worker
        self.track = f"worker{worker}"
        self.tracer = observer.tracer if observer is not None else None
        self.profiler = observer.profiler if observer is not None else None
        if observer is not None and executor.profiler is None:
            executor.profiler = observer.profiler
        # The lineage ledger: always kept (it is pure bookkeeping over
        # work the loop does anyway), exported when an observer rides
        # along, checkpointed with the loop state.
        self.provenance = ProvenanceLog()
        if observer is not None:
            observer.attach_provenance(self.provenance)
        self.stats = FuzzStats(
            registry=observer.registry if observer is not None else None,
            labels={"worker": worker} if observer is not None else None,
        )
        self._last_sample = -sample_interval

    # ----- setup -----

    def seed(self, programs: list[Program]) -> None:
        """Execute the initial seed corpus and admit its coverage."""
        if not programs:
            raise CampaignError("seed corpus must not be empty")
        for program in programs:
            result = self._execute(program)
            if result is None:
                continue
            new_edges = result.coverage.new_edges(self.accumulated)
            self.accumulated.merge(result.coverage)
            record = LineageRecord(
                entry_id=entry_id_for(program, result.coverage),
                parent_id=None, engine=SEED_ENGINE, operator="seed",
                slot="-", burst_id=None, predicted=0,
                gain=len(new_edges), time=self.clock.now,
                worker=self.worker,
            )
            self.provenance.admit(record, new_edges)
            self._admit(
                program, result.coverage, signal=len(new_edges),
                hints=frozenset(result.comparison_operands),
                lineage=record,
            )

    # ----- the loop -----

    def run(self) -> FuzzStats:
        """Fuzz until the virtual clock reaches its horizon."""
        self._require_seeded()
        while not self.clock.expired():
            self._iterate()
        return self.finalize()

    def run_until(self, time: float) -> None:
        """Fuzz until virtual ``time`` (or the horizon), whichever first.

        Used by checkpointed campaigns to run in bounded segments; call
        :meth:`finalize` once the horizon is reached.
        """
        self._require_seeded()
        while not self.clock.expired() and self.clock.now < time:
            self._iterate()

    def finalize(self) -> FuzzStats:
        """Take the final coverage sample and return the run's stats."""
        self._sample(force=True)
        self.stats.corpus_size = len(self.corpus)
        if self.observer is not None:
            registry = self.observer.registry
            total = self.clock.now
            # Publish the clock's per-label charges as gauges — the
            # virtual-time breakdown behind the flame summary — plus
            # each phase's share of the campaign, so `observe diff` can
            # compare phase profiles across runs.
            for label, seconds in sorted(self.clock.charges.items()):
                registry.gauge(
                    f"time.{label}", **self.stats.labels
                ).set(seconds)
                if total > 0:
                    registry.gauge(
                        f"time.share.{label}", **self.stats.labels
                    ).set(round(seconds / total, 6))
            if total > 0:
                # Simulated executions per virtual second: a cost-model
                # check (CostModel fixes it), not host throughput; see
                # bench/ for wall-clock measurements.
                registry.gauge(
                    "fuzz.execs_per_vsecond", **self.stats.labels
                ).set(round(self.stats.executions / total, 6))
            # Continuous-sampling profile (loop.mutate/exec/triage/
            # hub_sync + executor/localizer sections).  Diagnostic: the
            # profiler is not checkpointed, so a resumed run would
            # otherwise export different canonical metrics.
            self.observer.profiler.publish(registry, diagnostic=True)
        return self.stats

    def _iterate(self) -> None:
        """One loop iteration (guaranteed to advance the clock)."""
        self._sample()
        entry = self.corpus.choose(self.rng)
        start = self.clock.now
        with self._section("loop.mutate"):
            outcome = self.propose_mutation(entry)
        if outcome is not None:
            self._run_candidate(entry, outcome)
        if self.tracer is not None:
            self.tracer.record(
                self.track, "iteration", start, self.clock.now,
                cat="iteration",
            )

    def _require_seeded(self) -> None:
        if not self.corpus.entries:
            raise CampaignError("seed() must be called before run()")

    def propose_mutation(self, entry: CorpusEntry) -> MutationOutcome | None:
        """One mutation of the chosen base test.

        Subclasses (Snowplow) override this to consult the learned
        localizer; returning None skips the iteration (time must have
        been charged by the override to guarantee progress).
        """
        start = self.clock.now
        self.clock.advance(self.cost.mutation, "mutation")
        outcome = self.engine.mutate_test(
            entry.program, entry.coverage, hints=entry.hints
        )
        if self.tracer is not None:
            self.tracer.record(
                self.track, "mutate", start, self.clock.now, cat="mutate",
                type=outcome.mutation_type.value if outcome else "none",
            )
        return outcome

    # ----- internals -----

    def _section(self, name: str):
        """Profiler section for continuous per-phase sampling (no-op
        without an observer)."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.section(name, self.clock)

    def _mutation_meta(self) -> tuple[str, str, str | None, int]:
        """``(engine, slot, burst_id, predicted)`` for the mutation the
        loop just proposed.  SnowplowLoop overrides this to report the
        PMM/oracle slot and burst metadata when a burst steered it."""
        return "syzkaller", "heuristic", None, 0

    def _stamp(
        self,
        entry: CorpusEntry,
        outcome: MutationOutcome,
        coverage: Coverage,
        meta: tuple[str, str, str | None, int],
    ) -> LineageRecord:
        engine, slot, burst_id, predicted = meta
        return LineageRecord(
            entry_id=entry_id_for(outcome.program, coverage),
            parent_id=(
                entry.lineage.entry_id if entry.lineage is not None else None
            ),
            engine=engine,
            operator=outcome.mutation_type.value,
            slot=slot,
            burst_id=burst_id,
            predicted=predicted,
            gain=0,
            time=self.clock.now,
            worker=self.worker,
        )

    def _run_candidate(self, entry: CorpusEntry, outcome: MutationOutcome) -> None:
        type_name = outcome.mutation_type.value
        self.stats.mutations[type_name] = (
            self.stats.mutations.get(type_name, 0) + 1
        )
        meta = self._mutation_meta()
        self.provenance.note_mutation(meta[0], meta[1])
        result = self._execute(outcome.program)
        if result is None:
            return
        record: LineageRecord | None = None
        if result.crash is not None:
            crash = self.triage.observe(outcome.program, result.crash)
            if crash is not None:
                with self._section("loop.triage"):
                    triage_start = self.clock.now
                    self.clock.advance(self.cost.triage, "triage")
                    self.stats.crashes.append(crash)
                # Crashing programs get a lineage record even when they
                # are not admitted to the corpus: `observe explain
                # bug:<sig>` must always find a chain.
                record = self._stamp(entry, outcome, result.coverage, meta)
                record = self.provenance.record(record)
                self.provenance.note_crash(crash.signature, record.entry_id)
                if self.tracer is not None:
                    self.tracer.record(
                        self.track, "triage", triage_start, self.clock.now,
                        cat="triage",
                    )
                    self.tracer.instant(
                        self.track, "crash", self.clock.now, cat="crash",
                        signature=crash.signature,
                    )
        new_edges = result.coverage.new_edges(self.accumulated)
        if new_edges:
            if record is None:
                record = self._stamp(entry, outcome, result.coverage, meta)
            record.gain = len(new_edges)
            self.accumulated.merge(result.coverage)
            self.provenance.admit(record, new_edges)
            self._admit(
                outcome.program, result.coverage, signal=len(new_edges),
                hints=frozenset(result.comparison_operands),
                lineage=record,
            )
            self.on_new_coverage(entry, outcome, result.coverage)

    def on_new_coverage(self, entry, outcome, coverage) -> None:
        """Hook for subclasses; default does nothing."""

    def _admit(
        self,
        program: Program,
        coverage: Coverage,
        signal: int,
        hints: frozenset[int],
        lineage: LineageRecord | None = None,
    ) -> CorpusEntry:
        """Write a new entry to the corpus store, riding out transient
        failures (a flaky disk/DB write under fault injection).  Each
        retry costs a mutation-scale slice of virtual time."""
        if self.injector is not None:
            attempts = 0
            while (
                attempts < _CORPUS_WRITE_ATTEMPTS
                and self.injector.fires("corpus_store", self.clock.now)
            ):
                attempts += 1
                self.stats.corpus_write_retries += 1
                self.clock.advance(self.cost.mutation, "corpus_retry")
        return self.corpus.add(
            program, coverage, signal=signal, hints=hints, lineage=lineage
        )

    def _execute(self, program: Program):
        if self.clock.expired():
            return None
        start = self.clock.now
        with self._section("loop.exec"):
            self.clock.advance(self.cost.test_execution, "execution")
            self.stats.executions += 1
            result = self.executor.run(program, now=self.clock.now)
            if result.timed_out:
                # The watchdog killed a hung VM; restarting from snapshot
                # costs real fleet time (§3.1's snapshot semantics).
                self.stats.exec_timeouts += 1
                self.stats.vm_restarts += 1
                if self.tracer is not None:
                    self.tracer.instant(
                        self.track, "exec_timeout", self.clock.now,
                        cat="fault",
                    )
                self.clock.advance(self.cost.vm_reset, "vm_restart")
        if self.tracer is not None:
            self.tracer.record(
                self.track, "exec", start, self.clock.now, cat="exec",
            )
        return result

    def _sample(self, force: bool = False) -> None:
        if force or self.clock.now - self._last_sample >= self.sample_interval:
            self._last_sample = self.clock.now
            self.stats.observations.append(
                FuzzObservation(
                    time=self.clock.now,
                    edges=len(self.accumulated.edges),
                    blocks=len(self.accumulated.blocks),
                    executions=self.stats.executions,
                )
            )
            if self.observer is not None:
                # Publish coverage as gauges so the time-series (and the
                # SLO stall detector) see the trajectory, then take the
                # cadenced registry sample.  The store enforces its own
                # interval, so per-worker calls cost one comparison.
                self.stats.corpus_size = len(self.corpus)
                registry = self.observer.registry
                registry.gauge(
                    "fuzz.edges", **self.stats.labels
                ).set(len(self.accumulated.edges))
                registry.gauge(
                    "fuzz.blocks", **self.stats.labels
                ).set(len(self.accumulated.blocks))
                self.observer.sample(self.clock.now)
