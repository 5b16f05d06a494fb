"""Deterministic discrete-event scheduling of a fuzzing fleet.

Every worker owns a :class:`~repro.vclock.VirtualClock`; the scheduler
interleaves them by always stepping the worker whose clock is furthest
behind, breaking ties by worker id.  Because each step advances the
stepped worker's clock by the virtual cost of what it simulated, the
interleaving — and therefore every shared-state interaction (corpus-hub
syncs, shared serving-tier submissions) — is a pure function of the
campaign seed.  That is what makes N-worker cluster runs bit-reproducible
and checkpoint/resume exact.

Workers sync against the :class:`~repro.cluster.hub.CorpusHub` on a
fixed virtual cadence, paying ``CostModel.hub_sync`` per round-trip, so
corpus sharing has a cost and a propagation lag like the real syz-hub.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.fuzzer.loop import FuzzLoop, FuzzObservation, FuzzStats

from .hub import CorpusHub, HubStats
from .serving import SharedInferenceTier

__all__ = [
    "ClusterConfig",
    "ClusterFuzzer",
    "ClusterResult",
    "ClusterScheduler",
    "ClusterWorker",
]


# Failed hub sync rounds tolerated (per partition) before the push batch
# is dropped with ``hub.dropped_entries`` accounting.
MAX_SYNC_RETRIES = 2


@dataclass
class ClusterConfig:
    """Fleet-shape knobs of a cluster campaign."""

    workers: int = 4
    # Virtual seconds between a worker's hub syncs (10 virtual minutes
    # under the scaled cost model — syz-hub managers poll on the order
    # of minutes, not per-execution).
    sync_interval: float = 600.0
    # Corpus-hub shards; >1 builds a ShardedHub with failover.
    shards: int = 1
    # Heartbeat liveness: a worker whose last progress is older than
    # this is declared dead and restarted; the supervisor checks every
    # half deadline.  None disables supervision.
    heartbeat_deadline: float | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"cluster needs at least 1 worker, got {self.workers}")
        if self.sync_interval <= 0:
            raise ValueError(
                f"sync_interval must be positive, got {self.sync_interval}"
            )
        if self.shards < 1:
            raise ValueError(f"need at least one hub shard, got {self.shards}")
        if self.heartbeat_deadline is not None and self.heartbeat_deadline <= 0:
            raise ValueError(
                f"heartbeat_deadline must be positive, got "
                f"{self.heartbeat_deadline}"
            )


class ClusterWorker:
    """One fuzz loop plus its hub-sync bookkeeping."""

    def __init__(
        self,
        worker_id: int,
        loop: FuzzLoop,
        hub: CorpusHub,
        sync_interval: float = 600.0,
        injector=None,
    ):
        self.worker_id = worker_id
        self.loop = loop
        self.hub = hub
        self.sync_interval = sync_interval
        self.next_sync = sync_interval
        # Hub epoch of the last pull; pulls are incremental on this.
        self.sync_epoch = 0
        # Corpus entries already offered to the hub (a prefix: pulled
        # entries are appended past this mark and never pushed back).
        self._synced_entries = 0
        # Cluster-level fault state (see repro.faults site table).
        self.injector = injector
        self.killed = False
        # Incarnation number; bumped by the supervisor on each restart.
        self.generation = 0
        # Birth time of this incarnation.  Hang windows are process-
        # scoped: a restart after the window opened is a fresh VM and
        # immune to it (the supervisor's restart actually cures hangs).
        self.born = 0.0
        # Heartbeat: virtual time of the last productive step.  Hung and
        # dead workers stop advancing it, which is what the supervisor's
        # deadline detects.
        self.last_progress = 0.0
        self._sync_failures = 0
        # Corpus indices whose push batch was dropped under partition;
        # re-offered at flush so the hub union loses nothing.
        self.dropped: list[int] = []
        # Kill-window starts already fired (a kill is an event, not an
        # outage: it must not re-fire on the restarted incarnation).
        self._consumed_kills: set[float] = set()

    def step(self) -> bool:
        """One scheduler quantum: a hub sync if one is due, otherwise a
        fuzz-loop iteration.  Returns False once the worker stops
        running — clock expired, or killed by a fault."""
        clock = self.loop.clock
        if self.killed or clock.expired():
            return False
        now = clock.now
        if self._kill_due(now):
            self.killed = True
            if self.loop.tracer is not None:
                self.loop.tracer.instant(
                    self.loop.track, "worker_killed", now, cat="fault",
                    generation=self.generation,
                )
            return False
        if self.injector is not None:
            hang_start = self.injector.plan.hang_start(self.worker_id, now)
            if hang_start is not None and self.born <= hang_start:
                # Wedged: virtual time passes but no work happens and
                # the heartbeat goes stale, which is what the
                # supervisor sees.
                clock.advance(self.loop.cost.test_execution, "hung")
                return True
        if now >= self.next_sync:
            self.sync()
        else:
            self.loop._iterate()
        self.last_progress = clock.now
        return True

    def _kill_due(self, now: float) -> bool:
        if self.injector is None:
            return False
        for start in self.injector.plan.kill_times(self.worker_id):
            if start <= now and start not in self._consumed_kills:
                self._consumed_kills.add(start)
                return True
        return False

    def sync(self) -> None:
        """One hub round-trip: push fresh corpus entries, pull the rest
        of the fleet's, merge their coverage, pay the sync cost."""
        loop = self.loop
        start = loop.clock.now
        if self.injector is not None and self.injector.in_window(
            f"hub_partition:{self.worker_id}", start
        ):
            self._sync_partitioned(start)
            return
        self._sync_failures = 0
        with loop._section("loop.hub_sync"):
            fresh = loop.corpus.entries[self._synced_entries:]
            accepted = self.hub.push(self.worker_id, fresh, loop.clock.now)
            pulled, self.sync_epoch = self.hub.pull(
                self.worker_id, self.sync_epoch
            )
            for entry in pulled:
                loop.accumulated.merge(entry.coverage)
                # Pulled lineage lands in the local ledger too, so this
                # worker's descendants of a foreign entry chain through
                # it without waiting for the fleet-level merge.
                if entry.lineage is not None:
                    loop.provenance.record(entry.lineage)
                loop.corpus.add(
                    entry.program, entry.coverage,
                    signal=entry.signal, hints=entry.hints,
                    lineage=entry.lineage,
                )
            self._synced_entries = len(loop.corpus.entries)
            loop.stats.hub_syncs += 1
            loop.stats.hub_pushed += accepted
            loop.stats.hub_pulled += len(pulled)
            loop.clock.advance(loop.cost.hub_sync, "hub_sync")
        if loop.observer is not None:
            # Fleet-union coverage as a gauge: the scaling claim is a
            # trajectory, so the time-series needs it, not just the
            # final number.
            union = self.hub.coverage
            loop.observer.registry.gauge("hub.edges").set(len(union.edges))
            loop.observer.registry.gauge("hub.blocks").set(
                len(union.blocks)
            )
            loop.observer.sample(loop.clock.now)
        if loop.tracer is not None:
            loop.tracer.record(
                loop.track, "hub_sync", start, loop.clock.now,
                cat="hub_sync", pushed=accepted, pulled=len(pulled),
            )
        while self.next_sync <= loop.clock.now:
            self.next_sync += self.sync_interval

    def _sync_partitioned(self, start: float) -> None:
        """A sync round-trip that cannot reach the hub.

        The worker still pays the round-trip cost (it tried), counts
        the failure, and after ``MAX_SYNC_RETRIES`` consecutive failed
        rounds drops the pending push batch — visibly, through the
        ``hub.dropped_entries`` counter and a tracer instant, never
        silently.  Dropped entries are remembered and re-offered at
        flush, so a recovered partition loses no coverage.
        """
        loop = self.loop
        self._sync_failures += 1
        self.hub.stats.sync_failures += 1
        with loop._section("loop.hub_sync"):
            loop.clock.advance(loop.cost.hub_sync, "hub_sync")
        if self._sync_failures > MAX_SYNC_RETRIES:
            fresh = list(
                range(self._synced_entries, len(loop.corpus.entries))
            )
            if fresh:
                self.dropped.extend(fresh)
                self.hub.stats.dropped_entries += len(fresh)
                self._synced_entries = len(loop.corpus.entries)
                if loop.tracer is not None:
                    loop.tracer.instant(
                        loop.track, "hub_dropped", loop.clock.now,
                        cat="fault", entries=len(fresh),
                    )
            self._sync_failures = 0
        if loop.tracer is not None:
            loop.tracer.record(
                loop.track, "hub_sync_failed", start, loop.clock.now,
                cat="hub_sync", retries=self._sync_failures,
            )
        while self.next_sync <= loop.clock.now:
            self.next_sync += self.sync_interval

    def flush(self) -> None:
        """Final push at the horizon (no pull, no time charge) so the
        hub union reflects everything the fleet found.  Batches dropped
        under partition are re-offered first; a worker that died and was
        never restarted cannot flush."""
        if self.killed:
            return
        corpus = self.loop.corpus.entries
        fresh = [corpus[index] for index in self.dropped]
        fresh += corpus[self._synced_entries:]
        accepted = self.hub.push(self.worker_id, fresh, self.loop.clock.now)
        self.dropped = []
        self._synced_entries = len(corpus)
        self.loop.stats.hub_pushed += accepted


class ClusterScheduler:
    """Min-heap event loop over (virtual-time, worker-id)."""

    def __init__(self, workers: list[ClusterWorker]):
        self.workers = sorted(workers, key=lambda worker: worker.worker_id)
        ids = [worker.worker_id for worker in self.workers]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate worker ids: {ids}")
        self._by_id = {worker.worker_id: worker for worker in self.workers}

    def run_until(self, time: float, supervisor=None) -> None:
        """Step workers in deterministic order until every clock reaches
        ``time`` (or its horizon).

        With a supervisor attached, its checks interleave with worker
        events in virtual-time order: before each event the supervisor
        runs every check due up to that event, and workers it restarts
        re-enter the heap.  When the heap drains while dead workers
        remain, checks keep firing into the future until the deadline
        detector revives them (or the horizon passes).
        """
        heap: list[tuple[float, int]] = []
        for worker in self.workers:
            clock = worker.loop.clock
            if not worker.killed and not clock.expired() and clock.now < time:
                heapq.heappush(heap, (clock.now, worker.worker_id))
        while True:
            if supervisor is not None:
                up_to = heap[0][0] if heap else time
                for revived in supervisor.poll(up_to, bool(heap)):
                    clock = revived.loop.clock
                    if not clock.expired() and clock.now < time:
                        heapq.heappush(
                            heap, (clock.now, revived.worker_id)
                        )
            if not heap:
                break
            _, worker_id = heapq.heappop(heap)
            worker = self._by_id[worker_id]
            clock = worker.loop.clock
            if clock.expired() or clock.now >= time:
                continue
            alive = worker.step()
            if alive and not clock.expired() and clock.now < time:
                heapq.heappush(heap, (clock.now, worker_id))


@dataclass
class ClusterResult:
    """What a cluster campaign reports for one fleet size."""

    workers: int
    horizon: float
    worker_stats: list[FuzzStats]
    merged: FuzzStats
    hub_edges: int
    hub_blocks: int
    hub_timeline: list[FuzzObservation] = field(default_factory=list)
    hub_stats: HubStats = field(default_factory=HubStats)
    service_stats: object | None = None

    @property
    def final_edges(self) -> int:
        """Fleet-union edge coverage (the hub's, after the final flush)."""
        return self.hub_edges

    @property
    def final_blocks(self) -> int:
        return self.hub_blocks

    def signature(self) -> tuple:
        """A compact fingerprint of everything determinism must preserve:
        fleet totals, per-worker counters, and the hub growth timeline.
        Two runs (or a run and its resumed twin) match iff these do."""
        return (
            self.final_edges,
            self.final_blocks,
            self.merged.executions,
            self.merged.mutations,
            tuple(
                (
                    stats.executions, stats.corpus_size, stats.hub_syncs,
                    stats.hub_pushed, stats.hub_pulled,
                )
                for stats in self.worker_stats
            ),
            tuple(
                (observation.time, observation.edges)
                for observation in self.hub_timeline
            ),
        )


class ClusterFuzzer:
    """Facade tying workers, hub, scheduler, and serving tier together."""

    def __init__(
        self,
        workers: list[ClusterWorker],
        hub: CorpusHub,
        tier: SharedInferenceTier | None = None,
        observer=None,
        supervisor=None,
    ):
        self.workers = sorted(workers, key=lambda worker: worker.worker_id)
        self.hub = hub
        self.tier = tier
        self.observer = observer
        self.supervisor = supervisor
        self.scheduler = ClusterScheduler(self.workers)
        if observer is not None:
            # The hub's ledger joins the workers' (the loops attach
            # themselves) so the exported lineage.json resolves entries
            # the hub holds that their finder deduped away locally.
            observer.attach_provenance(hub.provenance)

    def run_until(self, time: float) -> None:
        self.scheduler.run_until(time, supervisor=self.supervisor)

    def run(self) -> ClusterResult:
        self.run_until(float("inf"))
        return self.finalize()

    # Multiplexing hooks: the service orchestrator time-slices many
    # campaigns over one fleet by driving each ``run_until`` in bounded
    # increments, so it needs to read fleet progress without finalizing.

    @property
    def now(self) -> float:
        """Fleet-local virtual time: how far every runnable worker has
        been driven.  Killed workers pin this to their kill time until a
        supervisor revives them (an unsupervised kill is permanent, so
        their stopped clock is excluded)."""
        clocks = [
            worker.loop.clock.now
            for worker in self.workers
            if not (worker.killed and self.supervisor is None)
        ]
        return min(clocks, default=0.0)

    @property
    def horizon(self) -> float:
        return max(worker.loop.clock.horizon for worker in self.workers)

    @property
    def done(self) -> bool:
        """True once no worker can make further progress: each clock has
        expired, or the worker is dead with nobody to revive it."""
        return all(
            worker.loop.clock.expired()
            or (worker.killed and self.supervisor is None)
            for worker in self.workers
        )

    def finalize(self) -> ClusterResult:
        if hasattr(self.hub, "recover_all"):
            # Campaign teardown recovers any still-failed shard so the
            # final union reconciles every parked backlog entry.
            self.hub.recover_all(
                max(worker.loop.clock.now for worker in self.workers)
            )
        for worker in self.workers:
            worker.flush()
        worker_stats = [worker.loop.finalize() for worker in self.workers]
        merged = FuzzStats.merge(worker_stats)
        if self.tier is not None:
            # The shared tier's breaker is cluster-level state; workers
            # leave it zeroed so the merge cannot double-count trips.
            merged.breaker_trips = self.tier.service.stats.breaker_trips
            merged.breaker_state = self.tier.service.stats.breaker_state
        return ClusterResult(
            workers=len(self.workers),
            horizon=max(
                worker.loop.clock.horizon for worker in self.workers
            ),
            worker_stats=worker_stats,
            merged=merged,
            hub_edges=len(self.hub.coverage.edges),
            hub_blocks=len(self.hub.coverage.blocks),
            hub_timeline=list(self.hub.timeline),
            hub_stats=self.hub.stats,
            service_stats=(
                self.tier.service.stats if self.tier is not None else None
            ),
        )
