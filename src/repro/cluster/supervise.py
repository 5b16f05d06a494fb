"""Fleet supervision: heartbeat liveness and deterministic restarts.

Real fuzzing fleets lose workers constantly — QEMU wedges, OOM kills,
kernel panics taking the manager down with the guest.  Syzkaller's
answer (and the orchestrator pattern in frameworks like mugbear) is a
supervisor that watches per-worker heartbeats and restarts anything
that goes quiet.  :class:`FleetSupervisor` reproduces that loop on the
virtual clock:

- every worker's :attr:`~repro.cluster.scheduler.ClusterWorker.last_progress`
  is its heartbeat — hung and dead workers stop advancing it;
- on a fixed check cadence the supervisor declares any worker whose
  heartbeat is older than ``heartbeat_deadline`` dead and restarts it;
- a restart builds a **fresh** loop through the campaign's loop
  factory, seeded with ``derive_seed(run_seed, "worker", id, "restart",
  generation)`` — deterministic, so two runs of the same chaos plan
  restart identically — and re-seeds the new corpus from the hub, so
  no fleet-level coverage is lost with the dead incarnation;
- checks also drive shard-loss fault windows against a
  :class:`~repro.cluster.shards.ShardedHub` (failover at window start,
  reconciliation at window end).

Supervision state (generations, restart counts, next check time) is
checkpointable, so a resumed campaign reproduces every later restart
decision bit-identically.
"""

from __future__ import annotations

from repro.errors import SupervisionError
from repro.rng import derive_seed

__all__ = ["FleetSupervisor"]


class FleetSupervisor:
    """Heartbeat-based liveness supervisor for a worker fleet."""

    def __init__(
        self,
        workers,
        hub,
        loop_factory,
        run_seed: int,
        heartbeat_deadline: float,
        injector=None,
        observer=None,
    ):
        if heartbeat_deadline <= 0:
            raise SupervisionError(
                f"heartbeat_deadline must be positive, got "
                f"{heartbeat_deadline}"
            )
        self.workers = sorted(workers, key=lambda worker: worker.worker_id)
        self.hub = hub
        self.loop_factory = loop_factory
        self.run_seed = run_seed
        self.heartbeat_deadline = heartbeat_deadline
        self.check_interval = heartbeat_deadline / 2.0
        self.injector = injector
        self.observer = observer
        self.next_check = self.check_interval
        self.generations = {
            worker.worker_id: worker.generation for worker in self.workers
        }
        self.checks = 0
        self.restarts = 0

    # ----- scheduler hook -----

    def poll(self, up_to: float, have_runnable: bool) -> list:
        """Run every check due before ``up_to``; returns restarted workers.

        With runnable workers in the scheduler's heap, checks simply
        interleave in virtual-time order.  With the heap drained but
        dead workers remaining, checks keep firing into the future
        (bounded by the fleet horizon) until one revives a worker —
        that is what prevents an all-dead fleet from deadlocking the
        event loop.
        """
        revived: list = []
        bound = min(up_to, self._fleet_horizon())
        while self.next_check <= bound:
            if not have_runnable:
                if not self._revivable():
                    break
            revived.extend(self.check(self.next_check))
            self.next_check += self.check_interval
            if not have_runnable and revived:
                break
        return revived

    # ----- the check -----

    def check(self, at: float) -> list:
        """One supervision pass at virtual ``at``: drive shard fault
        windows, then restart every worker whose heartbeat expired."""
        self.checks += 1
        self._drive_shard_faults(at)
        revived = []
        for worker in self.workers:
            if worker.loop.clock.expired():
                continue
            stale = at - worker.last_progress >= self.heartbeat_deadline
            if worker.killed and not stale:
                # Known-dead but inside the grace period: the real
                # supervisor cannot see the crash, only the silence.
                continue
            if stale:
                self._restart(worker, at)
                revived.append(worker)
        if self.observer is not None:
            registry = self.observer.registry
            registry.gauge("supervise.restarts").set(self.restarts)
            registry.gauge("supervise.dead_workers").set(
                sum(1 for worker in self.workers if worker.killed)
            )
            if hasattr(self.hub, "alive_shards"):
                registry.gauge("hub.shards_alive").set(
                    self.hub.alive_shards()
                )
        return revived

    def _restart(self, worker, at: float) -> None:
        worker_id = worker.worker_id
        generation = self.generations[worker_id] + 1
        self.generations[worker_id] = generation
        seed = derive_seed(
            self.run_seed, "worker", worker_id, "restart", generation
        )
        loop = self.loop_factory(worker_id, seed)
        # The new incarnation starts where the fleet is now, never
        # behind its predecessor's clock (a hung worker kept ticking).
        restart_at = max(at, worker.loop.clock.now, loop.clock.now)
        loop.clock.advance(restart_at - loop.clock.now, "dead")
        # Re-seed from the hub: everything the fleet shared survives
        # the dead incarnation.
        for entry in self.hub.entries:
            loop.accumulated.merge(entry.coverage)
            loop.corpus.add(
                entry.program, entry.coverage,
                signal=entry.signal, hints=entry.hints,
            )
        worker.loop = loop
        worker.killed = False
        worker.generation = generation
        worker.born = restart_at
        worker.last_progress = restart_at
        worker.next_sync = restart_at + worker.sync_interval
        worker.sync_epoch = self.hub.epoch
        worker._synced_entries = len(loop.corpus.entries)
        worker.dropped = []
        worker._sync_failures = 0
        self.restarts += 1
        if self.observer is not None:
            self.observer.tracer.instant(
                "supervise", "worker_restart", restart_at, cat="supervise",
                worker=worker_id, generation=generation,
            )

    def _drive_shard_faults(self, at: float) -> None:
        if self.injector is None or not hasattr(self.hub, "fail_shard"):
            return
        for shard in range(self.hub.shards):
            down = self.injector.in_window(f"shard_loss:{shard}", at)
            failed = shard in self.hub.failed_shards
            if down and not failed:
                parked = self.hub.fail_shard(shard, at)
                if self.observer is not None:
                    self.observer.tracer.instant(
                        "supervise", "shard_failover", at, cat="fault",
                        shard=shard, parked=parked,
                    )
            elif not down and failed:
                readmitted = self.hub.recover_shard(shard, at)
                if self.observer is not None:
                    self.observer.tracer.instant(
                        "supervise", "shard_recover", at, cat="fault",
                        shard=shard, readmitted=readmitted,
                    )

    # ----- internals -----

    def _revivable(self) -> bool:
        return any(
            worker.killed and not worker.loop.clock.expired()
            for worker in self.workers
        )

    def _fleet_horizon(self) -> float:
        return max(worker.loop.clock.horizon for worker in self.workers)

    # ----- checkpointable state -----

    def state_dict(self) -> dict:
        return {
            "next_check": self.next_check,
            "generations": {
                str(worker_id): generation
                for worker_id, generation in sorted(self.generations.items())
            },
            "checks": self.checks,
            "restarts": self.restarts,
        }

    def restore(self, state: dict) -> None:
        self.next_check = float(state["next_check"])
        self.generations = {
            int(worker_id): int(generation)
            for worker_id, generation in state["generations"].items()
        }
        self.checks = int(state["checks"])
        self.restarts = int(state["restarts"])
