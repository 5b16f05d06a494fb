"""Campaign checkpoint/resume: crash a worker, lose nothing that matters.

Multi-day campaigns survive worker restarts in the real deployment; this
module gives the reproduction the same property.  A checkpoint captures
*everything* that feeds the deterministic simulation — corpus (programs,
per-entry coverage traces, scheduling counters), accumulated coverage,
the full :class:`~repro.fuzzer.loop.FuzzStats` ledger including triaged
crashes, every RNG stream (loop, mutation engine, program generator,
executor, fault injector), the virtual clock with its cost attribution,
and the serving tier's slot/breaker state — so a loop restored from a
checkpoint continues **bit-identically**: two restores of the same
checkpoint produce byte-equal remainders of the campaign.

The one deliberate loss is in-flight inference: requests pending inside
the serving tier die with the worker (as they would with a real
torchserve replica), and the resumed run books them under
``FuzzStats.inference_failures`` instead of pretending they survived.

On-disk checkpoints are single JSON files with a content digest;
corruption, truncation, or version skew raises
:class:`~repro.errors.CheckpointError` rather than silently resuming
from garbage.  :class:`CheckpointStore` adds bounded retention and
rides out injected transient write failures (site ``checkpoint_store``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import CheckpointError
from repro.fuzzer.crash import TriagedCrash, categorize_description
from repro.fuzzer.loop import FuzzLoop, FuzzObservation, FuzzStats
from repro.kernel.coverage import Coverage
from repro.observe.provenance import LineageRecord
from repro.syzlang.parser import parse_program, serialize_program

__all__ = [
    "CheckpointStore",
    "cluster_state",
    "load_checkpoint",
    "loop_state",
    "restore_cluster_state",
    "restore_loop_state",
    "save_checkpoint",
]

# v4: observer state grew the time-series store (``timeseries`` key in
# the observer dict), so restored campaigns replay identical timelines.
# v5: supervised-fleet state — per-worker fault bookkeeping (killed,
# generation, partition drops, heartbeat), the supervisor's
# generations/next-check, and the sharded hub's watermarks/backlog —
# so chaos campaigns kill+resume bit-identically.
# v6: service-level state — the control plane (:mod:`repro.service`)
# checkpoints tenant sessions, job records, and each admitted
# campaign's exec state (a ``loop_state``/``cluster_state`` payload per
# running job) in one digest-checked envelope, so killing and resuming
# the whole service replays every tenant's campaign bit-identically.
# v7: provenance — each loop's lineage ledger (``provenance`` key),
# per-entry lineage records in the corpus and hub state, and the
# snowplow burst-id sequence, so `observe explain` output survives
# kill+resume byte-identically.  Later v7 files also carry the program
# generator's next pointer offset (``generator_offset``), without which
# a resumed loop restarted its pointer addresses and so wrote different
# program text and entry ids; a file without the key restores offset 0,
# as every v7 file did before it.
_FORMAT_VERSION = 7

# Transient checkpoint-store write failures retried before giving up.
_WRITE_ATTEMPTS = 5


# ----- capture -----


def loop_state(loop: FuzzLoop, include_observer: bool = True) -> dict:
    """Snapshot a (possibly mid-run) fuzz loop as JSON-serializable state.

    ``include_observer=False`` leaves out the loop's observer (registry
    plus tracer): cluster checkpoints set it because every worker shares
    one observer, which :func:`cluster_state` captures exactly once.
    """
    state = {
        "format_version": _FORMAT_VERSION,
        "kernel_version": loop.kernel.version,
        "clock": {
            "now": loop.clock.now,
            "horizon": loop.clock.horizon,
            "charges": dict(loop.clock.charges),
        },
        "last_sample": loop._last_sample,
        "rng": {
            "loop": loop.rng.bit_generator.state,
            "engine": loop.engine.rng.bit_generator.state,
            "generator": loop.engine.generator.rng.bit_generator.state,
            "executor": loop.executor._rng.bit_generator.state,
        },
        "generator_offset": loop.engine.generator._next_offset,
        "executor": {"vm_restarts": loop.executor.vm_restarts},
        "corpus": [
            {
                "program": serialize_program(entry.program),
                "traces": [list(trace) for trace in entry.coverage.call_traces],
                "signal": entry.signal,
                "picked": entry.picked,
                "hints": sorted(entry.hints),
                "lineage": (
                    entry.lineage.to_dict()
                    if entry.lineage is not None else None
                ),
            }
            for entry in loop.corpus.entries
        ],
        "provenance": loop.provenance.state_dict(),
        "accumulated": {
            "blocks": sorted(loop.accumulated.blocks),
            "edges": sorted(list(edge) for edge in loop.accumulated.edges),
        },
        "stats": _stats_state(loop.stats),
        "injector": (
            loop.injector.state() if loop.injector is not None else None
        ),
    }
    if hasattr(loop, "_burst_yield"):
        # Snowplow extras.  Pending bursts are dropped along with the
        # in-flight inference that would have produced more of them; the
        # burst-id sequence continues where it was so lineage records
        # never reuse an id.
        state["burst_yield"] = loop._burst_yield
        state["burst_seq"] = loop._burst_seq
    service = getattr(loop, "service", None)
    if service is not None and hasattr(service, "state_dict"):
        # A cluster worker's service is a view onto the shared tier,
        # which the cluster checkpoint captures once; only a privately
        # owned service is snapshotted with its loop.
        state["service"] = service.state_dict()
    observer = getattr(loop, "observer", None)
    if include_observer and observer is not None:
        state["observer"] = observer.state_dict()
    return state


def _stats_state(stats: FuzzStats) -> dict:
    state: dict = stats.counter_values()
    state["breaker_state"] = stats.breaker_state
    state["mutations"] = dict(stats.mutations)
    state["observations"] = [
        [obs.time, obs.edges, obs.blocks, obs.executions]
        for obs in stats.observations
    ]
    state["crashes"] = [
        {
            "signature": crash.signature,
            "is_new": crash.is_new,
            "bug_id": crash.bug_id,
            "program": serialize_program(crash.crashing_program),
            "reproducer": (
                serialize_program(crash.reproducer)
                if crash.reproducer is not None else None
            ),
        }
        for crash in stats.crashes
    ]
    return state


# ----- restore -----


def restore_loop_state(loop: FuzzLoop, state: dict) -> None:
    """Restore ``state`` onto a freshly built loop.

    The loop must have been constructed with the same seeds and config
    as the checkpointed one (the campaign harness rebuilds it the same
    way it built the original); this function then overwrites every
    piece of mutable state so the continuation is bit-identical.
    """
    if state.get("format_version") != _FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {state.get('format_version')!r}"
        )
    if state.get("kernel_version") != loop.kernel.version:
        raise CheckpointError(
            f"checkpoint is for kernel {state.get('kernel_version')!r}, "
            f"loop runs {loop.kernel.version!r}"
        )
    # The observer restore goes first: it overwrites whole registry
    # series wholesale, and everything after (stats counters, the
    # resume increment, lost-inference booking) must land on top of it.
    observer = getattr(loop, "observer", None)
    if "observer" in state and observer is not None:
        observer.restore(state["observer"])
    clock = state["clock"]
    loop.clock.now = float(clock["now"])
    loop.clock.horizon = float(clock["horizon"])
    loop.clock.charges = {
        str(key): float(value) for key, value in clock["charges"].items()
    }
    loop._last_sample = float(state["last_sample"])
    rng = state["rng"]
    loop.rng.bit_generator.state = rng["loop"]
    loop.engine.rng.bit_generator.state = rng["engine"]
    loop.engine.generator.rng.bit_generator.state = rng["generator"]
    loop.executor._rng.bit_generator.state = rng["executor"]
    loop.engine.generator._next_offset = int(
        state.get("generator_offset", 0)
    )
    loop.executor.vm_restarts = int(state["executor"]["vm_restarts"])
    loop.corpus.entries.clear()
    loop.provenance.restore(state["provenance"])
    for entry_state in state["corpus"]:
        lineage_state = entry_state.get("lineage")
        entry = loop.corpus.add(
            parse_program(entry_state["program"], loop.kernel.table),
            Coverage.from_traces(entry_state["traces"]),
            signal=int(entry_state["signal"]),
            hints=frozenset(entry_state["hints"]),
            lineage=(
                # Share the ledger's record object, as the live loop did.
                loop.provenance.record(
                    LineageRecord.from_dict(lineage_state)
                )
                if lineage_state is not None else None
            ),
        )
        entry.picked = int(entry_state["picked"])
    loop.accumulated = Coverage(
        blocks=set(state["accumulated"]["blocks"]),
        edges={tuple(edge) for edge in state["accumulated"]["edges"]},
    )
    _restore_stats(loop, state["stats"])
    loop.stats.resumes += 1
    # The triage ledger must match the restored crash list or resumed
    # runs would double-count (or re-suppress) crashes.
    loop.triage._seen = {
        crash.signature: crash for crash in loop.stats.crashes
    }
    if state.get("injector") is not None and loop.injector is not None:
        loop.injector.restore(state["injector"])
    service = getattr(loop, "service", None)
    if service is not None and "service" in state:
        lost = service.restore(state["service"])
        # In-flight predictions died with the worker.
        loop.stats.inference_failures += lost
    if "burst_yield" in state:
        loop._burst_yield = float(state["burst_yield"])
        loop._burst_seq = int(state.get("burst_seq", 0))
        loop._bursts.clear()
        loop._active_burst = None


def _restore_stats(loop: FuzzLoop, state: dict) -> FuzzStats:
    # Restored in place: the stats object's instrument views must keep
    # pointing at the registry series they were built over.
    stats = loop.stats
    stats.observations = []
    stats.crashes = []
    stats.restore_counters(state)
    stats.breaker_state = str(state["breaker_state"])
    stats.mutations = {
        str(key): int(value) for key, value in state["mutations"].items()
    }
    stats.observations = [
        FuzzObservation(
            time=float(time), edges=int(edges), blocks=int(blocks),
            executions=int(executions),
        )
        for time, edges, blocks, executions in state["observations"]
    ]
    for crash_state in state["crashes"]:
        signature = str(crash_state["signature"])
        reproducer = crash_state["reproducer"]
        stats.crashes.append(
            TriagedCrash(
                signature=signature,
                category=categorize_description(signature),
                is_new=bool(crash_state["is_new"]),
                crashing_program=parse_program(
                    crash_state["program"], loop.kernel.table
                ),
                reproducer=(
                    parse_program(reproducer, loop.kernel.table)
                    if reproducer is not None else None
                ),
                bug_id=str(crash_state["bug_id"]),
            )
        )
    return stats


# ----- cluster capture/restore -----


def cluster_state(cluster) -> dict:
    """Snapshot a :class:`~repro.cluster.scheduler.ClusterFuzzer`:
    every worker's full loop state plus its sync bookkeeping, the hub,
    and the shared serving tier (captured once, not per worker).

    ``cluster`` is duck-typed (workers/hub/tier) to keep this module
    free of a dependency on ``repro.cluster``.
    """
    workers = sorted(cluster.workers, key=lambda worker: worker.worker_id)
    state = {
        "format_version": _FORMAT_VERSION,
        "kernel_version": workers[0].loop.kernel.version,
        # CheckpointStore names files by this; the fleet's trailing edge
        # is the time the resumed run continues from.
        "clock": {"now": min(worker.loop.clock.now for worker in workers)},
        "workers": [
            {
                "worker_id": worker.worker_id,
                "next_sync": worker.next_sync,
                "sync_epoch": worker.sync_epoch,
                "synced_entries": worker._synced_entries,
                "killed": worker.killed,
                "generation": worker.generation,
                "born": worker.born,
                "last_progress": worker.last_progress,
                "sync_failures": worker._sync_failures,
                "dropped": list(worker.dropped),
                "consumed_kills": sorted(worker._consumed_kills),
                "loop": loop_state(worker.loop, include_observer=False),
            }
            for worker in workers
        ],
        "hub": cluster.hub.state_dict(),
    }
    supervisor = getattr(cluster, "supervisor", None)
    if supervisor is not None:
        state["supervisor"] = supervisor.state_dict()
    tier = getattr(cluster, "tier", None)
    if tier is not None:
        state["service"] = tier.service.state_dict()
    observer = getattr(cluster, "observer", None)
    if observer is not None:
        # One observer serves the whole fleet; captured once here, not
        # once per worker.
        state["observer"] = observer.state_dict()
    return state


def restore_cluster_state(cluster, state: dict) -> int:
    """Restore a freshly built cluster from :func:`cluster_state` output.

    The cluster must have been rebuilt with the same seeds and config as
    the checkpointed one.  Returns the number of in-flight inference
    requests lost with the crashed process (also booked — attributed to
    worker 0, since the shared tier cannot say whose they were once the
    queue state is serialized away).
    """
    if state.get("format_version") != _FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {state.get('format_version')!r}"
        )
    workers = sorted(cluster.workers, key=lambda worker: worker.worker_id)
    worker_states = state["workers"]
    if len(worker_states) != len(workers):
        raise CheckpointError(
            f"checkpoint holds {len(worker_states)} workers, "
            f"cluster was built with {len(workers)}"
        )
    # Fleet-shared observer first, before per-worker restores layer
    # their resume increments and lost-inference bookings on top.
    observer = getattr(cluster, "observer", None)
    if "observer" in state and observer is not None:
        observer.restore(state["observer"])
    for worker, worker_state in zip(workers, worker_states):
        if worker.worker_id != worker_state["worker_id"]:
            raise CheckpointError(
                f"worker id mismatch: checkpoint "
                f"{worker_state['worker_id']} vs cluster {worker.worker_id}"
            )
        restore_loop_state(worker.loop, worker_state["loop"])
        worker.next_sync = float(worker_state["next_sync"])
        worker.sync_epoch = int(worker_state["sync_epoch"])
        worker._synced_entries = int(worker_state["synced_entries"])
        worker.killed = bool(worker_state["killed"])
        worker.generation = int(worker_state["generation"])
        worker.born = float(worker_state.get("born", 0.0))
        worker.last_progress = float(worker_state["last_progress"])
        worker._sync_failures = int(worker_state["sync_failures"])
        worker.dropped = [int(index) for index in worker_state["dropped"]]
        worker._consumed_kills = {
            float(start) for start in worker_state["consumed_kills"]
        }
    cluster.hub.restore(state["hub"], workers[0].loop.kernel.table)
    supervisor = getattr(cluster, "supervisor", None)
    if supervisor is not None and "supervisor" in state:
        supervisor.restore(state["supervisor"])
    lost = 0
    tier = getattr(cluster, "tier", None)
    if tier is not None and "service" in state:
        lost = tier.service.restore(state["service"])
        tier.reset()
        workers[0].loop.stats.inference_failures += lost
    return lost


# ----- durable storage -----


def save_checkpoint(path: str | Path, state: dict) -> Path:
    """Write ``state`` to ``path`` with an integrity digest.

    The state is encoded once: the envelope is written around the very
    body the digest covers.  :func:`load_checkpoint` re-encodes what it
    parsed with sorted keys, so it accepts files in any key order.
    """
    path = Path(path)
    body = json.dumps(state, sort_keys=True)
    digest = hashlib.blake2b(body.encode()).hexdigest()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(
        f'{{"format_version": {_FORMAT_VERSION}, "digest": "{digest}", '
        f'"state": {body}}}'
    )
    tmp.replace(path)
    return path


def load_checkpoint(path: str | Path) -> dict:
    """Load and verify a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        envelope = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise CheckpointError(f"checkpoint {path} is unreadable: {error}")
    if envelope.get("format_version") != _FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version "
            f"{envelope.get('format_version')!r}"
        )
    state = envelope.get("state")
    if state is None:
        raise CheckpointError(f"checkpoint {path} has no state")
    body = json.dumps(state, sort_keys=True)
    if hashlib.blake2b(body.encode()).hexdigest() != envelope.get("digest"):
        raise CheckpointError(f"checkpoint {path} failed its digest check")
    return state


class CheckpointStore:
    """Periodic checkpoint directory with retention and flaky-disk retry.

    Writes go through the fault injector's ``checkpoint_store`` site:
    transient failures are retried up to a bound, then
    :class:`~repro.errors.CheckpointError` propagates (a campaign that
    cannot persist state must say so, not limp on unprotected).
    """

    def __init__(self, directory: str | Path, injector=None, keep: int = 2):
        if keep < 1:
            raise CheckpointError(f"must keep at least one checkpoint, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.injector = injector
        self.keep = keep

    def save(self, state: dict) -> Path:
        now = float(state["clock"]["now"])
        if self.injector is not None:
            attempts = 0
            while self.injector.fires("checkpoint_store", now):
                attempts += 1
                if attempts >= _WRITE_ATTEMPTS:
                    raise CheckpointError(
                        f"checkpoint write failed {attempts} times at "
                        f"virtual t={now:.0f}"
                    )
        path = self.directory / f"ckpt_{int(now):012d}.json"
        save_checkpoint(path, state)
        self._prune()
        return path

    def load_latest(self) -> dict:
        latest = self._existing()
        if not latest:
            raise CheckpointError(f"no checkpoints under {self.directory}")
        return load_checkpoint(latest[-1])

    def _existing(self) -> list[Path]:
        return sorted(self.directory.glob("ckpt_*.json"))

    def _prune(self) -> None:
        for stale in self._existing()[: -self.keep]:
            stale.unlink()
