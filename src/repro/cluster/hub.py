"""The corpus hub: a syz-hub analogue for multi-worker campaigns.

Real Syzkaller fleets share progress through syz-hub: every manager
periodically connects, uploads the corpus entries it found since its
last visit, and downloads what the rest of the fleet found meanwhile.
:class:`CorpusHub` reproduces that protocol over virtual time.  Pushes
dedup by **coverage signature** (the entry's edge set frozen as an
identity) and by marginal value (an entry whose edges the hub already
holds in union is a duplicate even under a novel signature), so the hub
corpus stays minimal no matter how many workers rediscover the same
behaviour.  Pulls are incremental: each worker remembers the hub epoch
of its last sync and receives only entries accepted after it, excluding
its own uploads.

The hub also keeps the fleet-wide coverage union and a timeline of when
that union grew — the cluster-level coverage-over-time curve that
scaling campaigns report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fuzzer.loop import FuzzObservation
from repro.kernel.coverage import Coverage
from repro.observe import CounterView, MetricsRegistry
from repro.observe.provenance import UNION, LineageRecord, ProvenanceLog
from repro.syzlang.parser import parse_program, serialize_program
from repro.syzlang.program import Program

__all__ = ["CorpusHub", "HubEntry", "HubStats"]


@dataclass
class HubEntry:
    """One corpus entry as the hub stores it."""

    program: Program
    coverage: Coverage
    signal: int
    hints: frozenset[int]
    # Worker that uploaded the entry; pulls never echo a worker's own
    # uploads back at it.
    origin: int
    # Hub epoch at acceptance; pulls are incremental on this.
    epoch: int
    # Lineage record carried from the uploading worker (None when the
    # uploader tracked no lineage).
    lineage: LineageRecord | None = None

    def state_dict(self) -> dict:
        """JSON-serializable form; coverage is kept as its call traces."""
        return {
            "program": serialize_program(self.program),
            "traces": [list(trace) for trace in self.coverage.call_traces],
            "signal": self.signal,
            "hints": sorted(self.hints),
            "origin": self.origin,
            "epoch": self.epoch,
            "lineage": (
                self.lineage.to_dict() if self.lineage is not None else None
            ),
        }

    @classmethod
    def from_state(
        cls, state: dict, table, provenance: ProvenanceLog
    ) -> "HubEntry":
        """Rebuild :meth:`state_dict` output against the syscall
        ``table``.  The lineage record is the one ``provenance`` holds,
        so entry and ledger share one object as they did live."""
        lineage = state.get("lineage")
        return cls(
            program=parse_program(state["program"], table),
            coverage=Coverage.from_traces(state["traces"]),
            signal=int(state["signal"]),
            hints=frozenset(state["hints"]),
            origin=int(state["origin"]),
            epoch=int(state["epoch"]),
            lineage=(
                provenance.record(LineageRecord.from_dict(lineage))
                if lineage is not None else None
            ),
        )


class HubStats(CounterView):
    """Hub-side sync accounting (views over ``hub.*`` registry series)."""

    PREFIX = "hub"
    # The first five are the core sync protocol; the rest are the
    # fleet-resilience accounting paths (partition retries/drops, bloom
    # pre-dedup, shard failover) so nothing fails silently.
    COUNTERS = (
        "pushes", "accepted", "duplicates", "pulls", "pulled_entries",
        "sync_failures", "dropped_entries", "bloom_skips",
        "lost_entries", "failovers", "reconciled",
        # Entries dropped with their lineage booked (``superseded_by``)
        # instead of silently discarded: push-dedup collisions and
        # rediscovered failover-backlog entries.
        "subsumed_entries",
    )

    def __eq__(self, other) -> bool:
        if not isinstance(other, HubStats):
            return NotImplemented
        return self.counter_values() == other.counter_values()

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={value}"
            for name, value in self.counter_values().items()
        )
        return f"HubStats({body})"


class CorpusHub:
    """Central corpus exchange with signature dedup and sync epochs."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self.entries: list[HubEntry] = []
        self.coverage = Coverage()
        self.epoch = 0
        self.stats = HubStats(registry=registry)
        # Fleet-union coverage growth, stamped at push time.
        self.timeline: list[FuzzObservation] = []
        self._signatures: set[frozenset] = set()
        # The hub's own lineage ledger: every offered record is kept
        # (accepted or subsumed), so fleet-level explain queries resolve
        # entries a worker found but the hub deduped away.
        self.provenance = ProvenanceLog()
        # signature -> entry id that owns it, for naming the superseder
        # when a later offer collides.
        self._signature_owner: dict[frozenset, str] = {}

    def _subsume(self, lineage, signature: frozenset) -> None:
        """Book a dedup drop against the dropped entry's lineage.

        A re-offer of the *same* content (a worker pushing back what it
        pulled, replication echo) is a plain duplicate, not a
        subsumption; only a genuinely different entry losing to the
        signature owner (or to the hub's coverage union) is booked.
        """
        if lineage is None:
            return
        owner = self._signature_owner.get(signature)
        if owner == lineage.entry_id:
            return
        self.stats.subsumed_entries += 1
        self.provenance.record(lineage)
        self.provenance.supersede(
            lineage.entry_id, owner if owner is not None else UNION
        )

    # ----- the sync protocol -----

    def push(self, worker_id: int, entries, now: float) -> int:
        """Offer corpus entries; returns how many the hub accepted.

        ``entries`` is any iterable of corpus-entry-like objects
        (``program``/``coverage``/``signal``/``hints``).  An entry is a
        duplicate if its coverage signature was seen before or if it
        adds no edge to the hub union.
        """
        accepted = 0
        for entry in entries:
            self.stats.pushes += 1
            signature = frozenset(entry.coverage.edges)
            lineage = getattr(entry, "lineage", None)
            if (
                signature in self._signatures
                or not entry.coverage.new_edges(self.coverage)
            ):
                self.stats.duplicates += 1
                self._subsume(lineage, signature)
                continue
            if lineage is not None:
                lineage = self.provenance.record(lineage)
                self._signature_owner[signature] = lineage.entry_id
            self._signatures.add(signature)
            self.epoch += 1
            self.entries.append(
                HubEntry(
                    program=entry.program,
                    coverage=entry.coverage.copy(),
                    signal=entry.signal,
                    hints=frozenset(entry.hints),
                    origin=worker_id,
                    epoch=self.epoch,
                    lineage=lineage,
                )
            )
            self.coverage.merge(entry.coverage)
            self.timeline.append(
                FuzzObservation(
                    time=now,
                    edges=len(self.coverage.edges),
                    blocks=len(self.coverage.blocks),
                    executions=0,
                )
            )
            accepted += 1
            self.stats.accepted += 1
        return accepted

    def pull(
        self, worker_id: int, since_epoch: int
    ) -> tuple[list[HubEntry], int]:
        """Entries accepted after ``since_epoch`` from other workers,
        plus the hub epoch to remember for the next sync."""
        self.stats.pulls += 1
        pulled = [
            entry
            for entry in self.entries
            if entry.epoch > since_epoch and entry.origin != worker_id
        ]
        self.stats.pulled_entries += len(pulled)
        return pulled, self.epoch

    # ----- checkpointing -----

    def state_dict(self) -> dict:
        """JSON-serializable snapshot (coverage/signatures rebuild on
        restore from the per-entry traces)."""
        return {
            "epoch": self.epoch,
            "entries": [entry.state_dict() for entry in self.entries],
            "timeline": [
                [obs.time, obs.edges, obs.blocks, obs.executions]
                for obs in self.timeline
            ],
            "stats": self.stats.counter_values(),
            "provenance": self.provenance.state_dict(),
        }

    def restore(self, state: dict, table) -> None:
        """Rebuild the hub from :meth:`state_dict` output against the
        kernel's syscall ``table``."""
        self.entries.clear()
        self.coverage = Coverage()
        self._signatures.clear()
        self._signature_owner.clear()
        self.epoch = int(state["epoch"])
        self.provenance.restore(
            state.get("provenance", ProvenanceLog().state_dict())
        )
        for entry_state in state["entries"]:
            entry = HubEntry.from_state(entry_state, table, self.provenance)
            signature = frozenset(entry.coverage.edges)
            self.entries.append(entry)
            self._signatures.add(signature)
            if entry.lineage is not None:
                self._signature_owner[signature] = entry.lineage.entry_id
            self.coverage.merge(entry.coverage)
        self.timeline = [
            FuzzObservation(
                time=float(time), edges=int(edges), blocks=int(blocks),
                executions=int(executions),
            )
            for time, edges, blocks, executions in state["timeline"]
        ]
        self.stats.restore_counters(state["stats"])
