"""Corpus lineage and coverage attribution.

Every corpus entry carries a :class:`LineageRecord`: who its parent
was, which mutation engine and operator produced it, which steering
slot (PMM or oracle) guided the mutation, the model-decision metadata
(burst id, predicted vs. realized gain), and the virtual time of
discovery.  A :class:`ProvenanceLog` is the ledger those records live
in — it also attributes every newly covered edge to the entry that
first hit it and every triaged bug to the program that tripped it, so
``repro observe explain`` can walk the full reproduction chain for any
edge, bug, or entry.

Identity is content-addressed: :func:`entry_id_for` digests the
serialized program together with its sorted coverage edges, so the same
test carries the same id through hub replication, pulls, failover, and
checkpoint resume — dedup can then say *which* entry subsumed a dropped
offer (``superseded_by``) instead of discarding it without a trace.

Determinism contract: every field in every record is a pure function of
the campaign seed (virtual times, seeded RNG draws, content digests),
so the canonical snapshot is byte-identical across same-seed runs and
across kill+resume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from hashlib import blake2b

__all__ = [
    "LineageRecord",
    "ProvenanceLog",
    "edge_key",
    "entry_id_for",
]

#: ``superseded_by`` marker for entries subsumed by the hub's coverage
#: union rather than by one specific signature-owning entry.
UNION = "union"

#: engine name stamped on seed-corpus entries (no parent, no operator).
SEED_ENGINE = "seed"


def entry_id_for(program, coverage) -> str:
    """A content-addressed id for a (program, coverage) pair.

    Stable across clones, hub replication, and checkpoint round-trips:
    the digest covers the serialized program and the sorted edge set,
    nothing process- or placement-dependent.
    """
    from repro.syzlang.parser import serialize_program

    payload = serialize_program(program) + "\n" + ";".join(
        f"{src}-{dst}" for src, dst in sorted(coverage.edges)
    )
    return blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


def edge_key(edge) -> str:
    """The canonical string key for a coverage edge tuple."""
    src, dst = edge
    return f"{src}-{dst}"


@dataclass
class LineageRecord:
    """One corpus entry's provenance, stamped at mutation time."""

    #: content-addressed id (:func:`entry_id_for`).
    entry_id: str
    #: parent entry's id; None for seed-corpus roots.
    parent_id: str | None
    #: which mutation engine produced it ("seed", "syzkaller", "snowplow").
    engine: str
    #: mutation operator (a ``MutationType`` value, or "seed").
    operator: str
    #: steering slot that guided the mutation ("pmm", "oracle",
    #: "heuristic", or "-" for seeds).
    slot: str
    #: deterministic id of the PMM burst that scheduled the mutation.
    burst_id: str | None
    #: arguments the model predicted for the burst (0 off the model path).
    predicted: int
    #: realized gain: new edges this entry contributed at admission.
    gain: int
    #: virtual time of discovery.
    time: float
    #: worker that discovered the entry.
    worker: int
    #: id of the entry that subsumed this one at hub dedup (or
    #: ``"union"`` when no single owner exists); None while live.
    superseded_by: str | None = None

    def to_dict(self) -> dict:
        return {
            "entry_id": self.entry_id,
            "parent_id": self.parent_id,
            "engine": self.engine,
            "operator": self.operator,
            "slot": self.slot,
            "burst_id": self.burst_id,
            "predicted": self.predicted,
            "gain": self.gain,
            "time": self.time,
            "worker": self.worker,
            "superseded_by": self.superseded_by,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LineageRecord":
        return cls(
            entry_id=str(payload["entry_id"]),
            parent_id=payload["parent_id"],
            engine=str(payload["engine"]),
            operator=str(payload["operator"]),
            slot=str(payload["slot"]),
            burst_id=payload["burst_id"],
            predicted=int(payload["predicted"]),
            gain=int(payload["gain"]),
            time=float(payload["time"]),
            worker=int(payload["worker"]),
            superseded_by=payload["superseded_by"],
        )


class ProvenanceLog:
    """The lineage ledger of one loop (or one hub).

    Records are registered first-wins by entry id — re-offers of the
    same content-addressed entry (hub pulls pushed back, replication,
    resume) collapse onto the original record.  Edge attribution is
    first-cover: the first entry whose admission brought an edge owns
    it.  Per-``engine/slot`` mutation and gain tallies feed the
    dead-mutation share of the attribution table.
    """

    def __init__(self):
        self.records: dict[str, LineageRecord] = {}
        # edge key -> owning entry id (first cover wins).
        self.edge_owner: dict[str, str] = {}
        # crash signature -> id of the program that tripped it.
        self.bug_owner: dict[str, str] = {}
        # "engine/slot" -> mutations attempted / mutations that earned
        # a corpus entry.
        self.mutations: dict[str, int] = {}
        self.gainful: dict[str, int] = {}

    # ----- registration -----

    def record(self, rec: LineageRecord) -> LineageRecord:
        """Register a record (first-wins by id); returns the stored one.

        A later duplicate that carries a supersession the original
        lacks contributes that one field — the hub may learn an entry
        was subsumed after a worker logged it live.
        """
        existing = self.records.get(rec.entry_id)
        if existing is None:
            self.records[rec.entry_id] = rec
            return rec
        if existing.superseded_by is None and rec.superseded_by is not None:
            existing.superseded_by = rec.superseded_by
        return existing

    def note_mutation(self, engine: str, slot: str) -> None:
        key = f"{engine}/{slot}"
        self.mutations[key] = self.mutations.get(key, 0) + 1

    def admit(self, rec: LineageRecord, new_edges) -> LineageRecord:
        """Register an admitted entry and attribute its fresh edges."""
        stored = self.record(rec)
        if rec.engine != SEED_ENGINE:
            key = f"{rec.engine}/{rec.slot}"
            self.gainful[key] = self.gainful.get(key, 0) + 1
        self.attribute_edges(rec.entry_id, new_edges)
        return stored

    def attribute_edges(self, entry_id: str, edges) -> None:
        for edge in edges:
            key = edge_key(edge)
            if key not in self.edge_owner:
                self.edge_owner[key] = entry_id

    def note_crash(self, signature: str, entry_id: str) -> None:
        if signature not in self.bug_owner:
            self.bug_owner[signature] = entry_id

    def supersede(self, entry_id: str, by: str) -> None:
        """Mark ``entry_id`` as subsumed by ``by`` (an id or "union")."""
        rec = self.records.get(entry_id)
        if rec is not None and rec.superseded_by is None:
            rec.superseded_by = by

    # ----- queries -----

    @property
    def superseded_count(self) -> int:
        return sum(
            1 for rec in self.records.values()
            if rec.superseded_by is not None
        )

    def chain(self, entry_id: str) -> list[LineageRecord]:
        """The reproduction chain, root (seed) first; [] if unknown."""
        out: list[LineageRecord] = []
        seen: set[str] = set()
        cursor: str | None = entry_id
        while cursor is not None and cursor not in seen:
            rec = self.records.get(cursor)
            if rec is None:
                break
            out.append(rec)
            seen.add(cursor)
            cursor = rec.parent_id
        out.reverse()
        return out

    def summary(self) -> dict:
        """The cheap headline numbers (service endpoints, reports)."""
        return {
            "entries": len(self.records),
            "edges_attributed": len(self.edge_owner),
            "bugs": len(self.bug_owner),
            "superseded": self.superseded_count,
            "mutations": sum(self.mutations.values()),
        }

    # ----- merging (fleet logs + hub log -> one export) -----

    @classmethod
    def merge(cls, logs) -> "ProvenanceLog":
        """One fleet-wide ledger from per-worker logs plus the hub's.

        Records merge first-wins with supersessions adopted; attribution
        conflicts (two workers each first-covered an edge locally)
        resolve to the earliest claim by ``(time, worker, entry_id)``,
        which is a pure function of the records and therefore invariant
        to merge order.
        """
        merged = cls()
        logs = list(logs)
        for log in logs:
            for entry_id in sorted(log.records):
                merged.record(replace(log.records[entry_id]))

        def rank(entry_id: str):
            rec = merged.records.get(entry_id)
            if rec is None:
                return (float("inf"), float("inf"), entry_id)
            return (rec.time, rec.worker, entry_id)

        for log in logs:
            for key in sorted(log.edge_owner):
                claim = log.edge_owner[key]
                current = merged.edge_owner.get(key)
                if current is None or rank(claim) < rank(current):
                    merged.edge_owner[key] = claim
            for signature in sorted(log.bug_owner):
                claim = log.bug_owner[signature]
                current = merged.bug_owner.get(signature)
                if current is None or rank(claim) < rank(current):
                    merged.bug_owner[signature] = claim
            for key, count in sorted(log.mutations.items()):
                merged.mutations[key] = merged.mutations.get(key, 0) + count
            for key, count in sorted(log.gainful.items()):
                merged.gainful[key] = merged.gainful.get(key, 0) + count
        return merged

    # ----- checkpointing / canonical export -----

    def state_dict(self) -> dict:
        """JSON-ready canonical snapshot (sorted, no process state)."""
        return {
            "records": [
                self.records[entry_id].to_dict()
                for entry_id in sorted(self.records)
            ],
            "edges": {
                key: self.edge_owner[key]
                for key in sorted(self.edge_owner)
            },
            "bugs": {
                signature: self.bug_owner[signature]
                for signature in sorted(self.bug_owner)
            },
            "mutations": {
                key: self.mutations[key] for key in sorted(self.mutations)
            },
            "gainful": {
                key: self.gainful[key] for key in sorted(self.gainful)
            },
        }

    def restore(self, state: dict) -> None:
        self.records = {}
        for payload in state["records"]:
            rec = LineageRecord.from_dict(payload)
            self.records[rec.entry_id] = rec
        self.edge_owner = {
            str(key): str(owner) for key, owner in state["edges"].items()
        }
        self.bug_owner = {
            str(key): str(owner) for key, owner in state["bugs"].items()
        }
        self.mutations = {
            str(key): int(count)
            for key, count in state["mutations"].items()
        }
        self.gainful = {
            str(key): int(count)
            for key, count in state["gainful"].items()
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProvenanceLog):
            return NotImplemented
        return self.state_dict() == other.state_dict()
