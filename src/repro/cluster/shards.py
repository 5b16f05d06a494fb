"""A sharded, partition-tolerant corpus hub.

syz-hub is a single process; at fleet scale its dedup table and corpus
store become both a throughput bottleneck and a single point of failure.
:class:`ShardedHub` splits the hub by **coverage-signature range**: each
entry's signature hashes to a 64-bit key, and shard ``i`` owns the
``i``-th equal slice of the key space.  Three mechanisms ride on top:

- **Bloom pre-dedup** — each shard keeps a small deterministic bloom
  filter over its signatures; a definitely-new signature skips the full
  set compare (counted as ``hub.bloom_skips``).  False positives fall
  through to the exact check, so dedup decisions are identical to the
  unsharded hub's.
- **Epoch-based replication** — at the start of every push round, each
  live shard's replica watermark advances to the hub epoch: everything
  accepted in *prior* rounds is replicated.  Only the current round's
  tail is vulnerable to shard loss.
- **Failover and reconciliation** — :meth:`fail_shard` drops the dead
  shard's unreplicated tail from the serving store (its replicated
  prefix keeps being served, i.e. the replica covers the range) and
  parks the tail in a backlog; :meth:`recover_shard` merges the backlog
  back, re-admitting entries the fleet did not rediscover during the
  outage, under fresh epochs so later pulls propagate them.  The
  coverage timeline reports the high-water union, which stays monotone
  through failover; a campaign that recovers every failed shard before
  finalizing loses no entries (``peak == final``).

The hub's mutable state (including shard watermarks, failed set, and
backlog) is checkpointable via ``state_dict``/``restore``, so a resumed
campaign replays failover decisions bit-identically.
"""

from __future__ import annotations

from hashlib import blake2b

from repro.errors import CheckpointError
from repro.fuzzer.loop import FuzzObservation
from repro.kernel.coverage import Coverage
from repro.observe import MetricsRegistry
from repro.observe.provenance import UNION

from .hub import CorpusHub, HubEntry

__all__ = ["BloomFilter", "ShardedHub", "signature_digest"]


def signature_digest(signature) -> int:
    """A stable 64-bit key for a coverage signature (edge frozenset)."""
    payload = ";".join(f"{src},{dst}" for src, dst in sorted(signature))
    raw = blake2b(payload.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(raw, "big")


# Bloom filter shape: bit count, and hash count (one 16-bit slice of the
# 64-bit digest each, so at most four).
BLOOM_BITS = 4096
BLOOM_HASHES = 3


class BloomFilter:
    """A tiny deterministic bloom filter over signature digests.

    Positions derive from disjoint 16-bit slices of the 64-bit digest,
    so membership is a pure function of the signature — no randomized
    hashing, hence bit-identical across runs and after rebuilds.  The
    filter is never serialized: restores and failovers rebuild it from
    the surviving signatures.
    """

    def __init__(self):
        self._mask = 0

    def _positions(self, digest: int):
        for i in range(BLOOM_HASHES):
            yield (digest >> (16 * i)) % BLOOM_BITS

    def add(self, digest: int) -> None:
        for position in self._positions(digest):
            self._mask |= 1 << position

    def might_contain(self, digest: int) -> bool:
        return all(
            self._mask >> position & 1 for position in self._positions(digest)
        )


class ShardedHub(CorpusHub):
    """A :class:`CorpusHub` split by coverage-signature range.

    Drop-in for ``CorpusHub``: the sync protocol (push/pull/epochs) and
    dedup decisions are identical in fault-free runs; sharding only
    changes *where* signatures live and what a shard loss can take out.
    """

    def __init__(self, shards: int = 4, registry: MetricsRegistry | None = None):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        super().__init__(registry=registry)
        self.shards = shards
        self._shard_signatures: list[set[frozenset]] = [
            set() for _ in range(shards)
        ]
        self._blooms = [BloomFilter() for _ in range(shards)]
        # Highest epoch each shard's replica is known to hold.
        self._replica_epoch = [0] * shards
        self._failed: set[int] = set()
        # Unreplicated tails parked at failover, keyed by shard.
        self._backlog: dict[int, list[HubEntry]] = {}
        # epoch -> shard for entries in the serving store.
        self._entry_shard: dict[int, int] = {}
        # High-water union sizes; the timeline reports these so the
        # cluster coverage curve stays monotone through failover.
        self._peak_edges = 0
        self._peak_blocks = 0

    # ----- placement -----

    def shard_of(self, signature) -> int:
        """The shard owning ``signature``'s slice of the key range."""
        return signature_digest(signature) * self.shards >> 64

    def alive_shards(self) -> int:
        return self.shards - len(self._failed)

    @property
    def failed_shards(self) -> frozenset:
        return frozenset(self._failed)

    def outstanding_lost_entries(self) -> int:
        """Entries parked in failover backlogs, awaiting reconciliation."""
        return sum(len(tail) for tail in self._backlog.values())

    # ----- the sync protocol -----

    def push(self, worker_id: int, entries, now: float) -> int:
        # Replication round: everything accepted before this push has
        # reached the live shards' replicas by now.
        for shard in range(self.shards):
            if shard not in self._failed:
                self._replica_epoch[shard] = self.epoch
        accepted = 0
        for entry in entries:
            self.stats.pushes += 1
            signature = frozenset(entry.coverage.edges)
            lineage = getattr(entry, "lineage", None)
            digest = signature_digest(signature)
            shard = digest * self.shards >> 64
            if not self._blooms[shard].might_contain(digest):
                # Bloom says definitely-new: skip the exact compare.
                self.stats.bloom_skips += 1
                seen = False
            else:
                seen = signature in self._shard_signatures[shard]
            if seen or not entry.coverage.new_edges(self.coverage):
                self.stats.duplicates += 1
                self._subsume(lineage, signature)
                continue
            if lineage is not None:
                lineage = self.provenance.record(lineage)
            self._admit(
                HubEntry(
                    program=entry.program,
                    coverage=entry.coverage.copy(),
                    signal=entry.signal,
                    hints=frozenset(entry.hints),
                    origin=worker_id,
                    epoch=0,
                    lineage=lineage,
                ),
                shard,
                signature,
                digest,
                now,
            )
            accepted += 1
            self.stats.accepted += 1
        return accepted

    def _admit(
        self,
        entry: HubEntry,
        shard: int,
        signature: frozenset,
        digest: int,
        now: float,
    ) -> None:
        self.epoch += 1
        entry.epoch = self.epoch
        self.entries.append(entry)
        self._signatures.add(signature)
        if entry.lineage is not None:
            self._signature_owner[signature] = entry.lineage.entry_id
        self._shard_signatures[shard].add(signature)
        self._blooms[shard].add(digest)
        self._entry_shard[entry.epoch] = shard
        self.coverage.merge(entry.coverage)
        self._peak_edges = max(self._peak_edges, len(self.coverage.edges))
        self._peak_blocks = max(self._peak_blocks, len(self.coverage.blocks))
        self.timeline.append(
            FuzzObservation(
                time=now,
                edges=self._peak_edges,
                blocks=self._peak_blocks,
                executions=0,
            )
        )

    # ----- failover -----

    def fail_shard(self, shard: int, now: float) -> int:
        """Lose ``shard``: serve its range from the replica.

        The replicated prefix of the shard's entries stays available;
        the unreplicated tail (entries accepted after the shard's
        replica watermark) is parked in a backlog until recovery.
        Returns how many entries the failover parked.
        """
        if not 0 <= shard < self.shards:
            raise ValueError(f"no such shard {shard}")
        if shard in self._failed:
            return 0
        self._failed.add(shard)
        watermark = self._replica_epoch[shard]
        lost = [
            entry for entry in self.entries
            if self._entry_shard[entry.epoch] == shard
            and entry.epoch > watermark
        ]
        if lost:
            lost_epochs = {entry.epoch for entry in lost}
            self.entries = [
                entry for entry in self.entries
                if entry.epoch not in lost_epochs
            ]
            for entry in lost:
                signature = frozenset(entry.coverage.edges)
                self._signatures.discard(signature)
                self._signature_owner.pop(signature, None)
                self._shard_signatures[shard].discard(signature)
                del self._entry_shard[entry.epoch]
            self._rebuild_bloom(shard)
            self._recompute_union()
        self._backlog[shard] = lost
        self.stats.lost_entries += len(lost)
        self.stats.failovers += 1
        return len(lost)

    def recover_shard(self, shard: int, now: float) -> int:
        """Bring ``shard`` back and reconcile its diverged tail.

        Backlog entries the fleet rediscovered during the outage are
        dropped as subsumed; the rest are re-admitted under fresh epochs
        so subsequent pulls propagate them fleet-wide.  Returns how many
        entries were re-admitted.
        """
        if shard not in self._failed:
            return 0
        self._failed.discard(shard)
        readmitted = 0
        for entry in self._backlog.pop(shard, []):
            signature = frozenset(entry.coverage.edges)
            if (
                signature in self._shard_signatures[shard]
                or not entry.coverage.new_edges(self.coverage)
            ):
                # Rediscovered during the outage: the backlog entry is
                # subsumed, not silently gone.  (Not a push, so only the
                # subsumption is booked — no pushes/duplicates bump.)
                self.stats.subsumed_entries += 1
                if entry.lineage is not None:
                    owner = self._signature_owner.get(signature)
                    self.provenance.record(entry.lineage)
                    self.provenance.supersede(
                        entry.lineage.entry_id,
                        owner if owner is not None else UNION,
                    )
                continue
            self._admit(
                entry, shard, signature, signature_digest(signature), now
            )
            readmitted += 1
        self.stats.reconciled += readmitted
        self._replica_epoch[shard] = self.epoch
        return readmitted

    def recover_all(self, now: float) -> int:
        """Recover every failed shard (campaign teardown path)."""
        return sum(
            self.recover_shard(shard, now) for shard in sorted(self._failed)
        )

    def _rebuild_bloom(self, shard: int) -> None:
        bloom = BloomFilter()
        for signature in self._shard_signatures[shard]:
            bloom.add(signature_digest(signature))
        self._blooms[shard] = bloom

    def _recompute_union(self) -> None:
        coverage = Coverage()
        for entry in self.entries:
            coverage.merge(entry.coverage)
        self.coverage = coverage

    # ----- checkpointing -----

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["shards"] = self.shards
        state["replica_epoch"] = list(self._replica_epoch)
        state["failed"] = sorted(self._failed)
        state["backlog"] = {
            str(shard): [entry.state_dict() for entry in tail]
            for shard, tail in sorted(self._backlog.items())
        }
        state["peak_edges"] = self._peak_edges
        state["peak_blocks"] = self._peak_blocks
        return state

    def restore(self, state: dict, table) -> None:
        if int(state.get("shards", 1)) != self.shards:
            raise CheckpointError(
                f"checkpoint has {state.get('shards')} hub shards, "
                f"cluster was built with {self.shards}"
            )
        super().restore(state, table)
        self._shard_signatures = [set() for _ in range(self.shards)]
        self._entry_shard = {}
        for entry in self.entries:
            signature = frozenset(entry.coverage.edges)
            shard = self.shard_of(signature)
            self._shard_signatures[shard].add(signature)
            self._entry_shard[entry.epoch] = shard
        for shard in range(self.shards):
            self._rebuild_bloom(shard)
        self._replica_epoch = [int(mark) for mark in state["replica_epoch"]]
        self._failed = set(int(shard) for shard in state["failed"])
        self._backlog = {
            int(shard): [
                HubEntry.from_state(entry_state, table, self.provenance)
                for entry_state in tail
            ]
            for shard, tail in state["backlog"].items()
        }
        self._peak_edges = int(state["peak_edges"])
        self._peak_blocks = int(state["peak_blocks"])
