"""The corpus of interesting tests and its scheduling policy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernel.coverage import Coverage
from repro.syzlang.program import Program

__all__ = ["Corpus", "CorpusEntry"]


@dataclass
class CorpusEntry:
    """One corpus test with its (deterministic) coverage."""

    program: Program
    coverage: Coverage
    # How much new coverage this test contributed when admitted; used as
    # a scheduling prior (Syzkaller's "signal" notion).
    signal: int = 0
    # How many times this entry has been chosen as a mutation base.
    picked: int = 0
    # Comparison operands observed when this test executed (KCOV_CMP
    # feedback), fed to the instantiator's hint strategy.
    hints: frozenset[int] = frozenset()
    # Provenance record stamped at mutation time (a
    # repro.observe.provenance.LineageRecord); None when lineage
    # tracking is off for this loop.
    lineage: "object | None" = None


@dataclass
class Corpus:
    """Corpus with signal-weighted test selection.

    Selection favours tests that contributed more new edges and have been
    mutated less, approximating Syzkaller's prioritisation without its
    full bookkeeping.
    """

    entries: list[CorpusEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def add(
        self,
        program: Program,
        coverage: Coverage,
        signal: int,
        hints: frozenset[int] = frozenset(),
        lineage=None,
    ) -> CorpusEntry:
        """Admit a test with its coverage and KCOV_CMP hints.

        The program is stored as is, not copied: programs are values
        (see :class:`~repro.syzlang.program.Program`).
        """
        entry = CorpusEntry(
            program=program, coverage=coverage.copy(),
            signal=signal, hints=hints, lineage=lineage,
        )
        self.entries.append(entry)
        return entry

    def choose(self, rng: np.random.Generator) -> CorpusEntry:
        """Pick a base test to mutate (Figure 1's ``choose_test``)."""
        if not self.entries:
            raise IndexError("cannot choose from an empty corpus")
        weights = np.array(
            [
                (1.0 + entry.signal) / (1.0 + 0.05 * entry.picked)
                for entry in self.entries
            ],
            dtype=float,
        )
        weights /= weights.sum()
        entry = self.entries[int(rng.choice(len(self.entries), p=weights))]
        entry.picked += 1
        return entry
