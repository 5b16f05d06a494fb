"""Crash triage, deduplication, reproduction, and categorisation.

Implements the §5.3.2 pipeline: noisy crash classes are filtered out,
crashes are deduplicated by description, checked against the known
(Syzbot) backlog, and replayed in bug-reproduction mode where a
syz-repro-style minimiser tries to distil a hermetic reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.bugs import CrashKind, CrashReport
from repro.kernel.executor import Executor
from repro.syzlang.program import Program

__all__ = ["CrashTriage", "TriagedCrash", "categorize_description"]

# §5.3.2: crashes matching these markers are "usually less severe or too
# ambiguous to locate the error" and are dropped before analysis.
_FILTERED_MARKERS = ("INFO:", "SYZFAIL", "lost connection to the VM")

_REPRO_ATTEMPTS = 3


def categorize_description(description: str) -> CrashKind:
    """Map a crash headline to its Table 3 category."""
    lowered = description.lower()
    if "kasan" in lowered or "out-of-bounds" in lowered:
        return CrashKind.OOB
    if "null pointer" in lowered:
        return CrashKind.NULL_DEREF
    if "page fault" in lowered:
        return CrashKind.PAGING_FAULT
    if "kernel bug at" in lowered:
        return CrashKind.ASSERT
    if "general protection fault" in lowered:
        return CrashKind.GPF
    if "warning" in lowered:
        return CrashKind.WARNING
    return CrashKind.OTHER


@dataclass
class TriagedCrash:
    """One deduplicated crash after triage."""

    signature: str
    category: CrashKind
    is_new: bool
    crashing_program: Program
    reproducer: Program | None = None
    # Diagnostic back-pointer to the planted bug (not available to a real
    # fuzzer; used by the experiment harness to attribute crashes).
    bug_id: str = ""

    @property
    def has_reproducer(self) -> bool:
        """Whether syz-repro produced a minimised reproducer."""
        return self.reproducer is not None


class CrashTriage:
    """Stateful crash pipeline for one fuzzing campaign."""

    def __init__(self, executor: Executor, known_signatures: set[str]):
        self.executor = executor
        self.known_signatures = set(known_signatures)
        self._seen: dict[str, TriagedCrash] = {}

    @property
    def crashes(self) -> list[TriagedCrash]:
        """All deduplicated crashes observed so far."""
        return list(self._seen.values())

    def observe(
        self, program: Program, report: CrashReport
    ) -> TriagedCrash | None:
        """Process one raw crash; returns the triaged record when the
        crash survives filtering and is not a duplicate."""
        description = report.description
        if any(marker in description for marker in _FILTERED_MARKERS):
            return None
        if description in self._seen:
            return None
        crash = TriagedCrash(
            signature=description,
            category=categorize_description(description),
            is_new=description not in self.known_signatures,
            crashing_program=program,
            bug_id=report.bug.bug_id,
        )
        self._seen[description] = crash
        return crash

    # ----- reproduction (syz-repro) -----

    def reproduce(self, crash: TriagedCrash) -> Program | None:
        """Replay and minimise the crashing test.

        Returns the minimised reproducer, or None when the crash does not
        reproduce (e.g. concurrency-dependent bugs).  The result is also
        recorded on ``crash``.
        """
        program = crash.crashing_program
        if not self._replays(program, crash.bug_id):
            crash.reproducer = None
            return None
        minimized = self._minimize(program, crash.bug_id)
        crash.reproducer = minimized
        return minimized

    def _replays(self, program: Program, bug_id: str) -> bool:
        for _ in range(_REPRO_ATTEMPTS):
            result = self.executor.run(program)
            if result.crash is not None and result.crash.bug.bug_id == bug_id:
                return True
        return False

    def _minimize(self, program: Program, bug_id: str) -> Program:
        """Greedy call removal while the crash persists."""
        current = program
        index = len(current) - 1
        while index >= 0 and len(current) > 1:
            candidate = current.clone()
            candidate.remove_call(index)
            if self._replays(candidate, bug_id):
                current = candidate
            index -= 1
        return current
