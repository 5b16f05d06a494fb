"""Tests for corpus, fuzz loop, and crash triage."""

import pytest

from repro.errors import CampaignError
from repro.fuzzer import (
    Corpus,
    CrashTriage,
    FuzzLoop,
    MutationEngine,
    SyzkallerLocalizer,
)
from repro.fuzzer.crash import categorize_description
from repro.fuzzer.engine import TypeSelector
from repro.kernel import CrashKind, Executor
from repro.kernel.coverage import Coverage
from repro.rng import make_rng
from repro.syzlang import ProgramGenerator
from repro.vclock import CostModel, VirtualClock


def build_loop(kernel, seed=0, horizon=600.0):
    rng = make_rng(seed)
    generator = ProgramGenerator(kernel.table, rng)
    executor = Executor(kernel)
    engine = MutationEngine(
        TypeSelector(), SyzkallerLocalizer(k=1), generator, make_rng(seed + 1)
    )
    known = {bug.description() for bug in kernel.bugs if bug.known}
    triage = CrashTriage(executor, known)
    loop = FuzzLoop(
        kernel, engine, executor, triage,
        VirtualClock(horizon=horizon), CostModel(), make_rng(seed + 2),
        sample_interval=60.0,
    )
    return loop, generator


class TestCorpus:
    def test_choose_from_empty_raises(self):
        with pytest.raises(IndexError):
            Corpus().choose(make_rng(0))

    def test_add_shares_program(self, generator):
        """Programs are values: the corpus keeps the program it is given
        (no defensive copy) and copies only the coverage."""
        corpus = Corpus()
        program = generator.random_program()
        coverage = Coverage.from_traces([[1, 2]])
        entry = corpus.add(program, coverage, signal=3)
        assert entry.program is program
        assert entry.coverage == coverage
        assert entry.coverage is not coverage

    def test_signal_weighting(self):
        corpus = Corpus()
        from repro.syzlang.program import Program

        corpus.add(Program(), Coverage(), signal=0)
        corpus.add(Program(), Coverage(), signal=100)
        rng = make_rng(1)
        picks = [corpus.choose(rng) for _ in range(300)]
        high = sum(1 for entry in picks if entry.signal == 100)
        assert high > 200

    def test_picked_counter_increments(self):
        corpus = Corpus()
        from repro.syzlang.program import Program

        corpus.add(Program(), Coverage(), signal=1)
        rng = make_rng(2)
        for _ in range(5):
            corpus.choose(rng)
        assert corpus.entries[0].picked == 5


class TestFuzzLoop:
    def test_run_without_seed_raises(self, kernel):
        loop, _ = build_loop(kernel)
        with pytest.raises(CampaignError):
            loop.run()

    def test_seed_empty_raises(self, kernel):
        loop, _ = build_loop(kernel)
        with pytest.raises(CampaignError):
            loop.seed([])

    def test_coverage_monotone(self, kernel):
        loop, generator = build_loop(kernel, horizon=900.0)
        loop.seed(generator.seed_corpus(10))
        stats = loop.run()
        edges = [obs.edges for obs in stats.observations]
        assert edges == sorted(edges)
        assert stats.final_edges >= edges[0]

    def test_respects_horizon(self, kernel):
        loop, generator = build_loop(kernel, horizon=300.0)
        loop.seed(generator.seed_corpus(5))
        loop.run()
        # Clock may overshoot by at most one iteration's costs.
        assert loop.clock.now < 300.0 + 50.0

    def test_mutation_counters(self, kernel):
        loop, generator = build_loop(kernel, horizon=600.0)
        loop.seed(generator.seed_corpus(5))
        stats = loop.run()
        assert sum(stats.mutations.values()) > 0
        assert stats.executions > 0

    def test_corpus_grows_with_coverage(self, kernel):
        loop, generator = build_loop(kernel, horizon=1800.0)
        loop.seed(generator.seed_corpus(10))
        stats = loop.run()
        assert stats.corpus_size > 10

    def test_time_to_edges(self, kernel):
        loop, generator = build_loop(kernel, horizon=900.0)
        loop.seed(generator.seed_corpus(10))
        stats = loop.run()
        first = stats.observations[0]
        assert stats.time_to_edges(first.edges) == first.time
        assert stats.time_to_edges(10**9) is None


class TestCrashTriage:
    def test_categorize(self):
        cases = {
            "KASAN: slab-out-of-bounds Write in x": CrashKind.OOB,
            "BUG: kernel NULL pointer dereference in x": CrashKind.NULL_DEREF,
            "BUG: unable to handle page fault for address in x": CrashKind.PAGING_FAULT,
            "kernel BUG at fs/ext4/inode.c!": CrashKind.ASSERT,
            "general protection fault in x": CrashKind.GPF,
            "WARNING in ext4_iomap_begin": CrashKind.WARNING,
            "unregister_netdevice: waiting for lo": CrashKind.OTHER,
        }
        for description, expected in cases.items():
            assert categorize_description(description) is expected

    def test_filters_noisy_markers(self, kernel, executor, generator):
        from repro.kernel.bugs import Bug, CrashReport

        triage = CrashTriage(executor, set())
        bug = Bug("x", CrashKind.OTHER, "fs", "f", depth=1)
        program = generator.random_program()
        report = CrashReport(bug, 0, "INFO: task hung in x")
        assert triage.observe(program, report) is None
        report = CrashReport(bug, 0, "SYZFAIL: something")
        assert triage.observe(program, report) is None

    def test_dedup_by_signature(self, kernel, executor, generator):
        from repro.kernel.bugs import Bug, CrashReport

        triage = CrashTriage(executor, set())
        bug = Bug("x", CrashKind.GPF, "fs", "f", depth=1)
        program = generator.random_program()
        report = CrashReport(bug, 0, "general protection fault in f")
        assert triage.observe(program, report) is not None
        assert triage.observe(program, report) is None
        assert len(triage.crashes) == 1

    def test_known_vs_new(self, kernel, executor, generator):
        from repro.kernel.bugs import Bug, CrashReport

        known = {"general protection fault in old"}
        triage = CrashTriage(executor, known)
        bug = Bug("x", CrashKind.GPF, "fs", "old", depth=1)
        program = generator.random_program()
        old = triage.observe(
            program, CrashReport(bug, 0, "general protection fault in old")
        )
        new = triage.observe(
            program, CrashReport(bug, 0, "general protection fault in new")
        )
        assert not old.is_new
        assert new.is_new


class TestReproduction:
    def _ata_crash(self, kernel, executor):
        """Craft the ATA crash and triage it."""
        from tests.test_kernel_executor import TestAtaBug

        program = TestAtaBug()._ata_program(kernel)
        result = executor.run(program)
        assert result.crashed
        triage = CrashTriage(executor, set())
        return triage, triage.observe(program, result.crash)

    def test_deterministic_crash_reproduces(self, kernel, executor):
        triage, crash = self._ata_crash(kernel, executor)
        reproducer = triage.reproduce(crash)
        assert reproducer is not None
        assert crash.has_reproducer

    def test_minimizer_shrinks(self, kernel, executor, generator):
        from tests.test_kernel_executor import TestAtaBug

        program = TestAtaBug()._ata_program(kernel)
        # Pad with irrelevant calls; the minimizer must strip them.
        padded = generator.random_program(length=3)
        for call in program.calls:
            padded.calls.append(call.clone())
        # Fix the resource reference of the appended ioctl call.
        offset = len(padded.calls) - 2
        padded.calls[-1].args[0].producer = offset
        result = executor.run(padded)
        if not result.crashed:
            pytest.skip("padding perturbed the crash setup")
        triage = CrashTriage(executor, set())
        crash = triage.observe(padded, result.crash)
        reproducer = triage.reproduce(crash)
        assert reproducer is not None
        assert len(reproducer) <= 2

    def test_reproducer_still_crashes(self, kernel, executor):
        triage, crash = self._ata_crash(kernel, executor)
        reproducer = triage.reproduce(crash)
        result = executor.run(reproducer)
        assert result.crashed
        assert result.crash.bug.bug_id == crash.bug_id
