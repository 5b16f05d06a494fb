"""Programs are values: structural clones, and no aliasing bugs.

``Program.clone`` shares the frozen types and specs and copies only the
value tree, and the corpus, hubs, crash triage and inference tier hold
programs without defensive copies.  These tests pin both halves: a
clone is indistinguishable from a deep copy, and mutating a derived
program never changes its parent or any corpus or hub entry.
"""

import copy

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterConfig
from repro.fuzzer import MutationEngine, SyzkallerLocalizer
from repro.fuzzer.engine import TypeSelector
from repro.observe.provenance import entry_id_for
from repro.rng import make_rng
from repro.snowplow import CampaignConfig, build_cluster, build_fuzz_loop
from repro.syzlang import ProgramGenerator, serialize_program

_PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _program(seed, table):
    return ProgramGenerator(table, make_rng(seed)).random_program()


class TestStructuralClone:
    @_PROPERTY
    @given(seed=st.integers(0, 50_000))
    def test_clone_equals_deepcopy(self, table, seed):
        program = _program(seed, table)
        assert program.clone() == copy.deepcopy(program) == program

    @_PROPERTY
    @given(seed=st.integers(0, 50_000))
    def test_clone_shares_types_and_specs_only(self, table, seed):
        program = _program(seed, table)
        clone = program.clone()
        for original, copied in zip(program.calls, clone.calls):
            assert copied is not original
            assert copied.spec is original.spec
            assert copied.args is not original.args
        for (path, value), (clone_path, clone_value) in zip(
            program.walk(), clone.walk()
        ):
            assert clone_path == path
            assert clone_value is not value
            assert clone_value.ty is value.ty

    @_PROPERTY
    @given(seed=st.integers(0, 50_000), mutations=st.integers(1, 8))
    def test_mutating_a_derived_program_never_changes_its_ancestors(
        self, table, seed, mutations
    ):
        """Property: every program in a mutation family keeps the exact
        content it had when it was created, however often it or its
        descendants are used as a base."""
        rng = make_rng(seed)
        generator = ProgramGenerator(table, rng)
        engine = MutationEngine(
            TypeSelector(), SyzkallerLocalizer(k=3), generator, rng
        )
        family = [generator.random_program()]
        snapshots = [serialize_program(family[0])]
        for _ in range(mutations):
            parent = family[int(rng.integers(len(family)))]
            if rng.random() < 0.5:
                outcome = engine.mutate_test(parent, hints=frozenset({0, 64}))
            else:
                outcome = engine.mutate_test(
                    parent, forced_paths=parent.mutation_sites()[:4]
                )
            family.append(outcome.program)
            snapshots.append(serialize_program(outcome.program))
        assert [serialize_program(program) for program in family] == snapshots


def _assert_entries_unchanged(entries):
    """Each entry still hashes to the content address stamped into its
    lineage record when it was admitted."""
    checked = 0
    for entry in entries:
        if entry.lineage is None:
            continue
        assert entry_id_for(entry.program, entry.coverage) == (
            entry.lineage.entry_id
        )
        checked += 1
    return checked


class TestSharedPrograms:
    def test_loop_corpus_and_crashes_keep_admission_content(self, kernel):
        config = CampaignConfig(
            horizon=1800.0, runs=1, seed=5, seed_corpus_size=8,
            sample_interval=300.0,
        )
        loop = build_fuzz_loop(kernel, None, 11, config, oracle=True)
        triaged = {}
        observe = loop.triage.observe

        def recording_observe(program, report):
            crash = observe(program, report)
            if crash is not None:
                triaged[crash.signature] = serialize_program(program)
            return crash

        loop.triage.observe = recording_observe
        stats = loop.run()
        assert len(loop.corpus) > config.seed_corpus_size
        assert _assert_entries_unchanged(loop.corpus.entries) == len(
            loop.corpus
        )
        for crash in stats.crashes:
            assert serialize_program(crash.crashing_program) == (
                triaged[crash.signature]
            )

    def test_cluster_hub_and_worker_entries_keep_content(self, kernel):
        config = CampaignConfig(
            horizon=2400.0, runs=1, seed=11, seed_corpus_size=8,
            sample_interval=300.0,
        )
        for shards in (1, 2):
            cluster = build_cluster(
                kernel, None, 23, config,
                cluster_config=ClusterConfig(
                    workers=2, sync_interval=300.0, shards=shards,
                ),
                oracle=True,
            )
            result = cluster.run()
            assert result.merged.hub_pulled > 0
            assert _assert_entries_unchanged(cluster.hub.entries) > 0
            for worker in cluster.workers:
                assert _assert_entries_unchanged(worker.loop.corpus.entries)
