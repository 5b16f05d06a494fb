"""Tests for adaptive burst scheduling and localizer caching."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graphs import AsmVocab, GraphEncoder, build_query_graph
from repro.nn.tensor import no_grad
from repro.pmm import PMM, DatasetConfig, PMMConfig, TrainConfig
from repro.rng import derive_seed, make_rng, split
from repro.snowplow import CampaignConfig, SnowplowConfig, train_pmm
from repro.snowplow.campaign import build_loop
from repro.snowplow.fuzzer import (
    BURST_SHARE,
    BURST_SHARE_FLOOR,
    BURST_YIELD_DECAY,
    PREDICTION_THRESHOLD,
    PMMLocalizer,
)
from repro.kernel import Executor, build_kernel
from repro.syzlang import ProgramGenerator


@pytest.fixture(scope="module")
def tiny_trained(kernel):
    return train_pmm(
        kernel,
        seed=1,
        corpus_size=20,
        dataset_config=DatasetConfig(mutations_per_test=25, seed=4),
        pmm_config=PMMConfig(dim=16, gnn_layers=1, asm_layers=1,
                             asm_heads=2, seed=6),
        train_config=TrainConfig(epochs=1, batch_size=8,
                                 max_examples_per_epoch=80,
                                 max_validation_examples=25),
    )


class TestAdaptiveBurstShare:
    def _loop(self, kernel, trained, **snowplow_kwargs):
        config = CampaignConfig(
            horizon=600.0, runs=1, seed=19, seed_corpus_size=8,
            sample_interval=300.0,
            snowplow=SnowplowConfig(**snowplow_kwargs),
        )
        run_seed = derive_seed(config.seed, "adaptive")
        loop = build_loop(kernel, trained, run_seed, config)
        seeds = ProgramGenerator(
            kernel.table, split(run_seed, "s")
        ).seed_corpus(8)
        loop.seed(seeds)
        return loop

    def test_share_rises_with_yield(self, kernel, tiny_trained):
        loop = self._loop(kernel, tiny_trained)
        loop._burst_yield = 0.5
        high = loop._effective_burst_share()
        loop._burst_yield = 0.0
        low = loop._effective_burst_share()
        assert high > low
        assert low == pytest.approx(BURST_SHARE_FLOOR)
        assert high <= BURST_SHARE

    def test_yield_ema_updates_on_burst_outcomes(self, kernel, tiny_trained):
        from repro.fuzzer.engine import MutationOutcome
        from repro.fuzzer.mutations import MutationType
        from repro.snowplow.fuzzer import _Burst

        loop = self._loop(kernel, tiny_trained)
        entry = loop.corpus.entries[0]
        outcome = MutationOutcome(
            entry.program.clone(), MutationType.ARGUMENT_MUTATION, []
        )
        before = loop._burst_yield
        edges_before = len(loop.accumulated.edges)
        loop._active_burst = _Burst(
            program=entry.program, paths=[], remaining=1, targets=set()
        )
        loop._run_candidate(entry, outcome)
        # The EMA took exactly one step toward whether the mutant found
        # new edges, and the active burst was consumed.
        produced = float(len(loop.accumulated.edges) > edges_before)
        decay = BURST_YIELD_DECAY
        assert loop._active_burst is None
        assert loop._burst_yield == decay * before + (1.0 - decay) * produced

    def test_non_burst_mutations_leave_ema_alone(self, kernel, tiny_trained):
        from repro.fuzzer.engine import MutationOutcome
        from repro.fuzzer.mutations import MutationType

        loop = self._loop(kernel, tiny_trained)
        entry = loop.corpus.entries[0]
        outcome = MutationOutcome(
            entry.program.clone(), MutationType.SYSCALL_REMOVAL, []
        )
        loop._active_burst = None
        before = loop._burst_yield
        loop._run_candidate(entry, outcome)
        assert loop._burst_yield == before


class TestLocalizerCache:
    def test_cache_hit_returns_same_paths(self, kernel, tiny_trained):
        executor = Executor(kernel)
        localizer = PMMLocalizer(
            tiny_trained.model, tiny_trained.encoder, kernel, executor
        )
        generator = ProgramGenerator(kernel.table, make_rng(0))
        program = generator.random_program()
        coverage = executor.run(program).coverage
        targets = set(list(kernel.frontier(coverage.blocks))[:3])
        rng = make_rng(1)
        first = localizer.localize(program, coverage, targets, rng)
        assert len(localizer._cache) == 1
        second = localizer.localize(program, coverage, targets, rng)
        assert first == second

    def test_cache_key_distinguishes_targets(self, kernel, tiny_trained):
        executor = Executor(kernel)
        localizer = PMMLocalizer(
            tiny_trained.model, tiny_trained.encoder, kernel, executor
        )
        generator = ProgramGenerator(kernel.table, make_rng(2))
        program = generator.random_program()
        coverage = executor.run(program).coverage
        frontier = sorted(kernel.frontier(coverage.blocks))
        # The seeded program is chosen so its frontier always has at
        # least two targets; a shrink here is a real regression, not a
        # reason to skip.
        assert len(frontier) >= 2
        rng = make_rng(3)
        localizer.localize(program, coverage, {frontier[0]}, rng)
        localizer.localize(program, coverage, {frontier[1]}, rng)
        assert len(localizer._cache) == 2

    def test_cache_bounded(self, kernel, tiny_trained):
        executor = Executor(kernel)
        localizer = PMMLocalizer(
            tiny_trained.model, tiny_trained.encoder, kernel, executor,
            cache_size=2,
        )
        generator = ProgramGenerator(kernel.table, make_rng(4))
        rng = make_rng(5)
        for _ in range(4):
            program = generator.random_program()
            coverage = executor.run(program).coverage
            targets = set(list(kernel.frontier(coverage.blocks))[:2])
            localizer.localize(program, coverage, targets, rng)
        assert len(localizer._cache) <= 2


@pytest.fixture(scope="module")
def tiny_68():
    return build_kernel("6.8", seed=1, size="tiny")


@pytest.fixture(scope="module", params=[16, 48], ids=["dim16", "dim48"])
def untrained(request, tiny_68):
    """An untrained PMM: equality of cached and plain encodings does
    not depend on what the weights are."""
    vocab = AsmVocab.build(tiny_68)
    encoder = GraphEncoder(vocab, tiny_68.table)
    model = PMM(
        len(vocab), encoder.num_syscalls,
        PMMConfig(dim=request.param, seed=7),
    )
    return model, encoder


class TestBlockEmbeddingCache:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seeds=st.lists(st.integers(0, 10_000), min_size=3, max_size=5),
        data=st.data(),
    )
    def test_cached_blocks_match_plain_forward(
        self, tiny_68, untrained, seeds, data
    ):
        """Queries through one localizer fill its block cache from
        several miss batches; every query's logits and predicted paths
        still equal the uncached model's, bit for bit."""
        model, encoder = untrained
        executor = Executor(tiny_68)
        localizer = PMMLocalizer(model, encoder, tiny_68, executor)
        for seed in seeds:
            program = ProgramGenerator(
                tiny_68.table, make_rng(seed)
            ).random_program()
            coverage = executor.run(program).coverage
            frontier = sorted(tiny_68.frontier(coverage.blocks))
            if not frontier:
                continue
            targets = set(data.draw(st.lists(
                st.sampled_from(frontier), min_size=1, max_size=8,
                unique=True,
            )))
            paths = localizer.localize(program, coverage, targets, make_rng(0))
            graph = build_query_graph(program, coverage, tiny_68, targets)
            if not graph.mutable_argument_nodes():
                continue
            encoded = encoder.encode(graph)
            with no_grad():
                cached = model.forward(encoded, localizer.encode_blocks)
                plain = model.forward(encoded)
            assert np.array_equal(cached.data, plain.data)
            assert paths == model.predict_paths(
                encoded, threshold=PREDICTION_THRESHOLD
            )
