"""Tests for the Snowplow hybrid loop and campaign harness.

These use a tiny trained model (session fixture) so they exercise the
real plumbing end to end at unit-test cost.
"""

import numpy as np
import pytest

from repro.pmm import DatasetConfig, PMMConfig, TrainConfig
from repro.rng import derive_seed, split
from repro.snowplow import (
    CampaignConfig,
    SnowplowConfig,
    format_fig6,
    format_table1,
    format_table2,
    format_table3,
    format_table5,
    run_coverage_campaign,
    run_crash_campaign,
    run_directed_campaign,
    train_pmm,
)
from repro.snowplow.fuzzer import MAX_TARGETS
from repro.snowplow.campaign import (
    build_loop,
    default_directed_targets,
    known_crash_signatures,
)
from repro.syzlang import ProgramGenerator
from repro.vclock import CostModel


@pytest.fixture(scope="session")
def trained(kernel):
    return train_pmm(
        kernel,
        seed=0,
        corpus_size=25,
        dataset_config=DatasetConfig(mutations_per_test=30, seed=3),
        pmm_config=PMMConfig(
            dim=16, gnn_layers=2, asm_layers=1, asm_heads=2, seed=5
        ),
        train_config=TrainConfig(
            epochs=1, batch_size=8, max_examples_per_epoch=120,
            max_validation_examples=30,
        ),
    )


@pytest.fixture()
def tiny_config():
    return CampaignConfig(
        horizon=1800.0, runs=1, seed=11, seed_corpus_size=12,
        sample_interval=300.0,
    )


class TestTrainPmm:
    def test_returns_trained_bundle(self, trained):
        assert trained.model is not None
        assert trained.validation is not None
        assert 0.0 <= trained.validation.f1 <= 1.0
        assert trained.dataset.train

    def test_known_signatures(self, kernel):
        signatures = known_crash_signatures(kernel)
        assert signatures
        assert all(isinstance(s, str) for s in signatures)


class TestSnowplowLoop:
    def test_runs_and_uses_inference(self, kernel, trained, tiny_config):
        run_seed = derive_seed(tiny_config.seed, "t", 0)
        loop = build_loop(kernel, trained, run_seed, tiny_config)
        seeds = ProgramGenerator(
            kernel.table, split(run_seed, "s")
        ).seed_corpus(10)
        loop.seed(seeds)
        stats = loop.run()
        assert stats.executions > 0
        assert loop.service.stats.submitted > 0
        assert loop.service.stats.completed > 0

    def test_stale_bursts_dropped(self, kernel, trained, tiny_config):
        from repro.snowplow.fuzzer import _Burst

        run_seed = derive_seed(tiny_config.seed, "t", 1)
        loop = build_loop(kernel, trained, run_seed, tiny_config)
        seeds = ProgramGenerator(
            kernel.table, split(run_seed, "s")
        ).seed_corpus(5)
        loop.seed(seeds)
        program = loop.corpus.entries[0].program
        covered_block = next(iter(loop.accumulated.blocks))
        loop._bursts.append(
            _Burst(program=program, paths=[], remaining=4,
                   targets={covered_block})
        )
        assert loop._next_live_burst() is None
        assert not loop._bursts

    def test_live_burst_kept(self, kernel, trained, tiny_config):
        from repro.snowplow.fuzzer import _Burst

        run_seed = derive_seed(tiny_config.seed, "t", 2)
        loop = build_loop(kernel, trained, run_seed, tiny_config)
        seeds = ProgramGenerator(
            kernel.table, split(run_seed, "s")
        ).seed_corpus(5)
        loop.seed(seeds)
        uncovered = next(
            block for block in kernel.blocks
            if block not in loop.accumulated.blocks
        )
        burst = _Burst(
            program=loop.corpus.entries[0].program, paths=[], remaining=4,
            targets={uncovered},
        )
        loop._bursts.append(burst)
        assert loop._next_live_burst() is burst

    def test_query_targets_fresh_only(self, kernel, trained, tiny_config):
        run_seed = derive_seed(tiny_config.seed, "t", 3)
        loop = build_loop(kernel, trained, run_seed, tiny_config)
        seeds = ProgramGenerator(
            kernel.table, split(run_seed, "s")
        ).seed_corpus(8)
        loop.seed(seeds)
        entry = loop.corpus.entries[0]
        targets = loop._query_targets(entry.coverage)
        if targets is not None:
            assert not (targets & loop.accumulated.blocks)
            assert len(targets) <= MAX_TARGETS

    def test_blocking_inference_slows_loop(self, kernel, trained):
        """Ablation: charging inference latency on the loop must reduce
        executions for the same horizon."""
        results = {}
        for label, cost in (
            ("async", CostModel()),
            ("blocking", CostModel().blocking_inference()),
        ):
            config = CampaignConfig(
                horizon=1200.0, runs=1, seed=13, seed_corpus_size=8,
                sample_interval=300.0, cost=cost,
            )
            run_seed = derive_seed(17, label)
            loop = build_loop(kernel, trained, run_seed, config)
            seeds = ProgramGenerator(
                kernel.table, split(run_seed, "s")
            ).seed_corpus(8)
            loop.seed(seeds)
            results[label] = loop.run().executions
        assert results["blocking"] < results["async"]


class TestCampaigns:
    def test_coverage_campaign_shapes(self, kernel, trained, tiny_config):
        result = run_coverage_campaign(kernel, trained, tiny_config)
        assert len(result.syzkaller_runs) == 1
        assert len(result.snowplow_runs) == 1
        assert result.syzkaller_final_mean > 0
        assert np.isfinite(result.coverage_improvement)
        text = format_fig6([result])
        assert "Snowplow" in text and "Syzkaller" in text

    def test_crash_campaign_tables(self, kernel, trained, tiny_config):
        result = run_crash_campaign(
            kernel, trained, tiny_config, reproduce=False
        )
        rows = result.table2_rows()
        assert len(rows["snowplow_new"]) == 1
        table = format_table2(result)
        assert "New Crashes" in table
        table3 = format_table3(result.unique_new_crashes())
        assert "Total" in table3

    def test_directed_campaign(self, kernel, trained):
        config = CampaignConfig(
            horizon=900.0, runs=1, seed=5, seed_corpus_size=8,
        )
        targets = default_directed_targets(kernel, count=2)
        results = run_directed_campaign(kernel, trained, targets, config)
        assert set(results) == set(targets)
        for modes in results.values():
            assert set(modes) == {"syzdirect", "snowplow_d"}
        table = format_table5(results, kernel.version)
        assert "SyzDirect" in table

    def test_directed_targets_mix(self, kernel):
        targets = default_directed_targets(kernel, count=6)
        assert len(targets) == 6
        assert len(set(targets)) == 6
        assert all(t in kernel.blocks for t in targets)

    def test_table1_format(self, trained):
        from repro.pmm.metrics import evaluate_selector

        baseline = evaluate_selector([{1}], [{2}])
        text = format_table1(trained.validation, baseline, "Rand.8")
        assert "PMModel" in text and "Rand.8" in text
