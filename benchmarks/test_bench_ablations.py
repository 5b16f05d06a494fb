"""Design ablations called out in DESIGN.md.

- §3.1 target construction: the paper's noisy option (c) versus the
  rejected exact option (a);
- assembly-encoder masked-LM pretraining on versus off;
- the §3.4 fallback randomness (pure-PMM localization versus hybrid).
"""

import numpy as np

from benchmarks.conftest import write_metrics, write_result
from repro.graphs import AsmVocab, GraphEncoder
from repro.kernel import Executor
from repro.pmm import (
    PMM,
    PMMConfig,
    DatasetConfig,
    TrainConfig,
    Trainer,
    harvest_mutations,
    masked_lm_pretrain,
)
from repro.pmm.asm_encoder import AsmEncoder
from repro.pmm.pretrain import PretrainConfig
from repro.rng import make_rng
from repro.syzlang import ProgramGenerator

_SMALL_TRAIN = TrainConfig(
    epochs=2, batch_size=8, max_examples_per_epoch=300,
    max_validation_examples=60, seed=2,
)


def _dataset(kernel, strategy):
    generator = ProgramGenerator(kernel.table, make_rng(60))
    executor = Executor(kernel)
    corpus = generator.seed_corpus(50)
    return harvest_mutations(
        kernel, executor, generator, corpus,
        DatasetConfig(
            mutations_per_test=80, seed=6, target_strategy=strategy
        ),
    )


def _train(kernel, dataset, asm_encoder=None, seed=7):
    vocab = AsmVocab.build(kernel)
    encoder = GraphEncoder(vocab, kernel.table)
    model = PMM(
        len(vocab), encoder.num_syscalls,
        PMMConfig(dim=32, gnn_layers=2, asm_layers=1, seed=seed),
        asm_encoder=asm_encoder,
    )
    trainer = Trainer(model, dataset, kernel, encoder, _SMALL_TRAIN)
    trainer.train()
    holdout = (dataset.evaluation or dataset.validation)[:120]
    return trainer.evaluate(holdout)


def test_bench_ablation_target_noise(benchmark, kernel_68):
    """Option (c) noisy targets vs option (a) exact new coverage."""

    def run():
        noisy = _train(kernel_68, _dataset(kernel_68, "noisy"))
        exact = _train(kernel_68, _dataset(kernel_68, "exact"))
        return noisy, exact

    noisy, exact = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation: §3.1 target construction (held-out F1)",
        f"  noisy frontier sampling (option c, chosen): {noisy.f1:.3f}",
        f"  exact new coverage (option a, rejected):    {exact.f1:.3f}",
    ]
    write_result("ablation_target_noise.txt", "\n".join(lines))
    write_metrics("ablation_target_noise.json", {
        "ablation.f1.noisy": noisy.f1,
        "ablation.f1.exact": exact.f1,
    })
    # The paper argues (c) trains a more robust model; at minimum the
    # noisy variant must not be much worse.
    assert noisy.f1 > exact.f1 * 0.8


def test_bench_ablation_pretraining(benchmark, kernel_68):
    """BERT-style masked-LM pretraining of the assembly encoder."""

    def run():
        dataset = _dataset(kernel_68, "noisy")
        vocab = AsmVocab.build(kernel_68)
        scratch = _train(kernel_68, dataset, seed=8)
        pretrained_encoder = AsmEncoder(
            len(vocab), dim=32, heads=4, layers=1, rng=make_rng(9)
        )
        losses = masked_lm_pretrain(
            pretrained_encoder, kernel_68, vocab,
            PretrainConfig(steps=80, batch_size=32, seed=10),
        )
        warm = _train(kernel_68, dataset, asm_encoder=pretrained_encoder,
                      seed=8)
        return scratch, warm, losses

    scratch, warm, losses = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation: assembly-encoder masked-LM pretraining",
        f"  MLM loss {losses[0]:.2f} -> {losses[-1]:.2f} over "
        f"{len(losses)} steps",
        f"  F1 from scratch:    {scratch.f1:.3f}",
        f"  F1 with pretraining: {warm.f1:.3f}",
    ]
    write_result("ablation_pretraining.txt", "\n".join(lines))
    write_metrics("ablation_pretraining.json", {
        "ablation.mlm_loss.first": losses[0],
        "ablation.mlm_loss.last": losses[-1],
        "ablation.f1.scratch": scratch.f1,
        "ablation.f1.pretrained": warm.f1,
    })
    assert losses[-1] < losses[0]  # the encoder does learn the corpus


def test_bench_ablation_fallback_probability(
    benchmark, kernel_68, trained_68
):
    """§3.4's fallback randomness: pure-PMM vs hybrid localization."""
    from repro.rng import derive_seed, split
    from repro.snowplow import CampaignConfig, SnowplowConfig
    from repro.snowplow.campaign import build_loop

    def run():
        results = {}
        for label, fallback in (("hybrid", 0.10), ("pure-pmm", 0.0)):
            config = CampaignConfig(
                horizon=4 * 3600.0, runs=1, seed=71, seed_corpus_size=200,
                sample_interval=1800.0,
                snowplow=SnowplowConfig(fallback_argument_prob=fallback),
            )
            run_seed = derive_seed(72, label)
            loop = build_loop(
                kernel_68, trained_68, run_seed, config
            )
            seeds = ProgramGenerator(
                kernel_68.table, split(run_seed, "s")
            ).seed_corpus(config.seed_corpus_size)
            loop.seed(seeds)
            results[label] = loop.run().final_edges
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation: §3.4 fallback random argument localization "
        "(final edges, 4 virtual hours)",
        f"  hybrid (fallback prob 0.10): {results['hybrid']}",
        f"  pure PMM (no fallback):      {results['pure-pmm']}",
    ]
    write_result("ablation_fallback.txt", "\n".join(lines))
    write_metrics("ablation_fallback.json", {
        "ablation.final_edges.hybrid": results["hybrid"],
        "ablation.final_edges.pure_pmm": results["pure-pmm"],
    })
    assert results["hybrid"] > 0 and results["pure-pmm"] > 0
