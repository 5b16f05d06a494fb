#!/usr/bin/env python
"""Serving-architecture exploration (§3.4 / §5.5).

Sweeps the inference pool size and compares asynchronous against
blocking integration, reproducing the two §5.5 measurements: saturation
throughput/latency of the model server, and the (non-)impact of
inference on fuzzing throughput.
"""

from repro.kernel import build_kernel
from repro.pmm import DatasetConfig, PMMConfig, TrainConfig
from repro.pmm.serve import InferenceService
from repro.rng import derive_seed, split
from repro.snowplow import CampaignConfig, train_pmm
from repro.snowplow.campaign import build_loop
from repro.syzlang import ProgramGenerator
from repro.vclock import CostModel


def sweep_pool_sizes() -> None:
    print("== Inference saturation vs pool size (0.69 s latency) ==")
    print(f"{'servers':>8} {'q/s':>8}")
    for servers in (1, 8, 20, 39, 64):
        service = InferenceService(
            lambda query: query, latency=0.69, servers=servers,
            max_queue=100_000,
        )
        now, horizon = 0.0, 30.0
        count = 0
        while now < horizon:
            for _ in range(4):
                service.submit(count, now)
                count += 1
            now += 0.01
        completed = len(service.poll(now))
        print(f"{servers:>8} {completed / now:>8.1f}")
    print("paper: 57 q/s at saturation (8 L4 GPUs)")


def compare_integration(kernel, trained) -> None:
    print("\n== Fuzzing throughput: async vs blocking inference ==")
    rows = []
    for label, cost in (
        ("syzkaller", CostModel.paper()),
        ("snowplow-async", CostModel.paper()),
        ("snowplow-blocking", CostModel.paper().blocking_inference()),
    ):
        config = CampaignConfig(
            horizon=20.0, runs=1, seed=3, seed_corpus_size=40,
            sample_interval=5.0, cost=cost,
        )
        run_seed = derive_seed(55, label)
        if label == "syzkaller":
            loop = build_loop(kernel, None, run_seed, config, baseline=True)
        else:
            loop = build_loop(kernel, trained, run_seed, config)
        seeds = ProgramGenerator(
            kernel.table, split(run_seed, "s")
        ).seed_corpus(config.seed_corpus_size)
        loop.seed(seeds)
        stats = loop.run()
        rows.append((label, stats.executions / loop.clock.now))
    for label, throughput in rows:
        print(f"  {label:<20} {throughput:7.0f} tests/s")
    print("paper: Syzkaller 390 vs Snowplow 383 tests/s (async)")


def main() -> None:
    sweep_pool_sizes()
    kernel = build_kernel("6.8", seed=1, size="small")
    trained = train_pmm(
        kernel,
        seed=0,
        corpus_size=30,
        dataset_config=DatasetConfig(mutations_per_test=40, seed=3),
        pmm_config=PMMConfig(dim=16, gnn_layers=1, asm_layers=1,
                             asm_heads=2, seed=5),
        train_config=TrainConfig(
            epochs=1, batch_size=8, max_examples_per_epoch=150,
            max_validation_examples=40,
        ),
    )
    compare_integration(kernel, trained)


if __name__ == "__main__":
    main()
