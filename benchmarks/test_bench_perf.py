"""§5.5 performance characteristics.

Paper numbers: the inference machine saturates at ~57 queries/second
with 0.69 s mean latency; fuzzing throughput is essentially unchanged by
the integration (Snowplow 383 vs Syzkaller 390 tests/s) because
inference runs off the critical path.  The bench reproduces both using
the paper-rate cost model.
"""

import numpy as np

from benchmarks.conftest import write_metrics, write_result
from repro.pmm.serve import InferenceService
from repro.rng import derive_seed, split
from repro.snowplow import CampaignConfig
from repro.snowplow.campaign import build_loop
from repro.syzlang import ProgramGenerator
from repro.vclock import CostModel


def test_bench_inference_saturation(benchmark):
    """Drive the serving simulation to saturation."""

    def saturate():
        service = InferenceService(
            lambda query: query, latency=0.69, servers=39, max_queue=10_000
        )
        now = 0.0
        horizon = 60.0
        submitted = 0
        # Clients submit far faster than the pool can serve.
        while now < horizon:
            for _ in range(4):
                service.submit(submitted, now)
                submitted += 1
            now += 0.01
        completed = len(service.poll(now))
        remaining_capacity = service.pending_count()
        throughput = completed / now
        return throughput, service.saturation_throughput

    measured, theoretical = benchmark.pedantic(
        saturate, rounds=1, iterations=1
    )
    lines = [
        "§5.5 Inference performance (paper -> measured)",
        f"  saturation throughput: ~57 q/s -> {measured:.1f} q/s "
        f"(pool capacity {theoretical:.1f} q/s)",
        "  mean service latency: 0.69 s (configured)",
    ]
    write_result("perf_inference.txt", "\n".join(lines))
    write_metrics("perf_inference.json", {
        "perf.saturation_qps": measured,
        "perf.pool_capacity_qps": theoretical,
    })
    assert 50 < measured < 62


def test_bench_fuzzing_throughput(benchmark, kernel_68, trained_68):
    """Snowplow's loop throughput matches Syzkaller's (async inference).

    Run both loops for the same virtual horizon with the paper-rate cost
    model and compare tests/virtual-second.
    """
    config = CampaignConfig(
        horizon=30.0,  # 30 paper-seconds at 390 tests/s ≈ 11.7k tests
        runs=1, seed=3, seed_corpus_size=60,
        sample_interval=10.0, cost=CostModel.paper(),
    )

    def run_both():
        results = {}
        for mode in ("syzkaller", "snowplow"):
            run_seed = derive_seed(91, mode)
            if mode == "syzkaller":
                loop = build_loop(
                    kernel_68, None, run_seed, config, baseline=True
                )
            else:
                loop = build_loop(
                    kernel_68, trained_68, run_seed, config
                )
            seeds = ProgramGenerator(
                kernel_68.table, split(run_seed, "s")
            ).seed_corpus(config.seed_corpus_size)
            loop.seed(seeds)
            stats = loop.run()
            results[mode] = stats.executions / loop.clock.now
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    ratio = results["snowplow"] / results["syzkaller"]
    lines = [
        "§5.5 Fuzzing throughput (paper -> measured, tests per virtual s)",
        f"  Syzkaller: 390 -> {results['syzkaller']:.0f}",
        f"  Snowplow:  383 -> {results['snowplow']:.0f}",
        f"  ratio: 0.98 -> {ratio:.2f}",
    ]
    write_result("perf_throughput.txt", "\n".join(lines))
    write_metrics("perf_throughput.json", {
        "perf.tests_per_s.syzkaller": results["syzkaller"],
        "perf.tests_per_s.snowplow": results["snowplow"],
        "perf.throughput_ratio": ratio,
    })
    # Asynchronous inference must not cost more than a few percent.
    assert ratio > 0.90


def test_bench_async_vs_blocking_ablation(benchmark, kernel_68, trained_68):
    """DESIGN.md ablation: blocking inference collapses throughput."""

    def run_both():
        results = {}
        for label, cost in (
            ("async", CostModel.paper()),
            ("blocking", CostModel.paper().blocking_inference()),
        ):
            config = CampaignConfig(
                horizon=30.0, runs=1, seed=5, seed_corpus_size=40,
                sample_interval=10.0, cost=cost,
            )
            run_seed = derive_seed(93, label)
            loop = build_loop(
                kernel_68, trained_68, run_seed, config
            )
            seeds = ProgramGenerator(
                kernel_68.table, split(run_seed, "s")
            ).seed_corpus(config.seed_corpus_size)
            loop.seed(seeds)
            stats = loop.run()
            results[label] = stats.executions / loop.clock.now
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    lines = [
        "Ablation: asynchronous vs blocking inference "
        "(tests per virtual second)",
        f"  async:    {results['async']:.0f}",
        f"  blocking: {results['blocking']:.0f}",
        f"  slowdown: {results['async'] / max(results['blocking'], 1e-9):.0f}x",
    ]
    write_result("perf_ablation_async.txt", "\n".join(lines))
    write_metrics("perf_ablation_async.json", {
        "perf.tests_per_s.async": results["async"],
        "perf.tests_per_s.blocking": results["blocking"],
    })
    assert results["blocking"] < results["async"] / 5
