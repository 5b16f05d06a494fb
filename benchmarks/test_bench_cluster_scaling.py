"""Cluster bench: coverage vs fleet size, and the batching win.

Three acceptance experiments for `repro.cluster`:

- the scaling sweep must show a 4-worker fleet reaching strictly more
  fleet-union coverage than a single worker at the same per-worker
  virtual budget (the hub actually pools progress);
- the dynamically batched serving tier must complete more requests than
  an unbatched service with the same single-request latency and slot
  count under saturating load (batching actually raises throughput
  above ``servers / latency``);
- the PR-6 fleet gate: a 64-worker / 4-shard fleet whose per-worker hub
  cost stays flat as the fleet widens (the sharded hub scales
  sublinearly) and whose serving tier, under load shedding, keeps the
  p95 queue delay no worse than the PR-4 single-loop figure (~2260
  virtual seconds), all pinned by the committed ``BENCH_PR6.json``
  baseline, which every series must reproduce exactly.

Runs on small/tiny kernels with the oracle localizer so CI's ``fleet``
gate can afford it; the shapes, not the absolute numbers, are the claims.
"""

import os

import pytest

from benchmarks.conftest import (
    OUT_DIR,
    gate_metrics,
    write_metrics,
    write_result,
)
from repro.cluster import ClusterConfig
from repro.kernel import build_kernel
from repro.pmm.serve import BatchingInferenceService, InferenceService
from repro.snowplow import (
    CampaignConfig,
    SnowplowConfig,
    format_scaling,
    run_scaling_campaign,
)

HORIZON = 2400.0
# PR-4's measured serve.queue_delay/p95 — the shedding tier must hold
# the fleet at or below the single-loop era's tail latency.
PR4_QUEUE_DELAY_P95 = 2260.5


@pytest.fixture(scope="module")
def small_kernel():
    return build_kernel("6.8", seed=1, size="small")


def test_bench_cluster_scaling(benchmark, small_kernel):
    config = CampaignConfig(
        horizon=HORIZON, runs=1, seed=11, seed_corpus_size=12,
        sample_interval=300.0,
    )

    def run():
        return run_scaling_campaign(
            small_kernel, None, config, worker_counts=(1, 2, 4),
            cluster_config=ClusterConfig(workers=4, sync_interval=300.0),
            oracle=True, observe=True,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    edges = result.final_edges()
    # The acceptance claim: fleet width buys coverage at equal
    # per-worker budget.
    assert edges[4] > edges[1]
    assert edges[2] > edges[1]
    write_result("cluster_scaling.txt", format_scaling(result))
    # Full telemetry (Chrome trace, spans, flame, profile) for the
    # widest fleet, plus its metrics snapshot in diff-able form.
    widest = result.points[-1]
    write_metrics("cluster_scaling.json", widest.observer.registry)
    exported = widest.observer.export(
        os.path.join(OUT_DIR, "cluster_scaling_telemetry")
    )
    assert "trace.json" in exported


def test_bench_batching_throughput(benchmark):
    latency = 10.0
    servers = 4

    def saturate(service):
        """Closed-loop load: keep the queue topped up, count completions
        over a fixed virtual window."""
        done = 0
        step = 0
        for tick in range(2000):
            now = tick * 0.5
            while service.pending_count() < 24:
                service.submit(f"q{step}", now)
                step += 1
            done += len(service.poll(now))
        return done

    def run():
        batched = BatchingInferenceService(
            predict_fn=lambda q: q,
            base_latency=0.75 * latency,
            marginal_latency=0.25 * latency,
            max_batch_size=8,
            batch_timeout=0.25 * latency,
            servers=servers,
        )
        plain = InferenceService(
            lambda q: q, latency=latency, servers=servers
        )
        assert batched.latency_of(1) == latency
        return saturate(batched), saturate(plain), batched, plain

    batched_done, plain_done, batched, plain = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # The structural claim and the measured one, both strictly.
    assert batched.saturation_throughput > plain.saturation_throughput
    assert batched_done > plain_done
    window = 2000 * 0.5
    write_result(
        "cluster_batching_throughput.txt",
        "\n".join([
            "Dynamic batching vs unbatched serving "
            f"({servers} slots, single-request latency {latency:.0f}s, "
            f"{window:.0f} virtual s of saturating load)",
            f"  unbatched: {plain_done} completed "
            f"({plain_done / window:.2f}/s; theoretical cap "
            f"{plain.saturation_throughput:.2f}/s)",
            f"  batched:   {batched_done} completed "
            f"({batched_done / window:.2f}/s; theoretical cap "
            f"{batched.saturation_throughput:.2f}/s, "
            f"mean batch {batched.stats.mean_batch_size:.2f})",
            f"  speedup:   {batched_done / max(plain_done, 1):.2f}x",
        ]),
    )
    write_metrics("cluster_batching_throughput.json", {
        "bench.completed.batched": batched_done,
        "bench.completed.unbatched": plain_done,
        "bench.mean_batch_size": batched.stats.mean_batch_size,
        "bench.cap_qps.batched": batched.saturation_throughput,
        "bench.cap_qps.unbatched": plain.saturation_throughput,
    })


def test_bench_pr6_fleet_scaling(benchmark):
    """PR 6 gate: 64 workers, 4 hub shards, shedding serving tier."""
    kernel = build_kernel("6.8", seed=1, size="tiny")
    config = CampaignConfig(
        horizon=HORIZON, runs=1, seed=11, seed_corpus_size=10,
        sample_interval=300.0,
        snowplow=SnowplowConfig(shed_timeout_factor=2.8),
    )
    counts = (1, 8, 64)

    def run():
        return run_scaling_campaign(
            kernel, None, config, worker_counts=counts,
            cluster_config=ClusterConfig(
                workers=64, sync_interval=300.0, shards=4,
            ),
            oracle=True, observe=True,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    edges = result.final_edges()
    by_count = {point.workers: point.result for point in result.points}

    def sync_seconds_per_worker(count):
        cluster = by_count[count]
        total = sum(stats.hub_syncs for stats in cluster.worker_stats)
        return total * config.cost.hub_sync / count

    widest = by_count[64]
    service = widest.service_stats
    per_worker_8 = sync_seconds_per_worker(8)
    per_worker_64 = sync_seconds_per_worker(64)

    metrics = {
        "bench.fleet.queue_delay_p95": round(
            service.queue_delay.p95, 3
        ),
        "bench.fleet.final_edges_1": float(edges[1]),
        "bench.fleet.final_edges_8": float(edges[8]),
        "bench.fleet.final_edges_64": float(edges[64]),
        "bench.fleet.hub_sync_seconds_per_worker_8": round(per_worker_8, 3),
        "bench.fleet.hub_sync_seconds_per_worker_64": round(
            per_worker_64, 3
        ),
        "bench.fleet.shed_requests_64": float(service.shed),
        "bench.fleet.bloom_skips_64": float(widest.hub_stats.bloom_skips),
    }
    gate_metrics("BENCH_PR6.json", metrics)

    write_result(
        "BENCH_PR6.txt",
        "\n".join([
            "PR 6 fleet gate (64 workers, 4 hub shards, shedding tier).",
            "",
            format_scaling(result),
            "",
            f"hub sync s/worker: {per_worker_8:.1f} @8 -> "
            f"{per_worker_64:.1f} @64 "
            f"(x{per_worker_64 / max(per_worker_8, 1e-9):.2f})",
            f"serve queue delay p95: {service.queue_delay.p95:.1f}s "
            f"(PR-4 figure {PR4_QUEUE_DELAY_P95:.1f}s), "
            f"{service.shed} request(s) shed",
            f"bloom pre-dedup skips: {widest.hub_stats.bloom_skips}",
        ]),
    )

    # Fleet width keeps buying coverage, monotonically.
    assert edges[8] > edges[1]
    assert edges[64] >= edges[8]
    # Sharded hub: per-worker sync cost stays flat as the fleet widens
    # 8x (sublinear total cost in fleet size).
    assert per_worker_64 <= 1.1 * per_worker_8
    # Admission control holds the tail: no worse than the PR-4 figure.
    assert service.queue_delay.p95 <= PR4_QUEUE_DELAY_P95
    # The bloom pre-dedup path is actually exercised at fleet scale.
    assert widest.hub_stats.bloom_skips > 0
