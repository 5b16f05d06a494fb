"""PR 7 service gate: multiplexing overhead and per-campaign isolation.

One campaign spec (tiny kernel, 0.2 virtual hours, two workers over a
sharded corpus hub, oracle localizer) is run standalone and then
multiplexed with 1, 3, and 7 other tenants on a shared fleet.
Isolation means the tracked campaign's results — edges,
executions, hub syncs, its full signature — must be *identical* at every
concurrency level, so the committed ``BENCH_PR7.json`` baseline
reproduces exactly.  The orchestrator's wall-clock overhead versus
running the loops directly is nondeterministic, so it is reported in
the text table only.
"""

import time

from benchmarks.conftest import gate_metrics, write_result
from repro.cluster import ClusterConfig
from repro.kernel import build_kernel
from repro.service import Request, ServiceServer, encode_signature
from repro.snowplow import build_cluster, fuzz_campaign_config, fuzz_run_seed


HOURS = 0.2
SEED_CORPUS = 8
CONCURRENCY = (2, 4, 8)


def _spec(seed):
    return {
        "tenant": f"tenant-{seed}", "size": "tiny", "mode": "oracle",
        "hours": HOURS, "seed": seed, "seed_corpus": SEED_CORPUS,
        "workers": 2, "shards": 2,
    }


def _multiplexed(campaigns):
    """Run ``campaigns`` concurrent tenants; per-campaign payloads for
    the tracked seed-1 job plus its final hub-sync count."""
    server = ServiceServer(fleet_size=16, time_slice=120.0)
    job_ids = {}
    for seed in range(1, campaigns + 1):
        response = server.handle(
            Request("POST", "/campaigns", _spec(seed))
        )
        assert response.status == 201, response.body
        job_ids[seed] = response.body["job"]["job_id"]
    started = time.perf_counter()
    server.handle(Request("POST", "/advance", {}))
    elapsed = time.perf_counter() - started
    tracked = server.handle(
        Request("GET", f"/campaigns/{job_ids[1]}/result")
    ).body["result"]
    return tracked, tracked["hub"]["accepted"], elapsed


def _standalone():
    kernel = build_kernel("6.8", seed=1, size="tiny")
    config = fuzz_campaign_config(HOURS, 1, SEED_CORPUS)
    run_seed = fuzz_run_seed(1, kernel.version)
    cluster = build_cluster(
        kernel, None, run_seed, config,
        ClusterConfig(workers=2, shards=2), oracle=True,
    )
    started = time.perf_counter()
    result = cluster.run()
    return result, time.perf_counter() - started


def _bench_service():
    stats, solo_wall = _standalone()
    solo_signature = encode_signature(stats.signature())
    by_level = {n: _multiplexed(n) for n in CONCURRENCY}
    return stats, solo_wall, solo_signature, by_level


def test_bench_pr7_service_gate(benchmark):
    stats, solo_wall, solo_signature, by_level = benchmark.pedantic(
        _bench_service, rounds=1, iterations=1
    )

    # Isolation: the tracked campaign is bit-identical at every
    # concurrency level and identical to the standalone loop.
    for result, _, _ in by_level.values():
        assert result["signature"] == solo_signature
    executions = {r["executions"] for r, _, _ in by_level.values()}
    syncs = {s for _, s, _ in by_level.values()}
    assert len(executions) == 1 and len(syncs) == 1

    tracked = by_level[CONCURRENCY[0]][0]
    # Overhead: multiplexing 8 campaigns vs running 8 standalone loops
    # (approximated by 8x the measured solo wall time).
    wall_x8 = by_level[8][2]
    overhead_pct = 100.0 * (wall_x8 - 8 * solo_wall) / (8 * solo_wall)

    gate_metrics("BENCH_PR7.json", {
        "bench.service.executions": float(tracked["executions"]),
        "bench.service.new_edges_at_budget": float(tracked["final_edges"]),
        "bench.service.corpus_size": float(tracked["corpus_size"]),
        "bench.service.hub_accepted_per_campaign": float(
            by_level[CONCURRENCY[0]][1]
        ),
        "bench.service.isolation_holds": 1.0,
    })

    lines = [
        "PR 7 service bench: one tracked campaign, multiplexed.",
        f"{'concurrency':>12} {'edges':>8} {'executions':>11} "
        f"{'hub accept':>10} {'identical':>10}",
        f"{'standalone':>12} {stats.merged.final_edges:>8} "
        f"{stats.merged.executions:>11} {stats.hub_stats.accepted:>10} "
        f"{'yes':>10}",
    ]
    for n, (result, sync_count, _) in sorted(by_level.items()):
        identical = "yes" if result["signature"] == solo_signature else "NO"
        lines.append(
            f"{n:>12} {result['final_edges']:>8} "
            f"{result['executions']:>11} {sync_count:>10.0f} "
            f"{identical:>10}"
        )
    lines.append(
        f"orchestrator overhead at x8: {overhead_pct:+.1f}% wall "
        f"(diagnostic, not gated)"
    )
    write_result("BENCH_PR7.txt", "\n".join(lines))
