"""PR 9 trajectory gate: corpus lineage and coverage attribution.

Headline groups feeding the committed ``BENCH_PR9.json`` baseline,
which every series must reproduce exactly:

- attribution completeness on the traced tiny/6.8 campaign: the
  fraction of bugs with complete reproduction chains (must be 1.0) and
  the fraction of final edges with a first-cover owner (floor 0.95);
- per-engine earnings from the oracle-steered run: mutations spent,
  edges/bugs earned, and the dead-mutation share per engine/slot;
- the continuous-profiling gauges: virtual executions per virtual
  second (a cost-model check, not host throughput) plus the per-phase
  time shares (mutate/exec/triage/hub_sync) — deterministic because
  they derive from the virtual clock's charge ledger, not wall time.
"""

from benchmarks.conftest import gate_metrics, write_result
from repro.cluster import ClusterConfig
from repro.kernel import build_kernel
from repro.observe import (
    Observer,
    ProvenanceLog,
    attribution_table,
    resolve_target,
)
from repro.snowplow import CampaignConfig, build_cluster
from repro.snowplow.campaign import (
    build_fuzz_loop,
    fuzz_campaign_config,
    fuzz_run_seed,
)

MIN_EDGE_ATTRIBUTION = 0.95
PHASES = ("mutation", "execution", "triage", "hub_sync")


def _traced_campaign():
    """The tiny/6.8 oracle campaign the CI ``explain`` gate replays."""
    kernel = build_kernel("6.8", seed=1, size="tiny")
    config = fuzz_campaign_config(0.5, 0, 100)
    loop = build_fuzz_loop(
        kernel, None, fuzz_run_seed(0, kernel.version), config,
        oracle=True, observer=Observer(),
    )
    loop.run()
    stats = loop.finalize()
    return kernel, loop, stats


def _fleet_campaign(kernel):
    """A small supervised-free fleet for the hub_sync phase share and
    subsumption accounting."""
    config = CampaignConfig(
        horizon=900.0, runs=1, seed=5, seed_corpus_size=20,
        sample_interval=300.0,
    )
    cluster = build_cluster(
        kernel, None, 21, config,
        cluster_config=ClusterConfig(workers=4, sync_interval=300.0),
        baseline=True,
    )
    result = cluster.run()
    merged = ProvenanceLog.merge(
        [worker.loop.provenance for worker in cluster.workers]
        + [cluster.hub.provenance]
    )
    return cluster, result, merged


def _phase_shares(clock) -> dict:
    charges = dict(clock.charges)
    total = sum(charges.values())
    return {
        phase: (charges.get(phase, 0.0) / total if total else 0.0)
        for phase in PHASES
    }


def test_bench_pr9_provenance_gate(benchmark):
    kernel, loop, stats = benchmark.pedantic(
        _traced_campaign, rounds=1, iterations=1
    )
    log = loop.provenance

    bug_chains = {
        crash.signature: resolve_target(log, f"bug:{crash.signature}")[2]
        for crash in stats.crashes
    }
    bugs_complete = (
        sum(1 for chain in bug_chains.values() if chain) / len(bug_chains)
        if bug_chains else 1.0
    )
    edge_fraction = (
        len(log.edge_owner) / stats.final_edges if stats.final_edges else 0.0
    )
    shares = _phase_shares(loop.clock)
    execs_per_vsecond = stats.executions / loop.clock.now

    cluster, _, fleet_log = _fleet_campaign(kernel)
    fleet_shares = _phase_shares(cluster.workers[0].loop.clock)

    metrics = {
        "bench.provenance.bugs_attributed_fraction": round(bugs_complete, 4),
        "bench.provenance.edges_attributed_fraction": round(
            edge_fraction, 4
        ),
        # A cost-model check: virtual executions per virtual second, a
        # pure function of the seed.  Host speed is measured by bench/.
        "bench.provenance.execs_per_vsecond": round(execs_per_vsecond, 4),
        "bench.provenance.entries": float(len(log.records)),
        "bench.provenance.bugs": float(len(bug_chains)),
        "bench.provenance.fleet_subsumed": float(
            cluster.hub.stats.subsumed_entries
        ),
        "bench.provenance.fleet_superseded_records": float(
            fleet_log.superseded_count
        ),
    }
    for phase, share in shares.items():
        metrics[f"bench.provenance.time_fraction_{phase}"] = round(share, 4)
    metrics["bench.provenance.fleet_time_fraction_hub_sync"] = round(
        fleet_shares["hub_sync"], 4
    )
    rows = attribution_table(log)
    for row in rows:
        tag = f"{row['engine']}_{row['slot'].strip('-') or 'seed'}"
        metrics[f"bench.provenance.mutations_{tag}"] = float(
            row["mutations"]
        )
        metrics[f"bench.provenance.edges_{tag}"] = float(row["edges"])
        metrics[f"bench.provenance.bugs_{tag}"] = float(row["bugs"])
        metrics[f"bench.provenance.dead_share_{tag}"] = row["dead_share"]
    gate_metrics("BENCH_PR9.json", metrics)

    lines = [
        "PR 9 provenance gate (tiny/6.8, oracle-steered, 0.5h virtual).",
        "",
        f"bugs: {len(bug_chains)} found, "
        f"{bugs_complete:.0%} with complete chains; "
        f"edges: {len(log.edge_owner)}/{stats.final_edges} attributed "
        f"({edge_fraction:.1%}, floor {MIN_EDGE_ATTRIBUTION:.0%})",
        f"execs/vsecond: {execs_per_vsecond:.4f}  phase shares: "
        + "  ".join(f"{p}={shares[p]:.1%}" for p in PHASES),
        f"fleet: hub_sync share {fleet_shares['hub_sync']:.2%}, "
        f"subsumed {cluster.hub.stats.subsumed_entries}, "
        f"superseded records {fleet_log.superseded_count}",
        "",
        f"{'engine':<10} {'slot':<10} {'mutations':>10} {'edges':>7} "
        f"{'bugs':>5} {'dead_share':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row['engine']:<10} {row['slot']:<10} "
            f"{row['mutations']:>10} {row['edges']:>7} {row['bugs']:>5} "
            f"{row['dead_share']:>11.4f}"
        )
    write_result("BENCH_PR9.txt", "\n".join(lines))

    # The ISSUE acceptance bounds: every bug explains, >=95% of edges
    # carry a first-cover owner, and the subsumption ledger closes.
    assert bug_chains, "campaign found no bugs — gate untested"
    assert bugs_complete == 1.0
    assert edge_fraction >= MIN_EDGE_ATTRIBUTION
    assert execs_per_vsecond > 0
    assert cluster.hub.stats.pushes == (
        cluster.hub.stats.accepted + cluster.hub.stats.duplicates
    )
    subsumed = cluster.hub.stats.subsumed_entries
    assert fleet_log.superseded_count <= subsumed
    assert subsumed == 0 or fleet_log.superseded_count > 0
