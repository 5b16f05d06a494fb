"""PR 4 trajectory gate: the analytics stack on a tiny traced campaign.

One fully-observed oracle campaign on the "tiny" kernel produces the
three headline numbers the CI ``analytics`` gate tracks across PRs —
tests/virtual-second, p95 inference queue delay, and coverage at a
fixed virtual budget.  The run is deterministic, so the committed
``BENCH_PR4.json`` baseline must reproduce exactly; any change fails
the bench.
"""

from benchmarks.conftest import gate_metrics, write_result
from repro.kernel import build_kernel
from repro.observe import (
    Observer,
    SLOEngine,
    campaign_report,
    default_rules,
)
from repro.rng import split
from repro.snowplow import CampaignConfig
from repro.snowplow.campaign import build_loop
from repro.syzlang import ProgramGenerator



def _traced_campaign():
    """The tiny observed campaign the CI ``analytics`` gate re-runs."""
    kernel = build_kernel("6.8", seed=1, size="tiny")
    config = CampaignConfig(
        horizon=2400.0, runs=1, seed=11, seed_corpus_size=12,
        sample_interval=300.0,
    )
    observer = Observer(slo=SLOEngine(default_rules()))
    loop = build_loop(
        kernel, None, 7, config, oracle=True, observer=observer
    )
    seeds = ProgramGenerator(
        kernel.table, split(7, "seed-corpus")
    ).seed_corpus(config.seed_corpus_size)
    loop.seed(seeds)
    stats = loop.run()
    return loop, stats, observer


def test_bench_pr4_analytics_gate(benchmark):
    loop, stats, observer = benchmark.pedantic(
        _traced_campaign, rounds=1, iterations=1
    )
    throughput = stats.executions / loop.clock.now
    queue_delay_p95 = loop.service.stats.queue_delay.p95
    new_edges = len(loop.accumulated.edges)

    gate_metrics("BENCH_PR4.json", {
        "bench.executions_per_second": round(throughput, 3),
        "bench.queue_delay_p95": round(queue_delay_p95, 3),
        "bench.new_edges_at_budget": float(new_edges),
    })

    alerts = observer.evaluate_slo()
    report = campaign_report(
        observer.registry.snapshot(), store=observer.timeseries,
        alerts=alerts, rules=observer.slo.rules,
        title="PR 4 bench-gate campaign",
    )
    write_result("BENCH_PR4.txt", report.rstrip("\n"))

    # The campaign itself must stay healthy: no critical alerts.
    assert not [alert for alert in alerts if alert.severity == "critical"]
