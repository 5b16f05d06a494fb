#!/usr/bin/env python
"""Cluster campaign demo: the fleet, at laptop scale.

Sweeps fleet sizes over one fixed campaign seed — every worker fuzzing
its own virtual 40 minutes, syncing its corpus through the hub and
funnelling localization queries into one dynamically batched serving
tier — then kills the largest fleet mid-run and resumes it from a
checkpoint to show the continuation is bit-identical to never having
crashed the scheduler loop.

Uses the white-box oracle localizer so the demo runs in seconds; swap
``oracle=True`` for a trained PMM (see train_and_evaluate_pmm.py) for
the full pipeline.
"""

from repro.cluster import ClusterConfig
from repro.kernel import build_kernel
from repro.rng import derive_seed
from repro.snowplow import (
    CampaignConfig,
    build_cluster,
    cluster_state,
    format_scaling,
    restore_cluster_state,
    run_scaling_campaign,
)


def main() -> None:
    kernel = build_kernel("6.8", seed=1, size="small")
    config = CampaignConfig(
        horizon=2400.0, runs=1, seed=11, seed_corpus_size=12,
        sample_interval=300.0,
    )
    cluster_config = ClusterConfig(workers=4, sync_interval=300.0)

    # --- the sweep: coverage vs fleet size ---
    result = run_scaling_campaign(
        kernel, None, config, worker_counts=(1, 2, 4),
        cluster_config=cluster_config, oracle=True,
    )
    print(format_scaling(result))
    tier = result.points[-1].result.service_stats
    if tier is not None:
        print(
            f"\nserving tier at 4 workers: {tier.completed} predictions, "
            f"mean batch {tier.mean_batch_size:.2f}, queue delay "
            f"p50/p95/max = {tier.p50_queue_delay:.0f}/"
            f"{tier.p95_queue_delay:.0f}/{tier.max_queue_delay:.0f}s"
        )

    # --- kill + resume, bit-identically ---
    run_seed = derive_seed(config.seed, "scaling", kernel.version)

    def build(seeded):
        # A fleet built to be restored skips the seed corpus: the
        # checkpoint overwrites every worker's corpus anyway.
        return build_cluster(
            kernel, None, run_seed, config,
            cluster_config=ClusterConfig(
                workers=4, sync_interval=cluster_config.sync_interval
            ),
            oracle=True, seeded=seeded,
        )

    victim = build(seeded=True)
    victim.run_until(config.horizon / 2)
    state = cluster_state(victim)
    finals = []
    for _ in range(2):
        fresh = build(seeded=False)
        restore_cluster_state(fresh, state)
        finals.append(fresh.run())
    identical = (
        finals[0].final_edges == finals[1].final_edges
        and finals[0].merged.executions == finals[1].merged.executions
    )
    print(
        f"\nkilled the 4-worker fleet at t={config.horizon / 2:.0f}s and "
        f"resumed twice from the checkpoint: "
        f"{finals[0].final_edges} edges, "
        f"{finals[0].merged.executions} executions — "
        f"{'bit-identical' if identical else 'MISMATCH'}"
    )


if __name__ == "__main__":
    main()
