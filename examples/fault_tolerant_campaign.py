#!/usr/bin/env python
"""Fault-tolerant campaign demo: break everything, lose (almost) nothing.

Runs one fixed-seed Snowplow campaign twice — fault-free, then under a
fault plan that schedules an inference outage, random executor hangs,
flaky corpus writes, and a mid-run worker kill — and prints the failure
ledger next to the coverage the run kept anyway.  The faulted run
checkpoints periodically, is destroyed at the kill time exactly as a
dead worker would be, and resumes from its last checkpoint; the entire
fault schedule replays from the single plan seed.
"""

import tempfile

from repro.faults import FaultPlan
from repro.kernel import build_kernel
from repro.pmm import DatasetConfig, PMMConfig, TrainConfig
from repro.snowplow import (
    CampaignConfig,
    run_fault_tolerance_campaign,
    train_pmm,
)


def main() -> None:
    kernel = build_kernel("6.8", seed=1, size="small")
    print(f"kernel {kernel.version}: {len(kernel.table.specs)} syscalls")

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

    config = CampaignConfig(
        horizon=2400.0, runs=1, seed=11, seed_corpus_size=12,
        sample_interval=300.0,
    )
    plan = (
        FaultPlan(seed=42)
        .with_rate("executor", 0.01)        # ~1% of calls hang the VM
        .with_rate("corpus_store", 0.05)    # flaky corpus writes
        .with_window("inference", 600.0, 1200.0)   # serving outage
        .with_window("campaign_crash", 1500.0, 1501.0)  # worker dies
    )
    print(
        f"\nfault plan (seed {plan.seed}): inference outage 600-1200s, "
        f"worker kill at t={plan.crash_time():.0f}s, executor hang rate "
        f"1%, corpus-store failure rate 5%"
    )

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        result = run_fault_tolerance_campaign(
            kernel, trained, config, plan,
            checkpoint_interval=600.0,
            checkpoint_dir=checkpoint_dir,
        )

    clean, faulted = result.fault_free, result.faulted
    print("\n== failure ledger (faulted run) ==")
    print(f"  resumed from checkpoint : {result.resumed}")
    print(f"  checkpoints taken       : {result.checkpoints_taken}")
    print(f"  VM restarts             : {faulted.vm_restarts}")
    print(f"  exec timeouts           : {faulted.exec_timeouts}")
    print(f"  lost/failed inferences  : {faulted.inference_failures}")
    print(f"  heuristic fallbacks     : {faulted.heuristic_fallbacks}")
    print(f"  corpus write retries    : {faulted.corpus_write_retries}")
    print(f"  breaker trips           : {faulted.breaker_trips}")
    print(f"  breaker state at end    : {faulted.breaker_state}")

    print("\n== coverage: graceful degradation ==")
    print(f"  fault-free final edges  : {clean.final_edges}")
    print(f"  faulted final edges     : {faulted.final_edges}")
    print(f"  ratio                   : {result.coverage_ratio:.3f} "
          f"({result.degradation_pct:.1f}% degradation)")
    verdict = "yes" if result.degraded_gracefully() else "no"
    print(f"  within 15% tolerance    : {verdict}")


if __name__ == "__main__":
    main()
