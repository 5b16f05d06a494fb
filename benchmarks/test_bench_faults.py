"""Robustness bench: coverage under faults vs fault-free.

The acceptance experiment for the failure model (DESIGN.md, "Failure
model & graceful degradation"): one fixed seed run twice — clean, and
under a fault plan combining a serving outage, random VM hangs, flaky
corpus writes and a mid-run worker kill with checkpoint/resume.  At
bench scale the faulted run must finish within 15% of the fault-free
coverage while the failure ledger shows every fault class actually
fired.
"""

from benchmarks.conftest import write_metrics, write_result
from repro.faults import FaultPlan
from repro.snowplow import CampaignConfig, run_fault_tolerance_campaign

HORIZON = 2400.0


def test_bench_fault_tolerance(benchmark, kernel_68, trained_68, tmp_path):
    config = CampaignConfig(
        horizon=HORIZON, runs=1, seed=11, seed_corpus_size=40,
        sample_interval=300.0,
    )
    plan = (
        FaultPlan(seed=42)
        .with_rate("executor", 0.01)
        .with_rate("corpus_store", 0.05)
        .with_window("inference", 600.0, 1200.0)
        .with_window("campaign_crash", 1500.0, 1501.0)
    )

    def run():
        return run_fault_tolerance_campaign(
            kernel_68, trained_68, config, plan,
            checkpoint_interval=600.0,
            checkpoint_dir=str(tmp_path / "ckpts"),
            observe=True,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    faulted = result.faulted
    lines = [
        "Robustness: coverage under faults vs fault-free "
        f"({HORIZON:.0f} virtual s, plan seed {plan.seed})",
        f"  fault-free final edges : {result.fault_free.final_edges}",
        f"  faulted final edges    : {faulted.final_edges}",
        f"  coverage ratio         : {result.coverage_ratio:.3f} "
        f"({result.degradation_pct:.1f}% degradation)",
        f"  VM restarts            : {faulted.vm_restarts}",
        f"  lost/failed inferences : {faulted.inference_failures}",
        f"  heuristic fallbacks    : {faulted.heuristic_fallbacks}",
        f"  corpus write retries   : {faulted.corpus_write_retries}",
        f"  checkpoints / resumes  : {result.checkpoints_taken} / "
        f"{faulted.resumes}",
    ]
    write_result("faults_degradation.txt", "\n".join(lines))
    # The faulted run's live registry, topped up with the headline
    # comparison numbers, in the same shape `--observe-dir` exports.
    registry = result.observer.registry
    registry.gauge("bench.fault_free_edges").set(
        float(result.fault_free.final_edges)
    )
    registry.gauge("bench.coverage_ratio").set(result.coverage_ratio)
    write_metrics("faults_degradation.json", registry)

    # The faults really happened ...
    assert result.resumed and faulted.resumes >= 1
    assert faulted.vm_restarts >= 1
    assert faulted.inference_failures > 0
    assert faulted.corpus_write_retries > 0
    # ... and the campaign degraded gracefully (ISSUE acceptance: 15%).
    assert result.degraded_gracefully(), (
        f"degradation {result.degradation_pct:.1f}% exceeds 15%"
    )
