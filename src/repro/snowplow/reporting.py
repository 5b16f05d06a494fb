"""Human-readable rendering of the paper's tables and figures.

``scaling_json``/``chaos_json`` are the machine-readable twins of
``format_scaling``/``format_chaos``: canonical JSON (sorted keys,
stable separators) so the service and CI consume campaign outcomes
without screen-scraping the text tables.
"""

from __future__ import annotations

import json

import numpy as np

from repro.fuzzer.crash import TriagedCrash
from repro.fuzzer.directed import DirectedResult
from repro.kernel.bugs import CrashKind
from repro.observe.slo import CHAOS_DEGRADATION_PCT
from repro.pmm.metrics import SelectorMetrics
from repro.snowplow.campaign import (
    ChaosCampaignResult,
    CoverageCampaignResult,
    CrashCampaignResult,
    ScalingCampaignResult,
)

__all__ = [
    "chaos_json",
    "format_table1",
    "format_chaos",
    "format_fig6",
    "format_scaling",
    "format_specgen",
    "format_table2",
    "format_table3",
    "format_table5",
    "scaling_json",
    "specgen_json",
]

_TABLE3_ORDER = (
    CrashKind.NULL_DEREF,
    CrashKind.PAGING_FAULT,
    CrashKind.ASSERT,
    CrashKind.GPF,
    CrashKind.OOB,
    CrashKind.WARNING,
    CrashKind.OTHER,
)

_TABLE3_NAMES = {
    CrashKind.NULL_DEREF: "Null pointer dereference",
    CrashKind.PAGING_FAULT: "Paging fault",
    CrashKind.ASSERT: "Explicit assertion violation",
    CrashKind.GPF: "General protection fault",
    CrashKind.OOB: "Out of bounds access",
    CrashKind.WARNING: "Warning",
    CrashKind.RCU_STALL: "Other",
    CrashKind.OTHER: "Other",
}


def format_table1(
    pmm: SelectorMetrics,
    baseline: SelectorMetrics,
    baseline_name: str,
    static_oracle: SelectorMetrics | None = None,
) -> str:
    """Table 1: promising-arguments selector performance.

    ``static_oracle`` adds the upper-bound row from
    :class:`~repro.analyze.StaticOracleLocalizer` — exact by
    construction against the static ground truth — plus the gap between
    PMM and the statically attainable maximum.
    """
    lines = [
        "Table 1. Promising arguments selector performance.",
        f"{'Selector':<10} {'F1':>6} {'Precision':>9} {'Recall':>6} {'Jaccard':>7}",
    ]
    if static_oracle is not None:
        lines.append(static_oracle.row("StaticOrc"))
    lines.append(pmm.row("PMModel"))
    lines.append(baseline.row(baseline_name))
    if static_oracle is not None:
        lines.append(
            f"PMM vs static upper bound: "
            f"F1 -{(static_oracle.f1 - pmm.f1) * 100:.1f}pp, "
            f"precision -{(static_oracle.precision - pmm.precision) * 100:.1f}pp, "
            f"recall -{(static_oracle.recall - pmm.recall) * 100:.1f}pp"
        )
    return "\n".join(lines)


def format_fig6(results: list[CoverageCampaignResult]) -> str:
    """Fig. 6: per-kernel coverage summaries (a-c) and improvement (d)."""
    lines = ["Figure 6. Edge coverage, Snowplow vs Syzkaller."]
    for result in results:
        hours = result.horizon / 3600.0
        lines.append(
            f"  Linux {result.kernel_version} ({hours:.0f}h x "
            f"{len(result.syzkaller_runs)} runs): "
            f"Syzkaller {result.syzkaller_final_mean:.0f} edges, "
            f"Snowplow {result.snowplow_final_mean:.0f} edges "
            f"(+{result.coverage_improvement:.1f}%), "
            f"speedup {result.speedup:.1f}x"
        )
        grid = np.linspace(0.0, result.horizon, 9)[1:]
        snow = result._mean_series(result.snowplow_runs)
        syz = result._mean_series(result.syzkaller_runs)
        full = np.linspace(0.0, result.horizon, 97)
        snow_pts = np.interp(grid, full, snow)
        syz_pts = np.interp(grid, full, syz)
        lines.append(
            "    t(h):      " + " ".join(f"{t / 3600:6.1f}" for t in grid)
        )
        lines.append(
            "    Snowplow:  " + " ".join(f"{v:6.0f}" for v in snow_pts)
        )
        lines.append(
            "    Syzkaller: " + " ".join(f"{v:6.0f}" for v in syz_pts)
        )
    return "\n".join(lines)


def format_scaling(result: ScalingCampaignResult) -> str:
    """The fleet sweep: coverage vs fleet size, hub traffic, serving
    throughput, and per-worker breakdowns."""
    hours = result.horizon / 3600.0
    lines = [
        f"Scaling sweep on kernel {result.kernel_version} "
        f"({hours:.0f}h virtual per worker).",
        f"{'Workers':>7} {'Edges':>7} {'Execs':>9} {'Syncs':>6} "
        f"{'Hub acc/dup':>12} {'Infer q/s':>10} {'Batch':>6}",
    ]
    qps = result.observed_qps()
    for point in result.points:
        cluster = point.result
        merged = cluster.merged
        hub = cluster.hub_stats
        service = cluster.service_stats
        batch = (
            f"{service.mean_batch_size:6.2f}"
            if service is not None and service.batch_sizes else "     -"
        )
        lines.append(
            f"{point.workers:>7d} {cluster.final_edges:>7d} "
            f"{merged.executions:>9d} {merged.hub_syncs:>6d} "
            f"{hub.accepted:>5d}/{hub.duplicates:<6d} "
            f"{qps[point.workers]:>10.3f} {batch}"
        )
    for point in result.points:
        if point.workers <= 1:
            continue
        lines.append(f"  per-worker breakdown ({point.workers} workers):")
        for worker_id, stats in enumerate(point.result.worker_stats):
            lines.append(
                f"    worker {worker_id}: {stats.final_edges:6d} edges, "
                f"{stats.executions:8d} execs, "
                f"pushed {stats.hub_pushed}, pulled {stats.hub_pulled}"
            )
    return "\n".join(lines)


def scaling_json(result: ScalingCampaignResult) -> str:
    """Canonical JSON for the fleet sweep (``repro cluster --json``)."""
    qps = result.observed_qps()
    points = []
    for point in result.points:
        cluster = point.result
        merged = cluster.merged
        service = cluster.service_stats
        points.append({
            "workers": point.workers,
            "final_edges": cluster.final_edges,
            "final_blocks": cluster.final_blocks,
            "executions": merged.executions,
            "hub_syncs": merged.hub_syncs,
            "hub_accepted": cluster.hub_stats.accepted,
            "hub_duplicates": cluster.hub_stats.duplicates,
            "inference_qps": qps[point.workers],
            "mean_batch_size": (
                service.mean_batch_size
                if service is not None and service.batch_sizes else None
            ),
            "worker_stats": [
                {
                    "worker": worker_id,
                    "final_edges": stats.final_edges,
                    "executions": stats.executions,
                    "hub_pushed": stats.hub_pushed,
                    "hub_pulled": stats.hub_pulled,
                }
                for worker_id, stats in enumerate(cluster.worker_stats)
            ],
        })
    payload = {
        "kernel": result.kernel_version,
        "horizon_hours": result.horizon / 3600.0,
        "points": points,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def chaos_json(result: ChaosCampaignResult) -> str:
    """Canonical JSON for the chaos gate (``repro cluster chaos --json``)."""
    payload = {
        "kernel": result.kernel_version,
        "horizon_hours": result.horizon / 3600.0,
        "workers": result.workers,
        "shards": result.shards,
        "plan": result.plan.to_dict(),
        "recovery": {
            "restarts": result.restarts,
            "dropped_entries": result.dropped_entries,
            "shed": result.shed,
            "outstanding_lost": result.outstanding_lost,
        },
        "coverage": {
            "clean_edges": result.clean.final_edges,
            "chaos_edges": result.chaos.final_edges,
            "peak_edges": result.peak_edges,
            "ratio_pct": 100.0 * result.coverage_ratio,
        },
        "invariants": {
            "zero_corpus_loss": result.zero_corpus_loss,
            "coverage_monotone": result.coverage_monotone,
            "resume_identical": result.resume_identical,
            "degraded_gracefully": result.degraded_gracefully(),
        },
        "passed": result.passed(),
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def format_chaos(result: ChaosCampaignResult) -> str:
    """The chaos gate: fault schedule, recovery actions, invariants."""
    hours = result.horizon / 3600.0
    verdict = "PASS" if result.passed() else "FAIL"
    lines = [
        f"Chaos campaign on kernel {result.kernel_version} "
        f"({hours:.1f}h virtual, {result.workers} workers, "
        f"{result.shards} hub shard(s)).",
        "  fault schedule:",
    ]
    for window in result.plan.windows:
        lines.append(
            f"    {window.site:<18} [{window.start:8.0f}, {window.end:8.0f}]"
        )
    lines.append(
        f"  recovery: {result.restarts} worker restart(s), "
        f"{result.dropped_entries} dropped hub entrie(s), "
        f"{result.shed} shed inference request(s)"
    )
    lines.append(
        f"  coverage: clean {result.clean.final_edges} edges, "
        f"chaos {result.chaos.final_edges} edges "
        f"({100.0 * result.coverage_ratio:.1f}% of clean, "
        f"peak {result.peak_edges})"
    )
    checks = (
        ("zero corpus-entry loss", result.zero_corpus_loss),
        ("fleet coverage monotone", result.coverage_monotone),
        ("kill+resume bit-identical", result.resume_identical),
        (
            f"degraded gracefully (<={CHAOS_DEGRADATION_PCT:g}%)",
            result.degraded_gracefully(),
        ),
    )
    for name, ok in checks:
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
    lines.append(f"  verdict: {verdict}")
    return "\n".join(lines)


def format_specgen(result) -> str:
    """The spec-inference evaluation: fidelity and the coverage gap.

    ``result`` is a :class:`~repro.specgen.SpecgenCampaignResult`; the
    table shows, per release, how faithful the inferred table is to the
    hand-written stdlib and how much fuzzing coverage survives when the
    generator only knows the inferred specs.
    """
    lines = [
        f"Spec inference evaluation ({result.hours:.1f}h virtual per run, "
        f"size={result.size}, seed={result.seed}).",
        f"{'Kernel':<7} {'Specs':>11} {'KindAcc':>8} {'FlagRec':>8} "
        f"{'ResP/R':>11} {'Edges t/i':>13} {'Ratio':>7} {'Bugs t/i':>9}",
    ]
    for run in result.runs:
        fid = run.fidelity
        specs = f"{fid.matched_syscalls}/{fid.truth_syscalls}"
        res = f"{fid.resource_precision:.2f}/{fid.resource_recall:.2f}"
        edges = f"{run.truth_edges}/{run.inferred_edges}"
        bugs = f"{len(run.truth_bugs)}/{len(run.inferred_bugs)}"
        lines.append(
            f"{run.version:<7} {specs:>11} {fid.kind_accuracy:>8.3f} "
            f"{fid.flag_recall:>8.3f} {res:>11} {edges:>13} "
            f"{run.coverage_ratio:>6.1%} {bugs:>9}"
        )
    for run in result.runs:
        only_truth = sorted(set(run.truth_bugs) - set(run.inferred_bugs))
        only_inferred = sorted(set(run.inferred_bugs) - set(run.truth_bugs))
        if only_truth:
            lines.append(
                f"  {run.version}: bugs only with ground truth: "
                + ", ".join(only_truth)
            )
        if only_inferred:
            lines.append(
                f"  {run.version}: bugs only with inferred specs: "
                + ", ".join(only_inferred)
            )
    return "\n".join(lines)


def specgen_json(result) -> str:
    """Canonical JSON twin of :func:`format_specgen`."""
    return json.dumps(result.to_dict(), sort_keys=True, indent=2)


def format_table2(result: CrashCampaignResult) -> str:
    """Table 2: crashes found during the exhaustive campaign."""
    rows = result.table2_rows()
    runs = len(result.snowplow_crashes)
    header = "".join(f"  run{r + 1}" for r in range(runs))
    lines = [
        "Table 2. Crashes found during the exhaustive fuzzing campaign.",
        f"{'Status':<16}{'Snowplow':>12}{'Syzkaller':>18}",
        f"{'':<16}{header}{header}",
    ]
    new_row = "".join(f"{v:6d}" for v in rows["snowplow_new"]) + "".join(
        f"{v:6d}" for v in rows["syzkaller_new"]
    )
    known_row = "".join(f"{v:6d}" for v in rows["snowplow_known"]) + "".join(
        f"{v:6d}" for v in rows["syzkaller_known"]
    )
    lines.append(f"{'New Crashes':<16}{new_row}")
    lines.append(f"{'Known Crashes':<16}{known_row}")
    total_snow = [
        rows["snowplow_new"][r] + rows["snowplow_known"][r] for r in range(runs)
    ]
    total_syz = [
        rows["syzkaller_new"][r] + rows["syzkaller_known"][r]
        for r in range(runs)
    ]
    total_row = "".join(f"{v:6d}" for v in total_snow) + "".join(
        f"{v:6d}" for v in total_syz
    )
    lines.append(f"{'Total':<16}{total_row}")
    return "\n".join(lines)


def format_table3(crashes: list[TriagedCrash]) -> str:
    """Table 3: new crashes by manifestation and reproducer status."""
    counts: dict[str, list[int]] = {}
    for kind in _TABLE3_ORDER:
        counts.setdefault(_TABLE3_NAMES[kind], [0, 0])
    for crash in crashes:
        name = _TABLE3_NAMES.get(crash.category, "Other")
        bucket = counts.setdefault(name, [0, 0])
        bucket[0 if crash.has_reproducer else 1] += 1
    lines = [
        "Table 3. New crash reports by manifestation.",
        f"{'Category':<30} {'Repro: Yes':>10} {'No':>4}",
    ]
    total_yes = total_no = 0
    for name, (yes, no) in counts.items():
        lines.append(f"{name:<30} {yes:>10d} {no:>4d}")
        total_yes += yes
        total_no += no
    lines.append(f"{'Total':<30} {total_yes:>10d} {total_no:>4d}")
    return "\n".join(lines)


def format_table5(
    results: dict[int, dict[str, list[DirectedResult]]],
    kernel_version: str,
) -> str:
    """Table 5: average time-to-target and success rates."""
    lines = [
        f"Table 5. Directed fuzzing on kernel {kernel_version}: "
        "avg time-to-target in virtual seconds (successes/runs).",
        f"{'Target block':<14}{'SyzDirect':>18}{'Snowplow-D':>18}{'Speedup':>9}",
    ]
    both_syz_total = 0.0
    both_snow_total = 0.0
    both = 0
    for target, modes in sorted(results.items()):
        cells = {}
        for mode in ("syzdirect", "snowplow_d"):
            runs = modes[mode]
            times = [r.time_to_target for r in runs if r.reached]
            hits = len(times)
            if hits:
                cells[mode] = (float(np.mean(times)), hits, len(runs))
            else:
                cells[mode] = (None, 0, len(runs))
        syz_time, syz_hits, total_runs = cells["syzdirect"]
        snow_time, snow_hits, _ = cells["snowplow_d"]
        syz_cell = (
            f"{syz_time:8.0f} ({syz_hits}/{total_runs})"
            if syz_time is not None else f"      NA (0/{total_runs})"
        )
        snow_cell = (
            f"{snow_time:8.0f} ({snow_hits}/{total_runs})"
            if snow_time is not None else f"      NA (0/{total_runs})"
        )
        if syz_time is not None and snow_time is not None:
            speedup = f"{syz_time / max(snow_time, 1e-9):8.1f}"
            both_syz_total += syz_time
            both_snow_total += snow_time
            both += 1
        elif snow_time is not None:
            speedup = "     INF"
        else:
            speedup = "      NA"
        lines.append(f"{target:<14}{syz_cell:>18}{snow_cell:>18}{speedup:>9}")
    if both and both_snow_total > 0:
        lines.append(
            f"{'Subtotal':<14}{both_syz_total:>10.0f}{both_snow_total:>18.0f}"
            f"{both_syz_total / both_snow_total:>17.1f}"
        )
    return "\n".join(lines)
