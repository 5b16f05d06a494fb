"""PR 10 patch-impact gate: directed-vs-plain time-to-changed-surface.

The seeded campaign pair behind the committed ``BENCH_PR10.json``
baseline: both arms run the identical oracle Snowplow loop on tiny/6.9
from the same seed corpus, the plain arm carrying an observe-only
:class:`~repro.analyze.impact.PatchDirector` (bit-identical to an
undirected run) that merely records when each changed block of the
6.8→6.9 diff is first covered, the directed arm actively scheduling
distance-ranked targets with pending-slot steering.

Headline metrics, which like every other series in the baseline must
reproduce exactly:

- ``directed_latency_vseconds`` — virtual time until the directed arm
  has covered every fuzzable changed block;
- ``directed_plain_latency_ratio`` — directed over plain time-to-all,
  bounded at <= 0.5;
- ``targets_completed_fraction`` — share of fuzzable changed blocks
  the directed arm reached.
"""

from benchmarks.conftest import gate_metrics, write_result
from repro.analyze import (
    DependencyOracle,
    DistanceField,
    ReachabilityAnalysis,
    build_target_manifest,
    compute_impact,
    run_impact_checks,
    strict_failures,
)
from repro.kernel import build_kernel
from repro.snowplow import run_patch_campaign
from repro.snowplow.campaign import fuzz_campaign_config

MAX_DIRECTED_RATIO = 0.5
HOURS = 2.0


def _patch_campaign():
    old = build_kernel("6.8", seed=1, size="tiny")
    new = build_kernel("6.9", seed=1, size="tiny")
    report = compute_impact(old, new)
    reach = ReachabilityAnalysis(new)
    oracle = DependencyOracle(new)
    manifest = build_target_manifest(
        old, new, report=report, reach=reach, oracle=oracle
    )
    config = fuzz_campaign_config(HOURS, 0, 50)
    result = run_patch_campaign(old, new, config, manifest=manifest)
    findings = run_impact_checks(report, manifest, old, new)
    return old, new, report, manifest, result, findings


def test_bench_pr10_impact_gate(benchmark):
    old, new, report, manifest, result, findings = benchmark.pedantic(
        _patch_campaign, rounds=1, iterations=1
    )

    counts = manifest.counts()
    field = DistanceField(new, manifest.fuzzable_blocks())
    ratio = (
        result.directed_time / result.plain_time
        if result.plain_time else float("inf")
    )

    metrics = {
        "bench.impact.directed_latency_vseconds": round(
            result.directed_time, 1
        ),
        "bench.impact.directed_plain_latency_ratio": round(ratio, 4),
        "bench.impact.targets_completed_fraction": round(
            result.targets_reached_fraction(), 4
        ),
        # Shape-of-the-diff context.
        "bench.impact.changed_blocks": float(len(report.changed_blocks())),
        "bench.impact.changed_predicates": float(
            len(report.changed_predicates)
        ),
        "bench.impact.targets_solvable": float(counts["solvable"]),
        "bench.impact.targets_unsteerable": float(counts["unsteerable"]),
        "bench.impact.targets_unreachable": float(counts["unreachable"]),
        "bench.impact.distance_finite_fraction": round(
            field.finite_fraction(), 4
        ),
        "bench.impact.plain_time_vseconds": round(result.plain_time, 1),
        "bench.impact.lint_findings": float(len(findings)),
    }
    gate_metrics("BENCH_PR10.json", metrics)

    write_result("BENCH_PR10.txt", "\n".join([
        f"PR 10 patch-impact gate (tiny/{old.version}->{new.version}, "
        f"oracle-steered, {HOURS:.1f}h virtual per arm).",
        "",
        f"diff: {len(report.changed_blocks())} changed blocks in "
        f"{len(report.added_handlers)} added + "
        f"{sum(1 for d in report.handlers if d.status == 'modified')} "
        f"modified handlers; {len(report.changed_predicates)} changed "
        f"predicates, {len(report.touched_bugs)} touched bug chain(s)",
        f"manifest: {counts['solvable']} solvable, "
        f"{counts['unsteerable']} unsteerable, "
        f"{counts['unreachable']} unreachable "
        f"(distance field sees {field.finite_fraction():.1%} of the "
        f"kernel)",
        f"directed: all targets by t={result.directed_time:,.0f}s "
        f"(complete={result.directed_complete}); plain: "
        f"t={result.plain_time:,.0f}s (complete={result.plain_complete})",
        f"ratio: {ratio:.3f} (bound {MAX_DIRECTED_RATIO})",
    ]))

    # The ISSUE acceptance bounds: every changed block classified, the
    # stock diff lints clean under --strict, the directed arm reaches
    # the whole fuzzable changed surface, and it does so in at most
    # half the plain arm's virtual time.
    assert {t.block_id for t in manifest.targets} == set(
        report.changed_blocks()
    )
    assert not strict_failures(findings)
    assert result.directed_complete
    assert result.targets_reached_fraction() == 1.0
    assert ratio <= MAX_DIRECTED_RATIO
