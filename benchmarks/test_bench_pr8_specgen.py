"""PR 8 trajectory gate: the spec-inference subsystem.

Headline groups feeding the committed ``BENCH_PR8.json`` baseline,
which every series must reproduce exactly:

- inferred-surface counts per stock release and a hard round-trip
  assert on the emitted syzlang (the inference wall time is
  machine-dependent, so it appears only in the text table);
- fidelity vs. the hand-written stdlib: argument-kind accuracy,
  flag-domain recall, and resource-edge recall per release;
- the no-ground-truth cost: inferred-vs-truth coverage ratio on the
  seeded 6.8 evaluation campaign, floored at 0.70.
"""

import time

from benchmarks.conftest import gate_metrics, write_result
from repro.analyze import strict_failures, table_mismatch_findings
from repro.kernel import build_kernel
from repro.specgen import (
    diff_tables,
    infer_specs,
    parse_table,
    run_specgen_campaign,
    serialize_table,
)
from repro.syzlang import build_standard_table

RELEASES = ("6.8", "6.9", "6.10")
MIN_COVERAGE_RATIO = 0.70


def _inference_pass():
    """Infer + emit + round-trip + score every stock release (tiny)."""
    rows = {}
    for version in RELEASES:
        kernel = build_kernel(version, seed=1, size="tiny")
        start = time.perf_counter()
        table, report = infer_specs(kernel)
        text = serialize_table(table)
        round_trips = parse_table(text) == table
        wall = time.perf_counter() - start
        fidelity = diff_tables(
            table, build_standard_table(version), version=version
        )
        rows[version] = {
            "kernel": kernel,
            "table": table,
            "report": report,
            "fidelity": fidelity,
            "wall": wall,
            "round_trips": round_trips,
        }
    return rows


def test_bench_pr8_specgen_gate(benchmark):
    rows = benchmark.pedantic(_inference_pass, rounds=1, iterations=1)

    campaign = run_specgen_campaign(
        versions=("6.8",), seed=0, kernel_seed=1, size="tiny",
        hours=0.3, seed_corpus=10,
    )
    run_68 = campaign.run_for("6.8")

    metrics = {}
    for version, row in rows.items():
        tag = version.replace(".", "_")
        fidelity = row["fidelity"]
        report = row["report"]
        metrics[f"bench.specgen.syscalls_{tag}"] = float(report.syscalls)
        metrics[f"bench.specgen.flag_bits_{tag}"] = float(report.flag_bits)
        metrics[f"bench.specgen.kind_accuracy_productive_{tag}"] = round(
            fidelity.kind_accuracy, 4
        )
        metrics[f"bench.specgen.flag_recall_productive_{tag}"] = round(
            fidelity.flag_recall, 4
        )
        metrics[f"bench.specgen.resource_recall_productive_{tag}"] = round(
            fidelity.resource_recall, 4
        )
    metrics["bench.specgen.coverage_ratio_productive_6_8"] = round(
        run_68.coverage_ratio, 4
    )
    metrics["bench.specgen.inferred_edges_6_8"] = float(
        run_68.inferred_edges
    )
    gate_metrics("BENCH_PR8.json", metrics)

    lines = [
        "PR 8 spec-inference gate.",
        "",
        f"{'Release':<8} {'Specs':>6} {'Bits':>5} {'KindAcc':>8} "
        f"{'FlagRec':>8} {'ResRec':>7} {'RT':>3} {'Wall(s)':>8}",
    ]
    for version, row in rows.items():
        fidelity = row["fidelity"]
        lines.append(
            f"{version:<8} {row['report'].syscalls:>6} "
            f"{row['report'].flag_bits:>5} "
            f"{fidelity.kind_accuracy:>8.3f} {fidelity.flag_recall:>8.3f} "
            f"{fidelity.resource_recall:>7.3f} "
            f"{'ok' if row['round_trips'] else 'NO':>3} {row['wall']:>8.3f}"
        )
    lines += [
        "",
        f"Seeded 6.8 campaign ({campaign.hours:.1f}h virtual): "
        f"truth {run_68.truth_edges} edges, inferred "
        f"{run_68.inferred_edges} edges "
        f"(ratio {run_68.coverage_ratio:.1%}, floor "
        f"{MIN_COVERAGE_RATIO:.0%}); bugs truth={list(run_68.truth_bugs)} "
        f"inferred={list(run_68.inferred_bugs)}",
    ]
    write_result("BENCH_PR8.txt", "\n".join(lines))

    for version, row in rows.items():
        # Emitted syzlang must round-trip losslessly on every release.
        assert row["round_trips"], version
        # Every handler gets a spec; the inferred table is lint-clean
        # against its own kernel.
        assert row["fidelity"].syscall_coverage == 1.0
        assert not strict_failures(
            table_mismatch_findings(row["kernel"], row["table"])
        )
    # The ISSUE acceptance bound: inferred-spec fuzzing keeps >= 70%
    # of ground-truth coverage on the seeded 6.8 campaign.
    assert run_68.coverage_ratio >= MIN_COVERAGE_RATIO
