"""PR 5 trajectory gate: the static-analysis stack.

Three deterministic headline groups feed the committed ``BENCH_PR5.json``
baseline:

- analysis cost: wall-time (untagged, machine-dependent, never gated)
  plus dead-block and finding counts per stock release;
- the Table-1 upper bound: the static oracle scores 1.0 against its own
  ground truth by construction, the trained PMM lands below it, and the
  PMM score is direction-tagged so drops fail ``flag_regressions``;
- directed steering: oracle-augmented SyzDirect must reach its targets
  with no more executions than the plain heuristic.
"""

import time

from benchmarks.conftest import gate_metrics, write_result
from repro.analyze import (
    DependencyOracle,
    ReachabilityAnalysis,
    StaticOracleLocalizer,
    run_kernel_checks,
    static_truths,
    strict_failures,
)
from repro.fuzzer import RandomLocalizer
from repro.fuzzer.directed import DirectedFuzzer, SyzDirectLocalizer
from repro.kernel import Executor, build_kernel
from repro.pmm import DatasetConfig, PMMConfig, TrainConfig, evaluate_selector
from repro.rng import derive_seed, make_rng, split
from repro.snowplow import CampaignConfig, format_table1, train_pmm
from repro.snowplow.campaign import default_directed_targets
from repro.syzlang import ProgramGenerator
from repro.vclock import VirtualClock

RELEASES = ("6.8", "6.9", "6.10")


def _analysis_pass():
    """Full static pass over each stock release (tiny scale)."""
    rows = {}
    for version in RELEASES:
        kernel = build_kernel(version, seed=1, size="tiny")
        start = time.perf_counter()
        reach = ReachabilityAnalysis(kernel)
        oracle = DependencyOracle(kernel)
        dead = reach.dead_blocks()
        findings = run_kernel_checks(kernel, reach, oracle)
        wall = time.perf_counter() - start
        rows[version] = {
            "kernel": kernel,
            "wall": wall,
            "blocks": len(kernel.blocks),
            "dead": len(dead),
            "warnings": sum(1 for f in findings if f.severity == "warning"),
            "errors": len(strict_failures(findings)),
        }
    return rows


def _oracle_gap(kernel):
    """Static oracle vs trained PMM vs random on the eval split."""
    trained = train_pmm(
        kernel,
        seed=0,
        corpus_size=30,
        dataset_config=DatasetConfig(
            mutations_per_test=60, seed=derive_seed(0, "d")
        ),
        pmm_config=PMMConfig(dim=32, seed=derive_seed(0, "m")),
        train_config=TrainConfig(epochs=2, seed=derive_seed(0, "t")),
    )
    dataset = trained.dataset
    holdout = dataset.evaluation[:150]
    localizer = StaticOracleLocalizer(kernel)
    truths = static_truths(localizer, dataset.programs, holdout)
    oracle_metrics = evaluate_selector(
        [
            set(localizer.target_paths(
                dataset.programs[e.base_index], e.targets
            ))
            for e in holdout
        ],
        truths,
    )
    pmm_metrics = evaluate_selector(
        [
            set(trained.model.predict_paths(
                dataset.encode_example(e, kernel, trained.encoder)
            ))
            for e in holdout
        ],
        truths,
    )
    rng = make_rng(9)
    random_metrics = evaluate_selector(
        [
            set(RandomLocalizer(3).localize(
                dataset.programs[e.base_index], None, None, rng
            ))
            for e in holdout
        ],
        truths,
    )
    return oracle_metrics, pmm_metrics, random_metrics, len(holdout)


def _directed_executions(kernel, oracle):
    """Executions-to-target for plain vs oracle-steered SyzDirect.

    Both modes share each run's seed corpus and RNG streams, so the only
    difference is the localizer."""
    config = CampaignConfig(horizon=4 * 3600.0, seed=5)
    targets = default_directed_targets(kernel, count=6)
    runs = 3
    totals = {"plain": 0, "oracle": 0}
    reached = {"plain": 0, "oracle": 0}
    for target in targets:
        syscall = kernel.handler_of_block.get(target, "")
        for run in range(runs):
            run_seed = derive_seed(config.seed, "pr5-directed", target, run)
            seeds = ProgramGenerator(
                kernel.table, split(run_seed, "seed-corpus")
            ).seed_corpus(10)
            for mode in ("plain", "oracle"):
                localizer = SyzDirectLocalizer(
                    syscall, oracle=oracle if mode == "oracle" else None
                )
                fuzzer = DirectedFuzzer(
                    kernel=kernel,
                    target_block=target,
                    executor=Executor(
                        kernel, seed=derive_seed(run_seed, "exec")
                    ),
                    generator=ProgramGenerator(
                        kernel.table, split(run_seed, "gen")
                    ),
                    localizer=localizer,
                    clock=VirtualClock(horizon=config.horizon),
                    cost=config.cost,
                    rng=split(run_seed, "loop"),
                )
                fuzzer.seed([program.clone() for program in seeds])
                result = fuzzer.run()
                totals[mode] += result.executions
                reached[mode] += int(result.reached)
    return targets, totals, reached


def test_bench_pr5_analyze_gate(benchmark):
    rows = benchmark.pedantic(_analysis_pass, rounds=1, iterations=1)
    kernel_68 = rows["6.8"]["kernel"]
    oracle_68 = DependencyOracle(kernel_68)

    oracle_m, pmm_m, random_m, examples = _oracle_gap(kernel_68)
    targets, totals, reached = _directed_executions(kernel_68, oracle_68)

    metrics = {}
    for version, row in rows.items():
        tag = version.replace(".", "_")
        # Wall time is machine-dependent: recorded for trend reading,
        # untagged so flag_regressions never gates on it.
        metrics[f"bench.analyze.wall_seconds_{tag}"] = round(row["wall"], 3)
        metrics[f"bench.analyze.blocks_{tag}"] = float(row["blocks"])
        metrics[f"bench.analyze.dead_blocks_{tag}"] = float(row["dead"])
        metrics[f"bench.analyze.warnings_{tag}"] = float(row["warnings"])
    # "productive" marks the PMM score lower-is-worse for the gate.
    metrics["bench.analyze.pmm_productive_f1"] = round(pmm_m.f1, 4)
    metrics["bench.analyze.oracle_gap_f1"] = round(
        oracle_m.f1 - pmm_m.f1, 4
    )
    metrics["bench.analyze.directed_execs_plain"] = float(totals["plain"])
    metrics["bench.analyze.directed_execs_oracle"] = float(totals["oracle"])
    gate_metrics("BENCH_PR5.json", metrics)

    table = format_table1(pmm_m, random_m, "Rand.3", static_oracle=oracle_m)
    lines = [
        "PR 5 static-analysis gate.",
        "",
        f"{'Release':<8} {'Blocks':>7} {'Dead':>5} {'Warn':>5} "
        f"{'Err':>4} {'Wall(s)':>8}",
    ]
    for version, row in rows.items():
        lines.append(
            f"{version:<8} {row['blocks']:>7} {row['dead']:>5} "
            f"{row['warnings']:>5} {row['errors']:>4} {row['wall']:>8.3f}"
        )
    lines += [
        "",
        f"{table}",
        f"(static truth over {examples} eval examples)",
        "",
        f"Directed (targets {targets}, 3 runs each): "
        f"plain SyzDirect {totals['plain']} execs "
        f"({reached['plain']}/{3 * len(targets)} reached), "
        f"oracle-steered {totals['oracle']} execs "
        f"({reached['oracle']}/{3 * len(targets)} reached)",
    ]
    write_result("BENCH_PR5.txt", "\n".join(lines))

    # Stock releases must be --strict clean.
    assert all(row["errors"] == 0 for row in rows.values())
    # Dead blocks exist and the analysis sees every block.
    assert all(row["dead"] > 0 for row in rows.values())
    # The oracle is exact against the static truth; the PMM is not.
    assert oracle_m.precision == oracle_m.recall == 1.0
    assert pmm_m.f1 < 1.0
    assert pmm_m.f1 > random_m.f1
    # Exact steering slots must not cost executions.
    assert reached["oracle"] >= reached["plain"]
    assert totals["oracle"] <= totals["plain"]
