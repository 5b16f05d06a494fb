"""Command-line interface.

Subcommands mirror the Snowplow workflow::

    python -m repro.cli build-kernel --version 6.8 --seed 1
    python -m repro.cli train --kernel 6.8 --out pmm.npz
    python -m repro.cli fuzz --kernel 6.8 --model pmm.npz --hours 2
    python -m repro.cli fuzz --kernel 6.9 --baseline --hours 2
    python -m repro.cli fuzz --kernel 6.8 --model pmm.npz --workers 4
    python -m repro.cli cluster --kernel 6.8 --oracle --worker-counts 1,2,4
    python -m repro.cli triage --kernel 6.8 --prog crash.syz
    python -m repro.cli exec --kernel 6.8 --prog test.syz
    python -m repro.cli fuzz --kernel 6.8 --oracle --observe-dir out/
    python -m repro.cli observe render out/spans.jsonl --chrome trace.json
    python -m repro.cli observe render out/spans.jsonl --lineage
    python -m repro.cli observe explain bugs --dir out/
    python -m repro.cli observe explain edge:12-83 --dir out/
    python -m repro.cli observe diff old/metrics.json new/metrics.json
    python -m repro.cli observe check out/metrics.json --require fuzz.executions
    python -m repro.cli observe check out/metrics.json --slo default
    python -m repro.cli observe report out/ --slo default
    python -m repro.cli analyze kernel --releases 6.8,6.9,6.10 --strict
    python -m repro.cli analyze corpus --kernel 6.8 --seed-corpus 100
    python -m repro.cli analyze oracle --kernel 6.8 --compare-pmm
    python -m repro.cli analyze impact 6.8 6.9 --strict --manifest targets.json
    python -m repro.cli fuzz --directed patch:6.8..6.9 --oracle --hours 2

Analyze subcommands share one exit-code contract: 0 clean, 1 when
``--strict`` trips on findings (or a gate fails), 2 on internal errors
(bad inputs, crashes) — so CI can tell "the lint found something" from
"the lint itself broke".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.kernel import KNOWN_SIZES, Executor, build_kernel
from repro.observe import (
    Observer,
    SLOEngine,
    alerts_json,
    attribution_table,
    campaign_report,
    chrome_trace,
    coverage_waterfall,
    diff_snapshots,
    flag_regressions,
    flame_summary,
    format_attribution,
    format_chain,
    format_diff,
    format_waterfall,
    lineage_dot,
    load_lineage,
    load_spans_jsonl,
    load_timeseries,
    model_quality_summary,
    resolve_target,
)
from repro.observe.slo import DEFAULT_PACKS
from repro.pmm import DatasetConfig, PMMConfig, TrainConfig
from repro.pmm.checkpoint import save_pmm
from repro.rng import derive_seed
from repro.cluster import ClusterConfig
from repro.snowplow import (
    CampaignConfig,
    build_cluster,
    build_fuzz_loop,
    chaos_json,
    format_chaos,
    format_scaling,
    fuzz_campaign_config,
    fuzz_run_seed,
    run_chaos_campaign,
    run_scaling_campaign,
    scaling_json,
    train_pmm,
)
from repro.snowplow.campaign import (
    TrainedPMM,
    campaign_seeds,
    check_campaign_shape,
)
from repro.syzlang import parse_program, serialize_program

__all__ = ["main"]


# ----- shared flag groups: one declaration per flag meaning -----


def _add_build_args(parser: argparse.ArgumentParser) -> None:
    """How a release is built: ``--kernel-seed`` and ``--size``."""
    parser.add_argument("--kernel-seed", type=int, default=1)
    parser.add_argument("--size", default="default", choices=KNOWN_SIZES)


def _add_kernel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", default="6.8",
                        help="kernel version (6.8/6.9/6.10)")
    _add_build_args(parser)


def _add_releases(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--releases", default=None,
                        help="comma-separated kernel versions (overrides "
                             "--kernel; with several, findings get a "
                             "version/ location prefix)")


def _add_oracle(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--oracle", action="store_true",
                        help="use the white-box oracle localizer (no model)")


def _add_observe_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--observe-dir", default=None,
                        help="export this command's telemetry (metrics, "
                             "time series, traces) under this directory")


def _add_strict(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when the command's gate fails: an "
                             "error-severity finding, a violated floor, "
                             "or any SLO alert")


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of text "
                             "(exit codes are unchanged)")


def _add_heartbeat_deadline(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--heartbeat-deadline", type=float, default=None,
                        help="virtual seconds of worker silence before a "
                             "fleet supervisor restarts it (setting it "
                             "attaches one; cluster chaos defaults to 900)")


def _add_fleet_args(parser: argparse.ArgumentParser) -> None:
    """The shape of a service's fleet, read only when creating one."""
    parser.add_argument("--fleet-size", type=int, default=4,
                        help="shared fleet worker slots (only when this "
                             "command creates the service)")
    parser.add_argument("--time-slice", type=float, default=1800.0,
                        help="virtual seconds per scheduling slice (only "
                             "when this command creates the service)")


def _add_training_args(
    parser: argparse.ArgumentParser,
    corpus_size: int, mutations: int, epochs: int,
) -> None:
    """The PMM training group of ``train`` and ``analyze oracle``."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--corpus-size", type=int, default=corpus_size)
    parser.add_argument("--mutations", type=int, default=mutations)
    parser.add_argument("--epochs", type=int, default=epochs)
    parser.add_argument("--dim", type=int, default=32)


def _add_program_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prog", required=True, help="program file")
    parser.add_argument("--seed", type=int, default=0)


def _add_campaign_args(
    parser: argparse.ArgumentParser, workers: int = 1
) -> None:
    """The campaign flags ``fuzz``, ``cluster`` and ``submit`` share."""
    parser.add_argument("--model", help="PMM checkpoint (Snowplow mode)")
    parser.add_argument("--baseline", action="store_true",
                        help="run plain Syzkaller instead of Snowplow")
    parser.add_argument("--hours", type=float, default=1.0,
                        help="virtual hours to fuzz (per worker)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seed-corpus", type=int, default=100)
    parser.add_argument("--workers", type=int, default=workers,
                        help="fleet size; >1 runs a hub-synced cluster "
                             "(the cluster command reads it in chaos mode)")
    parser.add_argument("--shards", type=int, default=1,
                        help="corpus-hub shards; >1 enables the sharded "
                             "hub (fleets only)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="serving-tier max batch size "
                             "(1 disables batching)")


# ----- shared handler mechanisms -----


def _write(path, text: str) -> None:
    """Write one output file, creating its parent directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _releases(args) -> list[str]:
    """``--releases`` (or ``--kernel``) as a list of versions."""
    return [
        piece for piece in (args.releases or args.kernel).split(",") if piece
    ]


def _train(args, kernel, epochs: int):
    """``train_pmm`` set up from the training flag group."""
    return train_pmm(
        kernel,
        seed=args.seed,
        corpus_size=args.corpus_size,
        dataset_config=DatasetConfig(
            mutations_per_test=args.mutations, seed=derive_seed(args.seed, "d")
        ),
        pmm_config=PMMConfig(dim=args.dim, seed=derive_seed(args.seed, "m")),
        train_config=TrainConfig(
            epochs=epochs, seed=derive_seed(args.seed, "t")
        ),
    )


def _load_program(args):
    """The kernel and the ``--prog`` program parsed against its table."""
    kernel = build_kernel(args.kernel, seed=args.kernel_seed, size=args.size)
    with open(args.prog) as handle:
        program = parse_program(handle.read(), kernel.table)
    return kernel, program


def _gate(args, failures, summary: str) -> int:
    """The ``--strict`` exit contract: 1 when a gate check failed."""
    if args.strict and failures:
        print(f"--strict: {summary}", file=sys.stderr)
        return 1
    return 0


def _floor_gate(args, checks, what: str) -> int:
    """Report every ``(version, name, value, floor)`` check whose value
    is below its floor, then apply :func:`_gate`."""
    failures = [
        f"{version}: {name} {value:.3f} below floor {floor:.3f}"
        for version, name, value, floor in checks
        if value < floor
    ]
    for failure in failures:
        print(f"  [floor] {failure}", file=sys.stderr)
    return _gate(args, failures, f"{len(failures)} {what} floor(s) violated")


def _cmd_build_kernel(args) -> int:
    kernel = build_kernel(args.kernel, seed=args.kernel_seed, size=args.size)
    print(f"kernel {kernel.version}: {kernel.block_count} blocks, "
          f"{kernel.static_edge_count} static edges, "
          f"{len(kernel.table)} syscall variants, "
          f"{len(kernel.bugs)} planted bugs")
    for subsystem in kernel.table.subsystems():
        blocks = len(kernel.blocks_of_subsystem(subsystem))
        print(f"  {subsystem:<14} {blocks:>6} blocks")
    return 0


def _cmd_train(args) -> int:
    kernel = build_kernel(args.kernel, seed=args.kernel_seed, size=args.size)
    trained = _train(args, kernel, args.epochs)
    if trained.validation is not None:
        print(f"validation F1: {trained.validation.f1:.3f} "
              f"(threshold {trained.model.decision_threshold:.2f})")
    save_pmm(args.out, trained.model, trained.vocab, kernel.table)
    print(f"checkpoint written to {args.out}")
    return 0


def _missing_model(args) -> bool:
    """Report a campaign given none of --model, --baseline, --oracle."""
    if args.model or args.baseline or args.oracle:
        return False
    print("--model is required unless --baseline or --oracle is given",
          file=sys.stderr)
    return True


def _trained(args, kernel) -> TrainedPMM | None:
    """The ``--model`` PMM, or None for --baseline/--oracle."""
    if args.baseline or args.oracle:
        return None
    return TrainedPMM.load(args.model, kernel.table)


def _fuzz_config(args, version: str) -> CampaignConfig:
    """The campaign flags as a config, once their shape is checked
    against ``version``, the release the command fuzzes."""
    check_campaign_shape(
        version, args.hours, args.seed_corpus, args.workers, args.shards,
        args.batch_size,
    )
    return fuzz_campaign_config(
        args.hours, args.seed, args.seed_corpus, args.batch_size
    )


def _export_observer(observer: Observer | None, directory) -> None:
    if observer is None:
        return
    paths = observer.export(directory)
    print(f"  telemetry: {', '.join(sorted(paths))} -> {directory}")


def _parse_directed_spec(spec: str) -> tuple[str, str] | None:
    """``patch:<from>..<to>`` -> (from, to), or None when malformed."""
    if not spec.startswith("patch:"):
        return None
    from_version, sep, to_version = spec[len("patch:"):].partition("..")
    if not sep or not from_version or not to_version:
        return None
    return from_version, to_version


def _cmd_fuzz(args) -> int:
    directed_versions = None
    if args.directed:
        directed_versions = _parse_directed_spec(args.directed)
        if directed_versions is None:
            print(f"bad --directed spec {args.directed!r} "
                  f"(expected patch:<from>..<to>)", file=sys.stderr)
            return 2
        if args.baseline:
            print("--directed needs the Snowplow loop; drop --baseline",
                  file=sys.stderr)
            return 2
        if args.workers > 1:
            print("--directed runs single-worker; drop --workers",
                  file=sys.stderr)
            return 2
    version = directed_versions[1] if directed_versions else args.kernel
    config = _fuzz_config(args, version)
    kernel = build_kernel(version, seed=args.kernel_seed, size=args.size)
    run_seed = fuzz_run_seed(args.seed, kernel.version)
    if _missing_model(args):
        return 2
    trained = _trained(args, kernel)
    observer = (
        Observer(slo=SLOEngine(DEFAULT_PACKS["default"]()))
        if args.observe_dir else None
    )
    label = "syzkaller" if args.baseline else "snowplow"
    if args.workers > 1:
        result = build_cluster(
            kernel, trained, run_seed, config,
            cluster_config=ClusterConfig(
                workers=args.workers, shards=args.shards,
            ),
            baseline=args.baseline, oracle=args.oracle, observer=observer,
        ).run()
        stats = result.merged
        print(f"[{label} x{args.workers}] {args.hours:.1f} virtual hours on "
              f"{kernel.version}: {result.final_edges} fleet edges, "
              f"{result.final_blocks} blocks, {stats.executions} executions, "
              f"hub {result.hub_stats.accepted} entries "
              f"({result.hub_stats.duplicates} duplicates)")
        for worker_id, worker_stats in enumerate(result.worker_stats):
            print(f"  worker {worker_id}: {worker_stats.final_edges} edges, "
                  f"{worker_stats.executions} executions, "
                  f"pushed {worker_stats.hub_pushed}, "
                  f"pulled {worker_stats.hub_pulled}")
        if result.service_stats is not None:
            service = result.service_stats
            print(f"  inference: {service.completed} completed, "
                  f"mean batch {service.mean_batch_size:.2f}, "
                  f"p95 queue delay {service.p95_queue_delay:.0f}s")
        return _finish_fuzz(args, stats, observer)
    analysis = None
    if args.skip_dead_targets and not args.baseline:
        from repro.analyze import ReachabilityAnalysis

        analysis = ReachabilityAnalysis(kernel, observer=observer)
        print(f"static analysis: {len(analysis.dead_blocks())} dead "
              f"blocks will be skipped as directed targets")
    director = None
    if directed_versions is not None:
        from repro.analyze import PatchDirector, build_target_manifest

        old = build_kernel(
            directed_versions[0], seed=args.kernel_seed, size=args.size
        )
        manifest = build_target_manifest(old, kernel)
        counts = manifest.counts()
        director = PatchDirector(kernel, manifest, observer=observer)
        print(f"patch {old.version} -> {kernel.version}: "
              f"{len(director.targets)} fuzzable changed block(s) "
              f"({counts['solvable']} solvable, "
              f"{counts['unsteerable']} unsteerable, "
              f"{counts['unreachable']} statically unreachable)")
    stats = build_fuzz_loop(
        kernel, trained, run_seed, config, baseline=args.baseline,
        oracle=args.oracle, observer=observer, analysis=analysis,
        director=director,
    ).run()
    print(f"[{label}] {args.hours:.1f} virtual hours on {kernel.version}: "
          f"{stats.final_edges} edges, {stats.final_blocks} blocks, "
          f"{stats.executions} executions, corpus {stats.corpus_size}")
    if getattr(stats, "dead_targets_skipped", 0):
        print(f"  skipped {stats.dead_targets_skipped} statically dead "
              f"frontier targets")
    if director is not None:
        reached = len(director.reached_at)
        total = len(director.targets)
        if director.complete and total:
            last = max(director.reached_at.values())
            print(f"  directed: all {total} changed blocks reached "
                  f"(last at t={last / 3600.0:.2f}h)")
        else:
            print(f"  directed: {reached}/{total} changed blocks reached "
                  f"by the horizon")
    for observation in stats.observations[:: max(len(stats.observations) // 8, 1)]:
        print(f"  t={observation.time / 3600.0:5.2f}h "
              f"edges={observation.edges}")
    return _finish_fuzz(args, stats, observer)


def _finish_fuzz(args, stats, observer) -> int:
    """The tail of both ``fuzz`` paths: crash lines, then telemetry."""
    for crash in stats.crashes:
        tag = "NEW" if crash.is_new else "known"
        print(f"  crash [{tag}] {crash.signature}")
    _export_observer(observer, args.observe_dir)
    return 0


def _cmd_cluster(args) -> int:
    config = _fuzz_config(args, args.kernel)
    kernel = build_kernel(args.kernel, seed=args.kernel_seed, size=args.size)
    if args.mode == "chaos":
        return _cmd_cluster_chaos(args, kernel, config)
    try:
        counts = tuple(
            int(piece) for piece in args.worker_counts.split(",") if piece
        )
    except ValueError:
        counts = ()
    if not counts or min(counts) < 1:
        print(f"bad --worker-counts {args.worker_counts!r}", file=sys.stderr)
        return 2
    if _missing_model(args):
        return 2
    result = run_scaling_campaign(
        kernel, _trained(args, kernel), config,
        worker_counts=counts,
        cluster_config=ClusterConfig(
            workers=max(counts), sync_interval=args.sync_interval,
            shards=args.shards,
            heartbeat_deadline=args.heartbeat_deadline,
        ),
        baseline=args.baseline, oracle=args.oracle,
        observe=bool(args.observe_dir),
    )
    print(scaling_json(result) if args.json else format_scaling(result))
    if args.observe_dir:
        for point in result.points:
            if point.observer is not None and point.observer.slo is None:
                point.observer.slo = SLOEngine(DEFAULT_PACKS["default"]())
            _export_observer(
                point.observer,
                Path(args.observe_dir) / f"workers{point.workers}",
            )
    return 0


def _cmd_cluster_chaos(args, kernel, config) -> int:
    """The chaos gate: one supervised fleet under the seeded fault plan,
    exiting non-zero unless every robustness invariant holds."""
    if _missing_model(args):
        return 2
    deadline = (
        args.heartbeat_deadline
        if args.heartbeat_deadline is not None else 900.0
    )
    result = run_chaos_campaign(
        kernel, _trained(args, kernel), config,
        cluster_config=ClusterConfig(
            workers=args.workers, sync_interval=args.sync_interval,
            shards=args.shards, heartbeat_deadline=deadline,
        ),
        baseline=args.baseline, oracle=args.oracle,
        observe=bool(args.observe_dir),
    )
    print(chaos_json(result) if args.json else format_chaos(result))
    if args.observe_dir and result.observer is not None:
        if result.observer.slo is None:
            result.observer.slo = SLOEngine(DEFAULT_PACKS["supervision"]())
        _export_observer(result.observer, args.observe_dir)
    # The gate contract: any invariant violation (corpus loss,
    # non-monotone coverage, excessive degradation, non-identical
    # resume) must surface as a non-zero exit, JSON mode included.
    return 0 if result.passed() else 1


# ----- the campaign service (repro.service) -----


def _load_server(args, create: bool = False):
    """The persisted service for --state-dir, or None (with a message)."""
    from repro.service import ServiceServer, load_service, service_exists

    if service_exists(args.state_dir):
        return load_service(args.state_dir)
    if create:
        return ServiceServer(
            fleet_size=args.fleet_size, time_slice=args.time_slice
        )
    print(f"no service state under {args.state_dir} "
          f"(run `repro serve` or `repro submit` first)", file=sys.stderr)
    return None


def _respond(response, as_json: bool) -> int:
    """Print a service response; exit 0 on 2xx, 1 otherwise."""
    if as_json:
        print(response.json())
    elif not response.ok:
        print(f"error {response.status}: "
              f"{response.body.get('error', '')}", file=sys.stderr)
    return 0 if response.ok else 1


def _print_health(server, as_json: bool) -> dict:
    """Print the service health report (or its raw JSON response) and
    return the report body."""
    from repro.service import Request, format_service_health

    health = server.handle(Request("GET", "/health"))
    print(health.json() if as_json else format_service_health(health.body))
    return health.body


def _cmd_serve(args) -> int:
    """Admit + schedule: advance the service clock, then persist."""
    from repro.service import Request, format_service_health, save_service

    server = _load_server(args, create=True)
    server.handle(Request("POST", "/advance", {"until": args.until}))
    save_service(args.state_dir, server)
    health = _print_health(server, args.json)
    if args.report_out:
        _write(args.report_out, format_service_health(health))
        print(f"service health report -> {args.report_out}")
    return 0


def _cmd_submit(args) -> int:
    from repro.service import SPEC_FIELDS, Request, save_service

    server = _load_server(args, create=True)
    # Every CampaignSpec field but these two is a same-named flag.
    params = {
        name: getattr(args, name)
        for name in SPEC_FIELDS if name not in ("mode", "faults")
    }
    params.update(
        mode="baseline" if args.baseline
        else ("model" if args.model else "oracle"),
        faults=json.loads(Path(args.faults).read_text())
        if args.faults else None,
        max_concurrent=args.max_concurrent,
        budget_hours=args.budget_hours,
        priority=args.priority,
    )
    response = server.handle(Request("POST", "/campaigns", params))
    if response.ok:
        save_service(args.state_dir, server)
        if not args.json:
            job = response.body["job"]
            print(f"submitted {job['job_id']} for tenant "
                  f"{job['tenant']}: {job['spec']['mode']} on kernel "
                  f"{job['spec']['kernel']}, {job['spec']['hours']:.1f}h x "
                  f"{job['spec']['workers']} worker(s) [{job['state']}]")
    return _respond(response, args.json)


def _cmd_status(args) -> int:
    from repro.service import Request

    server = _load_server(args)
    if server is None:
        return 2
    if args.campaign:
        response = server.handle(
            Request("GET", f"/campaigns/{args.campaign}")
        )
        if response.ok and not args.json:
            job = response.body["job"]
            done = job["local_now"] / max(job["horizon"], 1.0)
            print(f"{job['job_id']} [{job['tenant']}] {job['state']}: "
                  f"{100.0 * min(done, 1.0):.1f}% of "
                  f"{job['horizon'] / 3600.0:.1f}h"
                  + (f" — {job['message']}" if job["message"] else ""))
        return _respond(response, args.json)
    if args.tenant:
        response = server.handle(Request("GET", f"/tenants/{args.tenant}"))
        if response.ok and not args.json:
            body = response.body
            print(f"tenant {body['tenant']}: {body['running']} running, "
                  f"{body['completed']} done, {body['cancelled']} "
                  f"cancelled, {body['rejected']} rejected; "
                  f"budget {body['budget_remaining']:.1f}h of "
                  f"{body['quota']['budget_hours']:.1f}h left; "
                  f"jobs: {', '.join(body['jobs']) or '(none)'}")
        return _respond(response, args.json)
    _print_health(server, args.json)
    return 0


def _cmd_cancel(args) -> int:
    from repro.service import Request, save_service

    server = _load_server(args)
    if server is None:
        return 2
    response = server.handle(
        Request("POST", f"/campaigns/{args.campaign}/cancel")
    )
    if response.ok:
        save_service(args.state_dir, server)
        if not args.json:
            job = response.body["job"]
            print(f"{job['job_id']}: {job['state']}"
                  + (f" — {job['message']}" if job["message"] else ""))
    return _respond(response, args.json)


# ----- telemetry post-processing -----


def _cmd_observe_render(args) -> int:
    tracer = load_spans_jsonl(Path(args.spans).read_text())
    if args.chrome:
        _write(args.chrome, chrome_trace(tracer))
        print(f"chrome trace written to {args.chrome} "
              f"(load it in https://ui.perfetto.dev or chrome://tracing)")
    if args.lineage:
        lineage_path = Path(args.spans).parent / Observer.LINEAGE_FILE
        if not lineage_path.exists():
            print(f"no lineage at {lineage_path} "
                  f"(campaign exported without provenance?)",
                  file=sys.stderr)
            return 2
        log = load_lineage(lineage_path.read_text())
        dot_path = lineage_path.with_suffix(".dot")
        _write(dot_path, lineage_dot(log))
        print(f"lineage DAG written to {dot_path} "
              f"({len(log.records)} entries, render with `dot -Tsvg`)")
    print(flame_summary(tracer), end="")
    return 0


def _cmd_observe_explain(args) -> int:
    directory = Path(args.dir)
    path = directory / Observer.LINEAGE_FILE
    if not path.exists():
        print(f"no lineage at {path} (run the campaign with "
              f"--observe-dir to export it)", file=sys.stderr)
        return 2
    log = load_lineage(path.read_text())
    if args.table:
        _write(args.table, json.dumps(
            attribution_table(log), sort_keys=True, separators=(",", ":"),
        ) + "\n")
    if args.target == "bugs":
        empty = 0
        for signature in sorted(log.bug_owner):
            kind, resolved, chain = resolve_target(log, f"bug:{signature}")
            print(format_chain(kind, resolved, chain), end="")
            if not chain:
                empty += 1
        print(f"{len(log.bug_owner)} bug(s), {empty} with empty chains")
        print(format_attribution(attribution_table(log)), end="")
        print(format_waterfall(coverage_waterfall(log)), end="")
        return 1 if empty else 0
    try:
        kind, resolved, chain = resolve_target(log, args.target)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 1
    print(format_chain(kind, resolved, chain), end="")
    return 0 if chain else 1


def _cmd_observe_diff(args) -> int:
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    print(format_diff(diff_snapshots(old, new)), end="")
    regressions = flag_regressions(old, new, threshold_pct=args.threshold)
    if regressions:
        print(f"{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0f}%:")
        for regression in regressions:
            print(f"  {regression.describe()}")
        return 1
    return 0


def _load_slo_store(args):
    """The time-series store named by ``--timeseries`` (or the
    ``timeseries.json`` sibling of the metrics file)."""
    path = Path(
        args.timeseries
        if args.timeseries
        else Path(args.metrics).parent / Observer.TIMESERIES_FILE
    )
    if not path.exists():
        print(f"no time-series at {path}", file=sys.stderr)
        return None
    return load_timeseries(path.read_text())


def _evaluate_slo(pack: str, store) -> tuple[list, list]:
    rules = DEFAULT_PACKS[pack]()
    return rules, SLOEngine(rules).evaluate(store)


def _cmd_observe_check(args) -> int:
    snapshot = json.loads(Path(args.metrics).read_text())
    keys: set[str] = set()
    for kind in ("counters", "gauges", "histograms"):
        keys.update(snapshot.get(kind, {}))
    missing = [
        required for required in args.require
        if not any(required in key for key in keys)
    ]
    for required in missing:
        print(f"missing expected series: {required!r}", file=sys.stderr)
    if missing:
        return 1
    print(f"all {len(args.require)} expected series present "
          f"({len(keys)} series in snapshot)")
    if args.slo is None:
        return 0
    store = _load_slo_store(args)
    if store is None:
        return 1
    rules, alerts = _evaluate_slo(args.slo, store)
    for alert in alerts:
        print(f"  [{alert.severity}] t={alert.time:,.0f}s "
              f"{alert.rule}: {alert.message}")
    critical = [alert for alert in alerts if alert.severity == "critical"]
    print(f"slo pack {args.slo!r}: {len(rules)} rule(s), "
          f"{len(alerts)} alert(s), {len(critical)} critical")
    if critical or (alerts and args.strict):
        return 1
    return 0


def _cmd_observe_report(args) -> int:
    directory = Path(args.dir)
    metrics_path = directory / Observer.METRICS_FILE
    if not metrics_path.exists():
        print(f"no metrics at {metrics_path}", file=sys.stderr)
        return 2
    snapshot = json.loads(metrics_path.read_text())
    timeseries_path = directory / Observer.TIMESERIES_FILE
    store = (
        load_timeseries(timeseries_path.read_text())
        if timeseries_path.exists() else None
    )
    rules = alerts = None
    if store is not None:
        rules, alerts = _evaluate_slo(args.slo, store)
        _write(directory / Observer.ALERTS_FILE, alerts_json(alerts))
    extra = {}
    for other in args.compare:
        extra.update(
            model_quality_summary(json.loads(Path(other).read_text()))
        )
    text = campaign_report(
        snapshot, store=store, alerts=alerts, rules=rules,
        extra_summaries=extra, title=args.title,
    )
    if args.out:
        _write(args.out, text)
    print(text, end="")
    if alerts is not None and any(
        alert.severity == "critical" for alert in alerts
    ):
        return 1
    return 0


# ----- static analysis -----


def _analyze_guard(func):
    """The analyze exit-code contract: 0 clean, 1 findings, 2 broken.

    Findings-driven failures return 1 from the subcommand body; every
    unhandled exception (bad release names, I/O failures, analysis
    bugs) is mapped to exit 2 here so a red ``--strict`` gate is never
    confused with the linter itself falling over.
    """
    def wrapper(args) -> int:
        try:
            return func(args)
        except KeyboardInterrupt:
            raise
        except Exception as error:
            print(f"analyze: internal error: {error}", file=sys.stderr)
            return 2
    return wrapper


def _analyze_observer(args) -> Observer | None:
    return Observer() if args.observe_dir else None


def _finish_analyze(args, findings, observer, context) -> int:
    """Shared tail of the analyze subcommands: print, write, gate."""
    from repro.analyze import findings_json, strict_failures

    counts = {"info": 0, "warning": 0, "error": 0}
    for finding in findings:
        counts[finding.severity] += 1
    print(f"{len(findings)} finding(s): "
          f"{counts['error']} error, {counts['warning']} warning, "
          f"{counts['info']} info")
    shown = [f for f in findings if f.severity != "info"][: args.max_print]
    for finding in shown:
        print(f"  [{finding.severity}] {finding.check} @ "
              f"{finding.location}: {finding.message}")
    remaining = len(findings) - len(shown)
    if remaining > 0:
        print(f"  ... {remaining} more (see --out)")
    if args.out:
        _write(args.out, findings_json(findings, **context))
        print(f"findings written to {args.out}")
    _export_observer(observer, args.observe_dir)
    return _gate(
        args, strict_failures(findings),
        f"{counts['error']} error-severity finding(s)",
    )


def _cmd_analyze_kernel(args) -> int:
    from repro.analyze import (
        DependencyOracle,
        ReachabilityAnalysis,
        run_kernel_checks,
    )

    releases = _releases(args)
    observer = _analyze_observer(args)
    findings = []
    for version in releases:
        kernel = build_kernel(version, seed=args.kernel_seed, size=args.size)
        reach = ReachabilityAnalysis(kernel, observer=observer)
        oracle = DependencyOracle(kernel)
        dead = reach.dead_blocks()
        namespace = f"{version}/" if len(releases) > 1 else ""
        findings += run_kernel_checks(
            kernel, reach, oracle, observer=observer, namespace=namespace,
        )
        print(f"kernel {version}: {len(kernel.blocks)} blocks, "
              f"{len(dead)} statically dead")
    return _finish_analyze(
        args, findings, observer,
        {"scope": "kernel", "releases": releases, "size": args.size,
         "kernel_seed": args.kernel_seed},
    )


def _cmd_analyze_corpus(args) -> int:
    from repro.analyze import run_corpus_checks

    kernel = build_kernel(args.kernel, seed=args.kernel_seed, size=args.size)
    observer = _analyze_observer(args)
    # The same derivation the fuzz subcommand uses, so `analyze corpus`
    # lints exactly the seed corpus a smoke campaign starts from.
    programs = campaign_seeds(
        kernel, fuzz_run_seed(args.seed, kernel.version), args.seed_corpus
    )
    findings = run_corpus_checks(kernel, programs, observer=observer)
    print(f"corpus: {len(programs)} programs "
          f"({sum(len(p.calls) for p in programs)} calls) on "
          f"kernel {kernel.version}")
    return _finish_analyze(
        args, findings, observer,
        {"scope": "corpus", "releases": [kernel.version],
         "size": args.size, "kernel_seed": args.kernel_seed,
         "seed": args.seed, "seed_corpus": args.seed_corpus},
    )


def _cmd_analyze_oracle(args) -> int:
    from repro.analyze import StaticOracleLocalizer, static_truths
    from repro.pmm import evaluate_selector
    from repro.snowplow import format_table1

    kernel = build_kernel(args.kernel, seed=args.kernel_seed, size=args.size)
    trained = _train(args, kernel, args.epochs if args.compare_pmm else 0)
    dataset = trained.dataset
    holdout = dataset.evaluation[: args.eval_limit]
    if not holdout:
        print("dataset produced no evaluation examples", file=sys.stderr)
        return 2
    localizer = StaticOracleLocalizer(kernel)
    truths = static_truths(localizer, dataset.programs, holdout)
    oracle_predictions = [
        set(localizer.target_paths(
            dataset.programs[example.base_index], example.targets
        ))
        for example in holdout
    ]
    oracle_metrics = evaluate_selector(oracle_predictions, truths)
    print(f"static oracle on {len(holdout)} eval examples "
          f"(kernel {kernel.version}): "
          f"precision {oracle_metrics.precision:.3f}, "
          f"recall {oracle_metrics.recall:.3f}")
    if args.compare_pmm:
        from repro.fuzzer import RandomLocalizer
        from repro.rng import make_rng

        pmm_predictions = [
            set(trained.model.predict_paths(
                dataset.encode_example(example, kernel, trained.encoder)
            ))
            for example in holdout
        ]
        pmm_metrics = evaluate_selector(pmm_predictions, truths)
        k = max(1, round(sum(len(t) for t in truths) / len(truths)))
        rng = make_rng(derive_seed(args.seed, "rand-baseline"))
        random_predictions = [
            set(RandomLocalizer(k).localize(
                dataset.programs[example.base_index], None, None, rng
            ))
            for example in holdout
        ]
        random_metrics = evaluate_selector(random_predictions, truths)
        print(format_table1(
            pmm_metrics, random_metrics, f"Rand.{k}",
            static_oracle=oracle_metrics,
        ))
    if args.out:
        payload = {
            "kernel": kernel.version,
            "examples": len(holdout),
            "oracle": {
                "f1": oracle_metrics.f1,
                "precision": oracle_metrics.precision,
                "recall": oracle_metrics.recall,
                "jaccard": oracle_metrics.jaccard,
            },
        }
        _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"metrics written to {args.out}")
    return 0 if oracle_metrics.precision == oracle_metrics.recall == 1.0 else 1


def _cmd_analyze_impact(args) -> int:
    from repro.analyze import (
        DependencyOracle,
        ReachabilityAnalysis,
        build_target_manifest,
        compute_impact,
        run_impact_checks,
    )

    old = build_kernel(
        args.from_version, seed=args.kernel_seed, size=args.size
    )
    new = build_kernel(args.to_version, seed=args.kernel_seed, size=args.size)
    observer = _analyze_observer(args)
    report = compute_impact(old, new)
    reach = ReachabilityAnalysis(new, observer=observer)
    oracle = DependencyOracle(new)
    manifest = build_target_manifest(
        old, new, report=report, reach=reach, oracle=oracle
    )
    counts = manifest.counts()
    modified = sum(
        1 for diff in report.handlers if diff.status == "modified"
    )
    print(f"impact {old.version} -> {new.version}: "
          f"{len(report.added_handlers)} added, "
          f"{len(report.removed_handlers)} removed, "
          f"{modified} modified handler(s); "
          f"{len(report.changed_blocks())} changed block(s), "
          f"{len(report.changed_predicates)} changed predicate(s), "
          f"{len(report.touched_bugs)} touched bug chain(s)")
    print(f"  targets: {counts['solvable']} solvable, "
          f"{counts['unsteerable']} unsteerable, "
          f"{counts['unreachable']} unreachable")
    if args.manifest:
        _write(args.manifest, manifest.to_json())
        print(f"target manifest written to {args.manifest}")
    findings = run_impact_checks(
        report, manifest, old, new, observer=observer
    )
    return _finish_analyze(
        args, findings, observer,
        {"scope": "impact",
         "releases": [old.version, new.version],
         "size": args.size, "kernel_seed": args.kernel_seed},
    )


# ----- spec inference -----


def _cmd_specgen_infer(args) -> int:
    from repro.analyze import strict_failures, table_mismatch_findings
    from repro.specgen import infer_specs, parse_table, serialize_table

    observer = _analyze_observer(args)
    releases = _releases(args)
    findings = []
    exit_code = 0
    for version in releases:
        kernel = build_kernel(version, seed=args.kernel_seed, size=args.size)
        table, report = infer_specs(kernel, observer=observer)
        text = serialize_table(
            table,
            comment=f"inferred from kernel {version} "
                    f"(seed={args.kernel_seed}, size={args.size})",
        )
        if parse_table(text) != table:
            print(f"{version}: emitted syzlang does not round-trip",
                  file=sys.stderr)
            exit_code = 1
        print(f"kernel {version}: inferred {report.syscalls} specs, "
              f"{report.args_total} args ({report.resource_args} resources, "
              f"{report.flag_leaves} flag leaves / {report.flag_bits} bits, "
              f"{report.struct_nodes} structs), {report.producers} "
              f"producers, {len(report.state_edges)} state edges")
        if args.out:
            path = Path(args.out) / f"specs_{version.replace('.', '_')}.syz"
            _write(path, text)
            print(f"  syzlang written to {path}")
        if args.lint:
            namespace = f"{version}/" if len(releases) > 1 else ""
            produced = table_mismatch_findings(
                kernel, table, namespace=namespace
            )
            findings += produced
            print(f"  lint: {len(produced)} finding(s), "
                  f"{len(strict_failures(produced))} error(s)")
    _export_observer(observer, args.observe_dir)
    failures = strict_failures(findings)
    for finding in failures:
        print(f"  [error] {finding.check} @ {finding.location}: "
              f"{finding.message}")
    return _gate(
        args, failures, "inferred table disagrees with the kernel"
    ) or exit_code


_SPECGEN_FLOORS = (
    # (option attr, TableFidelity property, human name)
    ("min_syscall_coverage", "syscall_coverage", "syscall coverage"),
    ("min_kind_accuracy", "kind_accuracy", "argument-kind accuracy"),
    ("min_flag_recall", "flag_recall", "flag-domain recall"),
    ("min_resource_precision", "resource_precision", "resource precision"),
    ("min_resource_recall", "resource_recall", "resource recall"),
)


def _cmd_specgen_diff(args) -> int:
    from repro.specgen import diff_tables, fidelity_json, infer_table
    from repro.syzlang.stdlib import build_standard_table

    observer = _analyze_observer(args)
    fidelities = []
    print(f"{'Kernel':<7} {'Specs':>11} {'KindAcc':>8} {'FlagRec':>8} "
          f"{'ResPrec':>8} {'ResRec':>8}")
    for version in _releases(args):
        kernel = build_kernel(version, seed=args.kernel_seed, size=args.size)
        fidelity = diff_tables(
            infer_table(kernel, observer=observer),
            build_standard_table(version),
            version=version,
        )
        fidelities.append(fidelity)
        specs = f"{fidelity.matched_syscalls}/{fidelity.truth_syscalls}"
        print(f"{version:<7} {specs:>11} {fidelity.kind_accuracy:>8.3f} "
              f"{fidelity.flag_recall:>8.3f} "
              f"{fidelity.resource_precision:>8.3f} "
              f"{fidelity.resource_recall:>8.3f}")
    if args.out:
        _write(args.out, fidelity_json(
            fidelities, size=args.size, kernel_seed=args.kernel_seed,
        ))
        print(f"fidelity report written to {args.out}")
    _export_observer(observer, args.observe_dir)
    return _floor_gate(args, [
        (fidelity.version, name, getattr(fidelity, prop), getattr(args, attr))
        for fidelity in fidelities
        for attr, prop, name in _SPECGEN_FLOORS
    ], "fidelity")


def _cmd_specgen_campaign(args) -> int:
    from repro.snowplow import format_specgen, specgen_json
    from repro.specgen import run_specgen_campaign

    observer = _analyze_observer(args)
    result = run_specgen_campaign(
        versions=tuple(_releases(args)),
        seed=args.seed,
        kernel_seed=args.kernel_seed,
        size=args.size,
        hours=args.hours,
        seed_corpus=args.seed_corpus,
        observer=observer,
    )
    print(specgen_json(result) if args.json else format_specgen(result))
    if args.out:
        _write(args.out, specgen_json(result) + "\n")
        print(f"campaign report written to {args.out}")
    _export_observer(observer, args.observe_dir)
    return _floor_gate(args, [
        (run.version, "coverage ratio", run.coverage_ratio, args.min_ratio)
        for run in result.runs
    ], "coverage")


def _cmd_exec(args) -> int:
    kernel, program = _load_program(args)
    result = Executor(kernel, seed=args.seed).run(program)
    print(f"{len(result.coverage.blocks)} blocks, "
          f"{len(result.coverage.edges)} edges covered")
    print(f"returns: {result.retvals}")
    if result.crash is not None:
        print(f"CRASH: {result.crash.description}")
        return 1
    return 0


def _cmd_triage(args) -> int:
    from repro.fuzzer.crash import CrashTriage
    from repro.kernel import symbolize

    kernel, program = _load_program(args)
    executor = Executor(kernel, seed=args.seed)
    result = executor.run(program)
    if result.crash is None:
        print("program does not crash the kernel")
        return 1
    triage = CrashTriage(executor, set())
    crash = triage.observe(program, result.crash)
    if crash is None:
        print(f"crash filtered by triage rules: {result.crash.description}")
        return 1
    print(f"signature: {crash.signature}")
    print(f"category:  {crash.category.value}")
    print(symbolize(kernel, result.crash).report())
    reproducer = triage.reproduce(crash)
    if reproducer is None:
        print("no reproducer (crash does not replay)")
        return 0
    print(f"minimised reproducer ({len(reproducer)} calls):")
    print(serialize_program(reproducer))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Snowplow reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kernel", help="build and describe a kernel")
    _add_kernel_args(p)
    p.set_defaults(func=_cmd_build_kernel)

    p = sub.add_parser("train", help="train PMM and write a checkpoint")
    _add_kernel_args(p)
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    _add_training_args(p, corpus_size=120, mutations=120, epochs=4)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("fuzz", help="run a fuzzing campaign")
    _add_kernel_args(p)
    _add_campaign_args(p)
    _add_oracle(p)
    _add_observe_dir(p)
    p.add_argument("--skip-dead-targets", action="store_true",
                   help="run static reachability analysis first and never "
                        "pick statically dead blocks as directed targets "
                        "(single-worker Snowplow mode)")
    p.add_argument("--directed", default=None, metavar="patch:FROM..TO",
                   help="patch-directed mode: fuzz the TO release with "
                        "scheduling steered toward the blocks the "
                        "FROM..TO diff changed (single-worker Snowplow "
                        "mode; overrides --kernel with TO)")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "cluster",
        help="fleet campaigns: the scaling sweep or the chaos gate",
    )
    _add_kernel_args(p)
    p.add_argument("mode", nargs="?", choices=("scale", "chaos"),
                   default="scale",
                   help="scale: fleet-size sweep; chaos: supervised fleet "
                        "under the seeded fault plan (exit 1 on any "
                        "invariant violation)")
    _add_campaign_args(p, workers=4)
    _add_oracle(p)
    p.add_argument("--worker-counts", default="1,2,4,8",
                   help="comma-separated fleet sizes to sweep (scale mode)")
    _add_heartbeat_deadline(p)
    p.add_argument("--sync-interval", type=float, default=600.0,
                   help="virtual seconds between hub syncs")
    _add_observe_dir(p)
    _add_json(p)
    p.set_defaults(func=_cmd_cluster)

    # --- the campaign service ---

    def _add_state_dir(q):
        q.add_argument("--state-dir", required=True,
                       help="directory holding the service checkpoint "
                            "(service.json, format v7)")
        _add_json(q)

    p = sub.add_parser(
        "serve",
        help="advance the campaign service: admit queued campaigns, "
             "time-slice the fleet, checkpoint, print the health report",
    )
    _add_state_dir(p)
    _add_fleet_args(p)
    p.add_argument("--until", type=float, default=None,
                   help="stop at this service virtual time (seconds); "
                        "default runs every admitted campaign to its "
                        "horizon")
    p.add_argument("--report-out", default=None,
                   help="also write the health report to this path")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a campaign to the service as a tenant"
    )
    _add_state_dir(p)
    _add_fleet_args(p)
    p.add_argument("--tenant", required=True, help="tenant (session) name")
    _add_kernel_args(p)
    _add_campaign_args(p)
    _add_heartbeat_deadline(p)
    p.add_argument("--faults", default=None,
                   help="JSON file with a FaultPlan.to_dict() payload to "
                        "inject into this campaign")
    p.add_argument("--priority", type=int, default=None,
                   help="tenant priority (higher admits first)")
    p.add_argument("--max-concurrent", type=int, default=None,
                   help="tenant cap on concurrently running campaigns")
    p.add_argument("--budget-hours", type=float, default=None,
                   help="tenant budget in virtual worker-hours")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "status",
        help="service health report, one campaign, or one tenant",
    )
    _add_state_dir(p)
    p.add_argument("--campaign", default=None, help="campaign id (job-N)")
    p.add_argument("--tenant", default=None, help="tenant name")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("cancel", help="cancel a submitted campaign")
    _add_state_dir(p)
    p.add_argument("--campaign", required=True, help="campaign id (job-N)")
    p.set_defaults(func=_cmd_cancel)

    p = sub.add_parser("observe",
                       help="render, diff, and check exported telemetry")
    observe_sub = p.add_subparsers(dest="observe_command", required=True)
    q = observe_sub.add_parser(
        "render", help="flame summary (and Chrome trace) from a span log"
    )
    q.add_argument("spans", help="spans.jsonl produced by --observe-dir")
    q.add_argument("--chrome", default=None,
                   help="also write a Chrome/Perfetto trace_event file here")
    q.add_argument("--lineage", action="store_true",
                   help="also render the lineage DAG (lineage.dot next "
                        "to the export's lineage.json)")
    q.set_defaults(func=_cmd_observe_render)
    q = observe_sub.add_parser(
        "explain",
        help="trace a bug/edge/entry back through its mutation lineage",
    )
    q.add_argument("target",
                   help="'bugs' (every bug, exit 1 on any empty chain), "
                        "bug:<sig>, edge:<src>-<dst>, entry:<id>, or a "
                        "bare id tried as bug, then entry, then edge")
    q.add_argument("--dir", required=True,
                   help="--observe-dir export holding lineage.json")
    q.add_argument("--table", default=None,
                   help="also write the per-engine attribution table "
                        "here as canonical JSON")
    q.set_defaults(func=_cmd_observe_explain)
    q = observe_sub.add_parser(
        "diff", help="diff two campaigns' metrics.json snapshots"
    )
    q.add_argument("old", help="baseline metrics.json")
    q.add_argument("new", help="candidate metrics.json")
    q.add_argument("--threshold", type=float, default=10.0,
                   help="regression threshold in percent (exit 1 beyond it)")
    q.set_defaults(func=_cmd_observe_diff)
    q = observe_sub.add_parser(
        "check", help="assert expected series exist in a metrics.json"
    )
    q.add_argument("metrics", help="metrics.json to inspect")
    q.add_argument("--require", action="append", default=[],
                   metavar="SUBSTRING",
                   help="series-key substring that must be present "
                        "(repeatable; exit 1 if any is missing)")
    q.add_argument("--slo", default=None, choices=sorted(DEFAULT_PACKS),
                   help="also evaluate this SLO rule pack over the "
                        "campaign's timeseries.json (exit 1 on critical "
                        "alerts)")
    q.add_argument("--timeseries", default=None,
                   help="timeseries.json to evaluate (default: sibling "
                        "of the metrics file)")
    _add_strict(q)
    q.set_defaults(func=_cmd_observe_check)
    q = observe_sub.add_parser(
        "report",
        help="render one campaign health report (timelines, SLO "
             "status, model quality) from an --observe-dir export",
    )
    q.add_argument("dir", help="directory written by --observe-dir")
    q.add_argument("--slo", default="default",
                   choices=sorted(DEFAULT_PACKS),
                   help="SLO rule pack to evaluate (alerts.json is "
                        "written next to the inputs)")
    q.add_argument("--compare", action="append", default=[],
                   metavar="METRICS_JSON",
                   help="fold another campaign's metrics.json into the "
                        "model-quality table (cross-release drift; "
                        "repeatable)")
    q.add_argument("--out", default=None,
                   help="also write the report to this file")
    q.add_argument("--title", default="campaign health report")
    q.set_defaults(func=_cmd_observe_report)

    p = sub.add_parser("analyze",
                       help="static kernel/program analysis and lints")
    analyze_sub = p.add_subparsers(dest="analyze_command", required=True)

    def _add_analyze_common(q: argparse.ArgumentParser) -> None:
        _add_strict(q)
        q.add_argument("--out", default=None,
                       help="write canonical findings.json here")
        q.add_argument("--max-print", type=int, default=20,
                       help="max findings echoed to stdout")
        _add_observe_dir(q)

    q = analyze_sub.add_parser(
        "kernel",
        help="reachability, dependency, and lint checks over kernels",
    )
    _add_kernel_args(q)
    _add_releases(q)
    _add_analyze_common(q)
    q.set_defaults(func=_analyze_guard(_cmd_analyze_kernel))

    q = analyze_sub.add_parser(
        "corpus",
        help="lint the seed corpus a fuzzing campaign would start from",
    )
    _add_kernel_args(q)
    q.add_argument("--seed", type=int, default=0,
                   help="campaign seed (matches the fuzz subcommand)")
    q.add_argument("--seed-corpus", type=int, default=100,
                   help="corpus size to generate and lint")
    _add_analyze_common(q)
    q.set_defaults(func=_analyze_guard(_cmd_analyze_corpus))

    q = analyze_sub.add_parser(
        "oracle",
        help="score the static dependency oracle as a localizer "
             "(the Table-1 upper bound)",
    )
    _add_kernel_args(q)
    _add_training_args(q, corpus_size=40, mutations=80, epochs=2)
    q.add_argument("--eval-limit", type=int, default=200,
                   help="max evaluation examples to score")
    q.add_argument("--compare-pmm",
                   action="store_true",
                   help="also train a PMM and print the Table-1 gap")
    q.add_argument("--out", default=None,
                   help="write oracle metrics JSON here")
    q.set_defaults(func=_analyze_guard(_cmd_analyze_oracle))

    q = analyze_sub.add_parser(
        "impact",
        help="diff two releases' CFGs, classify every changed block, "
             "and emit the directed-fuzzing target manifest",
    )
    q.add_argument("from_version", metavar="from",
                   help="old kernel version (e.g. 6.8)")
    q.add_argument("to_version", metavar="to",
                   help="new kernel version (e.g. 6.9)")
    _add_build_args(q)
    q.add_argument("--manifest", default=None,
                   help="write the TargetManifest JSON here (the file "
                        "`fuzz --directed patch:<from>..<to>` rebuilds)")
    _add_analyze_common(q)
    q.set_defaults(func=_analyze_guard(_cmd_analyze_impact))

    p = sub.add_parser(
        "specgen",
        help="infer syzlang specs from the kernel and fuzz without "
             "ground truth",
    )
    specgen_sub = p.add_subparsers(dest="specgen_command", required=True)

    def _add_specgen_common(q: argparse.ArgumentParser) -> None:
        _add_kernel_args(q)
        _add_releases(q)
        _add_strict(q)
        _add_observe_dir(q)

    q = specgen_sub.add_parser(
        "infer",
        help="infer a syscall table per release and emit syzlang text",
    )
    _add_specgen_common(q)
    q.add_argument("--out", default=None,
                   help="directory for the inferred specs_<ver>.syz files")
    q.add_argument("--lint", action="store_true",
                   help="cross-validate each inferred table against its "
                        "kernel (spec-table-mismatch)")
    q.set_defaults(func=_cmd_specgen_infer)

    q = specgen_sub.add_parser(
        "diff",
        help="score inferred tables against the hand-written stdlib",
    )
    _add_specgen_common(q)
    q.add_argument("--out", default=None,
                   help="write the canonical fidelity report JSON here")
    q.add_argument("--min-syscall-coverage", type=float, default=1.0,
                   help="--strict floor on matched/truth syscalls")
    q.add_argument("--min-kind-accuracy", type=float, default=0.7,
                   help="--strict floor on argument-kind accuracy")
    q.add_argument("--min-flag-recall", type=float, default=0.2,
                   help="--strict floor on flag-domain recall")
    q.add_argument("--min-resource-precision", type=float, default=0.6,
                   help="--strict floor on resource-edge precision")
    q.add_argument("--min-resource-recall", type=float, default=0.4,
                   help="--strict floor on resource-edge recall")
    q.set_defaults(func=_cmd_specgen_diff)

    q = specgen_sub.add_parser(
        "campaign",
        help="seeded inferred-vs-ground-truth fuzzing evaluation",
    )
    _add_specgen_common(q)
    q.add_argument("--hours", type=float, default=0.5,
                   help="virtual hours per run")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--seed-corpus", type=int, default=15)
    q.add_argument("--min-ratio", type=float, default=0.7,
                   help="--strict floor on inferred/truth coverage ratio")
    _add_json(q)
    q.add_argument("--out", default=None,
                   help="write the campaign report JSON here")
    q.set_defaults(func=_cmd_specgen_campaign)

    p = sub.add_parser("exec", help="execute a syz-format program")
    _add_kernel_args(p)
    _add_program_args(p)
    p.set_defaults(func=_cmd_exec)

    p = sub.add_parser("triage", help="triage + minimise a crashing program")
    _add_kernel_args(p)
    _add_program_args(p)
    p.set_defaults(func=_cmd_triage)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  A library error or an unreadable input ends it
    with one ``error:`` line on stderr and exit status 2, like a bad
    flag value."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
