"""One admitted campaign, materialized and runnable.

A :class:`JobRunner` turns a :class:`~repro.service.specs.CampaignSpec`
into exactly the loop (or cluster) that ``repro fuzz`` would build for
the same flags — same seed derivation (:func:`fuzz_run_seed`), same
campaign config (:func:`fuzz_campaign_config`), same builders — and
drives it in bounded virtual-time increments on behalf of the
orchestrator.

**Isolation is the design.**  Each job owns its executor, RNG streams,
corpus, hub, and inference tier; nothing mutable is shared between
jobs.  The one object jobs share is the built :class:`~repro.kernel.
build.Kernel`: the orchestrator builds one per ``(version, kernel
seed, size)`` in each ``advance`` and hands it to every runner on that
key.  That is safe because a built kernel is never mutated (executors
keep their compiled step tables to themselves), so sharing it is
indistinguishable from each job building its own.  Campaigns are
multiplexed by interleaving their *virtual* time slices, and since no
cross-job state exists, the interleave cannot leak into any job's
results: a campaign's outcome is a pure function of its spec.
(Deliberately so — co-batching tenants through one literal inference
service would make batch latency, and therefore results, depend on who
else is running.)  The standalone-vs-multiplexed signature equality
asserted by the service gate falls out of this structure rather than
being patched in.

A runner built from a job's ``exec_state`` is built unseeded and then
restored: the restore overwrites every corpus, so generating and
executing a seed corpus first would be thrown away.
"""

from __future__ import annotations

from repro.cluster import ClusterConfig
from repro.faults import FaultInjector, FaultPlan
from repro.kernel import Kernel
from repro.observe import Observer, SLOEngine
from repro.observe.slo import DEFAULT_PACKS
from repro.snowplow.campaign import (
    TrainedPMM,
    build_cluster,
    build_fuzz_loop,
    build_loop,
    fuzz_campaign_config,
    fuzz_run_seed,
)
from repro.snowplow.checkpointing import (
    cluster_state,
    loop_state,
    restore_cluster_state,
    restore_loop_state,
)

__all__ = ["JobRunner", "encode_signature"]


def encode_signature(value):
    """A signature tuple as canonical JSON-ready lists (mapping views
    become sorted ``[key, value]`` pairs)."""
    if isinstance(value, (list, tuple)):
        return [encode_signature(item) for item in value]
    if hasattr(value, "items"):
        return sorted(
            [key, count] for key, count in dict(value).items()
        )
    return value


class JobRunner:
    """The execution side of one job: loops in, result payload out.

    ``kernel`` is the spec's built kernel, which the caller may share
    with other jobs on the same key.
    """

    def __init__(self, spec, kernel: Kernel, exec_state: dict | None = None):
        self.spec = spec
        self.kernel = kernel
        self.config = fuzz_campaign_config(
            spec.hours, spec.seed, spec.seed_corpus, spec.batch_size
        )
        self.run_seed = fuzz_run_seed(spec.seed, self.kernel.version)
        pack = "cluster" if spec.workers > 1 else "fuzz"
        self.observer = Observer(slo=SLOEngine(DEFAULT_PACKS[pack]()))
        injector = (
            FaultInjector(FaultPlan.from_dict(spec.faults))
            if spec.faults else None
        )
        trained = (
            TrainedPMM.load(spec.model, self.kernel.table)
            if spec.mode == "model" else None
        )
        baseline = spec.mode == "baseline"
        oracle = spec.mode == "oracle"
        seeded = exec_state is None
        if spec.workers > 1:
            self.loop = None
            self.cluster = build_cluster(
                self.kernel, trained, self.run_seed, self.config,
                cluster_config=ClusterConfig(
                    workers=spec.workers, shards=spec.shards,
                    heartbeat_deadline=spec.heartbeat_deadline,
                ),
                baseline=baseline, oracle=oracle,
                injector=injector, observer=self.observer, seeded=seeded,
            )
        else:
            self.cluster = None
            self.loop = (build_fuzz_loop if seeded else build_loop)(
                self.kernel, trained, self.run_seed, self.config,
                baseline=baseline, oracle=oracle,
                injector=injector, observer=self.observer,
            )
        if exec_state is not None:
            self.restore(exec_state)

    # ----- the orchestrator's drive surface -----

    @property
    def now(self) -> float:
        """Job-local virtual time."""
        if self.loop is not None:
            return self.loop.clock.now
        return self.cluster.now

    @property
    def horizon(self) -> float:
        if self.loop is not None:
            return self.loop.clock.horizon
        return self.cluster.horizon

    @property
    def done(self) -> bool:
        if self.loop is not None:
            return self.loop.clock.expired()
        return self.cluster.done

    def run_until(self, local_time: float) -> None:
        """Advance the campaign to job-local virtual ``local_time``."""
        if self.loop is not None:
            self.loop.run_until(min(local_time, self.horizon))
        else:
            self.cluster.run_until(min(local_time, self.horizon))

    def run_out(self) -> None:
        """Drive any supervised stragglers (restarted workers catching
        up past the horizon) to quiescence, like ``ClusterFuzzer.run``.
        """
        if self.cluster is not None and not self.cluster.done:
            self.cluster.run_until(float("inf"))

    # ----- results & inspection -----

    def progress(self) -> list[list]:
        """The coverage timeline: ``[time, edges, blocks, executions]``
        rows (the hub's fleet-union timeline for clusters)."""
        if self.loop is not None:
            observations = self.loop.stats.observations
        else:
            observations = self.cluster.hub.timeline
        return [
            [obs.time, obs.edges, obs.blocks, obs.executions]
            for obs in observations
        ]

    def alerts(self) -> list[dict]:
        """The session SLO pack, evaluated over this job's timeseries."""
        return [
            {
                "time": alert.time,
                "rule": alert.rule,
                "series": alert.series,
                "severity": alert.severity,
                "message": alert.message,
            }
            for alert in self.observer.evaluate_slo()
        ]

    def finalize(self) -> dict:
        """Finish the campaign and produce the JSON-ready result payload
        a tenant fetches, including its determinism signature and the
        tenant-visible degradation ledger."""
        from repro.observe import ProvenanceLog, attribution_table

        if self.loop is not None:
            stats = self.loop.finalize()
            merged = stats
            signature = stats.signature()
            lineage = self.loop.provenance
            extra = {}
        else:
            result = self.cluster.finalize()
            merged = result.merged
            signature = result.signature()
            lineage = ProvenanceLog.merge(
                [worker.loop.provenance for worker in self.cluster.workers]
                + [self.cluster.hub.provenance]
            )
            extra = {
                "hub": {
                    "accepted": result.hub_stats.accepted,
                    "duplicates": result.hub_stats.duplicates,
                    "dropped_entries": result.hub_stats.dropped_entries,
                    "subsumed_entries": result.hub_stats.subsumed_entries,
                },
                "restarts": (
                    self.cluster.supervisor.restarts
                    if self.cluster.supervisor is not None else 0
                ),
            }
        payload = {
            "kernel": self.kernel.version,
            "mode": self.spec.mode,
            "workers": self.spec.workers,
            "final_edges": merged.final_edges,
            "final_blocks": merged.final_blocks,
            "executions": merged.executions,
            "corpus_size": merged.corpus_size,
            "crashes": [
                [crash.signature, bool(crash.is_new)]
                for crash in merged.crashes
            ],
            # The degradation the tenant *saw*: every way this campaign
            # fell back, shed, timed out, or lost in-flight work.
            "degradation": {
                "inference_failures": merged.inference_failures,
                "heuristic_fallbacks": merged.heuristic_fallbacks,
                "exec_timeouts": merged.exec_timeouts,
                "vm_restarts": merged.vm_restarts,
                "breaker_trips": merged.breaker_trips,
                "corpus_write_retries": merged.corpus_write_retries,
            },
            "signature": encode_signature(signature),
            # The provenance view a tenant fetches via /lineage once the
            # job is done (and may render locally with observe explain).
            "attribution": attribution_table(lineage),
            "lineage_summary": lineage.summary(),
        }
        payload.update(extra)
        return payload

    # ----- checkpointing (format v7 exec layer) -----

    def state_dict(self) -> dict:
        if self.loop is not None:
            return {"kind": "loop", "state": loop_state(self.loop)}
        return {"kind": "cluster", "state": cluster_state(self.cluster)}

    def restore(self, payload: dict) -> None:
        if self.loop is not None:
            restore_loop_state(self.loop, payload["state"])
        else:
            restore_cluster_state(self.cluster, payload["state"])
