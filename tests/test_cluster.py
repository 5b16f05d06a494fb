"""Tests for repro.cluster: the hub, the scheduler, shared serving,
stats merging, and — the property everything else leans on — bit
reproducibility of multi-worker campaigns, including after a mid-run
kill + checkpoint resume."""

import json

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterScheduler,
    ClusterWorker,
    CorpusHub,
    ShardedHub,
    SharedInferenceTier,
)
from repro.faults import FaultInjector, FaultPlan
from repro.fuzzer.corpus import CorpusEntry
from repro.fuzzer.loop import FuzzObservation, FuzzStats
from repro.kernel.coverage import Coverage
from repro.pmm.serve import InferenceService
from repro.rng import derive_seed, split
from repro.snowplow import (
    CampaignConfig,
    build_cluster,
    chaos_plan,
    cluster_state,
    format_chaos,
    format_scaling,
    restore_cluster_state,
    run_chaos_campaign,
    run_scaling_campaign,
)
from repro.snowplow.checkpointing import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.syzlang.generator import ProgramGenerator


def _entry(program, traces, signal=1, hints=frozenset()):
    return CorpusEntry(
        program=program, coverage=Coverage.from_traces(traces),
        signal=signal, hints=hints,
    )


@pytest.fixture()
def programs(kernel):
    return ProgramGenerator(kernel.table, split(3, "hub")).seed_corpus(6)


def _cluster_config(workers):
    return ClusterConfig(workers=workers, sync_interval=300.0)


def _campaign_config(seed=11, horizon=2400.0):
    return CampaignConfig(
        horizon=horizon, runs=1, seed=seed, seed_corpus_size=12,
        sample_interval=300.0,
    )


def _oracle_cluster(kernel, workers, seed=11, horizon=2400.0):
    config = _campaign_config(seed=seed, horizon=horizon)
    run_seed = derive_seed(config.seed, "cluster-test", kernel.version)
    return build_cluster(
        kernel, None, run_seed, config,
        cluster_config=_cluster_config(workers), oracle=True,
    )


def _result_signature(result):
    return (
        result.final_edges,
        result.final_blocks,
        result.merged.executions,
        result.merged.mutations,
        tuple(
            (
                stats.final_edges, stats.executions, stats.hub_syncs,
                stats.hub_pushed, stats.hub_pulled, stats.corpus_size,
            )
            for stats in result.worker_stats
        ),
        tuple(
            (obs.time, obs.edges, obs.blocks, obs.executions)
            for obs in result.merged.observations
        ),
        tuple(
            (obs.time, obs.edges) for obs in result.hub_timeline
        ),
    )


class TestCorpusHub:
    def test_push_accepts_new_coverage(self, programs):
        hub = CorpusHub()
        accepted = hub.push(0, [_entry(programs[0], [[1, 2, 3]])], now=10.0)
        assert accepted == 1
        assert hub.epoch == 1
        assert len(hub.coverage.edges) == 2

    def test_push_dedups_by_signature(self, programs):
        hub = CorpusHub()
        hub.push(0, [_entry(programs[0], [[1, 2, 3]])], now=10.0)
        accepted = hub.push(1, [_entry(programs[1], [[1, 2, 3]])], now=20.0)
        assert accepted == 0
        assert hub.stats.duplicates == 1

    def test_push_rejects_subsumed_coverage(self, programs):
        hub = CorpusHub()
        hub.push(0, [_entry(programs[0], [[1, 2, 3]])], now=10.0)
        # Different signature but no new edge for the union.
        accepted = hub.push(1, [_entry(programs[1], [[1, 2]])], now=20.0)
        assert accepted == 0

    def test_pull_is_incremental_and_excludes_own(self, programs):
        hub = CorpusHub()
        hub.push(0, [_entry(programs[0], [[1, 2]])], now=10.0)
        hub.push(1, [_entry(programs[1], [[3, 4]])], now=20.0)
        pulled, epoch = hub.pull(0, since_epoch=0)
        assert [entry.origin for entry in pulled] == [1]
        assert epoch == hub.epoch
        # Nothing new since: an incremental pull is empty.
        pulled, _ = hub.pull(0, since_epoch=epoch)
        assert pulled == []

    def test_timeline_tracks_union_growth(self, programs):
        hub = CorpusHub()
        hub.push(0, [_entry(programs[0], [[1, 2]])], now=10.0)
        hub.push(1, [_entry(programs[1], [[3, 4]])], now=25.0)
        assert [(obs.time, obs.edges) for obs in hub.timeline] == [
            (10.0, 1), (25.0, 2),
        ]

    def test_state_roundtrip(self, kernel, programs):
        hub = CorpusHub()
        hub.push(0, [_entry(programs[0], [[1, 2, 3]])], now=10.0)
        hub.push(1, [_entry(programs[1], [[4, 5]])], now=20.0)
        state = json.loads(json.dumps(hub.state_dict()))
        restored = CorpusHub()
        restored.restore(state, kernel.table)
        assert restored.epoch == hub.epoch
        assert restored.coverage.edges == hub.coverage.edges
        assert len(restored.entries) == len(hub.entries)
        # A duplicate push is still recognised after the round-trip.
        assert restored.push(
            2, [_entry(programs[2], [[1, 2, 3]])], now=30.0
        ) == 0


class TestFuzzStatsMerge:
    def test_empty(self):
        merged = FuzzStats.merge([])
        assert merged.executions == 0
        assert merged.observations == []

    def test_counters_and_mutations_sum(self):
        a = FuzzStats(executions=10, mutations={"argument": 3})
        a.hub_pushed = 2
        b = FuzzStats(executions=5, mutations={"argument": 1, "insertion": 4})
        merged = FuzzStats.merge([a, b])
        assert merged.executions == 15
        assert merged.mutations == {"argument": 4, "insertion": 4}
        assert merged.hub_pushed == 2

    def test_timeline_takes_max_coverage_and_sums_executions(self):
        a = FuzzStats(observations=[
            FuzzObservation(0.0, 10, 8, 5),
            FuzzObservation(100.0, 30, 20, 50),
        ])
        b = FuzzStats(observations=[
            FuzzObservation(50.0, 25, 18, 40),
            FuzzObservation(150.0, 26, 19, 90),
        ])
        merged = FuzzStats.merge([a, b])
        assert [obs.time for obs in merged.observations] == [
            0.0, 50.0, 100.0, 150.0,
        ]
        # At t=50 only a's t=0 sample and b's t=50 sample are live.
        assert merged.observations[1].edges == 25
        assert merged.observations[1].executions == 45
        # At t=150 a holds 30 edges (step-interpolated), b 26.
        assert merged.observations[3].edges == 30
        assert merged.observations[3].executions == 140

    def test_time_to_edges_on_merged_timeline(self):
        a = FuzzStats(observations=[FuzzObservation(100.0, 30, 20, 1)])
        b = FuzzStats(observations=[FuzzObservation(40.0, 20, 15, 1)])
        merged = FuzzStats.merge([a, b])
        assert merged.time_to_edges(20) == 40.0
        assert merged.time_to_edges(30) == 100.0

    def test_breaker_state_takes_worst(self):
        a = FuzzStats()
        b = FuzzStats(breaker_state="open")
        assert FuzzStats.merge([a, b]).breaker_state == "open"


class TestSharedTier:
    def test_results_route_to_their_worker(self):
        service = InferenceService(
            predict_fn=lambda payload: payload[0] * 100,
            latency=10.0, servers=4,
        )
        tier = SharedInferenceTier(service)
        views = [tier.view(0), tier.view(1)]
        views[0].submit("a", now=0.0)
        views[1].submit("b", now=0.0)
        # Either worker's poll drains the shared service; each mailbox
        # only ever holds its owner's results.
        assert views[1].poll(now=20.0) == [("b", 100)]
        assert views[0].poll(now=20.0) == [("a", 0)]
        assert views[0].poll(now=20.0) == []

    def test_views_have_no_private_checkpoint_surface(self):
        tier = SharedInferenceTier(
            InferenceService(predict_fn=lambda q: q, latency=1.0)
        )
        view = tier.view(0)
        assert not hasattr(view, "state_dict")
        assert not hasattr(view, "restore")


class TestSchedulerDeterminism:
    def test_rejects_duplicate_worker_ids(self, kernel):
        cluster = _oracle_cluster(kernel, workers=2, horizon=600.0)
        workers = cluster.workers
        workers[1].worker_id = workers[0].worker_id
        with pytest.raises(ValueError, match="duplicate"):
            ClusterScheduler(workers)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_repeated_runs_bit_identical(self, kernel, workers):
        results = [
            _oracle_cluster(kernel, workers=workers).run() for _ in range(2)
        ]
        assert _result_signature(results[0]) == _result_signature(results[1])

    def test_more_workers_more_coverage(self, kernel):
        single = _oracle_cluster(kernel, workers=1).run()
        quad = _oracle_cluster(kernel, workers=4).run()
        assert quad.final_edges > single.final_edges

    def test_workers_actually_sync(self, kernel):
        result = _oracle_cluster(kernel, workers=2).run()
        assert all(stats.hub_syncs > 0 for stats in result.worker_stats)
        assert result.hub_stats.accepted > 0
        # Cross-pollination happened in both directions.
        assert sum(stats.hub_pulled for stats in result.worker_stats) > 0

    def test_run_until_is_resumable_inline(self, kernel):
        """Chunked driving reaches the same end state as one run() —
        the scheduler has no hidden per-call state."""
        whole = _oracle_cluster(kernel, workers=2).run()
        chunked = _oracle_cluster(kernel, workers=2)
        for bound in (600.0, 1200.0, 1800.0):
            chunked.run_until(bound)
        assert _result_signature(chunked.run()) == _result_signature(whole)


class TestClusterCheckpointResume:
    def test_kill_and_resume_bit_identical(self, kernel, tmp_path):
        """Two independent resumes of one mid-run checkpoint (through a
        real on-disk save/load) finish byte-identically."""
        original = _oracle_cluster(kernel, workers=2)
        original.run_until(1200.0)
        path = save_checkpoint(tmp_path / "cluster.json", cluster_state(original))
        finals = []
        for _ in range(2):
            fresh = _oracle_cluster(kernel, workers=2)
            restore_cluster_state(fresh, load_checkpoint(path))
            finals.append(fresh.run())
        assert _result_signature(finals[0]) == _result_signature(finals[1])
        assert all(
            stats.resumes == 1 for stats in finals[0].worker_stats
        )

    def test_resume_books_lost_inflight(self, kernel, tmp_path):
        original = _oracle_cluster(kernel, workers=2)
        original.run_until(1200.0)
        pending = original.tier.service.pending_count()
        fresh = _oracle_cluster(kernel, workers=2)
        lost = restore_cluster_state(fresh, cluster_state(original))
        assert lost == pending
        assert fresh.workers[0].loop.stats.inference_failures >= lost

    def test_worker_count_mismatch_rejected(self, kernel):
        state = cluster_state(_oracle_cluster(kernel, workers=2))
        with pytest.raises(CheckpointError, match="workers"):
            restore_cluster_state(_oracle_cluster(kernel, workers=4), state)

    def test_baseline_cluster_resume_matches_uninterrupted(self, kernel):
        """A Syzkaller fleet has no in-flight inference to lose, so a
        resumed run must equal the uninterrupted one exactly."""
        config = _campaign_config(seed=23)
        run_seed = derive_seed(config.seed, "cluster-test", kernel.version)

        def build():
            return build_cluster(
                kernel, None, run_seed, config,
                cluster_config=_cluster_config(2), baseline=True,
            )

        whole = build().run()
        interrupted = build()
        interrupted.run_until(1200.0)
        state = json.loads(json.dumps(cluster_state(interrupted)))
        resumed_cluster = build()
        restore_cluster_state(resumed_cluster, state)
        resumed = resumed_cluster.run()
        assert resumed.final_edges == whole.final_edges
        assert resumed.merged.executions == whole.merged.executions
        assert [
            stats.final_edges for stats in resumed.worker_stats
        ] == [stats.final_edges for stats in whole.worker_stats]


class TestScalingCampaign:
    def test_sweep_and_report(self, kernel):
        config = _campaign_config(seed=31, horizon=1800.0)
        result = run_scaling_campaign(
            kernel, None, config, worker_counts=(1, 2),
            cluster_config=_cluster_config(2), oracle=True,
        )
        edges = result.final_edges()
        assert set(edges) == {1, 2}
        assert edges[2] > 0
        qps = result.observed_qps()
        assert qps[2] >= 0.0
        report = format_scaling(result)
        assert "Scaling sweep" in report
        assert "per-worker breakdown" in report

    def test_empty_worker_counts_rejected(self, kernel):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            run_scaling_campaign(
                kernel, None, _campaign_config(), worker_counts=(),
                oracle=True,
            )


def _traces_for_shard(hub, shard, count, start=100):
    """Single-trace coverages whose signatures land on ``shard``."""
    found = []
    value = start
    while len(found) < count:
        traces = [[value, value + 1]]
        signature = frozenset(Coverage.from_traces(traces).edges)
        if hub.shard_of(signature) == shard:
            found.append(traces)
        value += 2
    return found


class TestShardedHub:
    def test_fault_free_parity_with_unsharded(self, programs):
        batches = [
            [_entry(programs[0], [[1, 2, 3]]), _entry(programs[1], [[4, 5]])],
            [_entry(programs[2], [[1, 2, 3]])],  # duplicate signature
            [_entry(programs[3], [[6, 7, 8]]), _entry(programs[4], [[1, 2]])],
        ]
        plain, sharded = CorpusHub(), ShardedHub(shards=4)
        for now, batch in enumerate(batches, start=1):
            assert (
                plain.push(now % 2, batch, float(now))
                == sharded.push(now % 2, batch, float(now))
            )
        assert sharded.epoch == plain.epoch
        assert sharded.coverage.edges == plain.coverage.edges
        assert sharded.stats.duplicates == plain.stats.duplicates
        assert sharded.stats.bloom_skips > 0

    def test_failover_parks_only_unreplicated_tail(self, programs):
        hub = ShardedHub(shards=2)
        victim = 0
        early = _traces_for_shard(hub, victim, 1, start=100)[0]
        late = _traces_for_shard(hub, victim, 1, start=500)[0]
        hub.push(0, [_entry(programs[0], early)], now=10.0)
        # Second round: the first round is replicated by the time this
        # push starts, so only this round's tail is vulnerable.
        hub.push(1, [_entry(programs[1], late)], now=20.0)
        before = len(hub.coverage.edges)
        parked = hub.fail_shard(victim, now=30.0)
        assert parked == 1
        assert hub.stats.lost_entries == 1
        assert hub.stats.failovers == 1
        assert hub.failed_shards == frozenset({victim})
        assert hub.outstanding_lost_entries() == 1
        assert len(hub.entries) == 1  # replicated prefix still served
        assert len(hub.coverage.edges) < before

    def test_recover_readmits_unsubsumed_backlog(self, programs):
        hub = ShardedHub(shards=2)
        victim = 1
        early = _traces_for_shard(hub, victim, 1, start=100)[0]
        late = _traces_for_shard(hub, victim, 1, start=500)[0]
        hub.push(0, [_entry(programs[0], early)], now=10.0)
        hub.push(1, [_entry(programs[1], late)], now=20.0)
        before = len(hub.coverage.edges)
        hub.fail_shard(victim, now=30.0)
        readmitted = hub.recover_shard(victim, now=40.0)
        assert readmitted == 1
        assert hub.stats.reconciled == 1
        assert hub.outstanding_lost_entries() == 0
        assert hub.failed_shards == frozenset()
        assert len(hub.coverage.edges) == before
        # High-water timeline stays monotone through the failover.
        edges = [obs.edges for obs in hub.timeline]
        assert edges == sorted(edges)

    def test_rediscovered_backlog_entry_reconciles_as_subsumed(
        self, programs
    ):
        hub = ShardedHub(shards=2)
        victim = 0
        traces = _traces_for_shard(hub, victim, 2, start=100)
        hub.push(0, [_entry(programs[0], traces[0])], now=10.0)
        hub.push(0, [_entry(programs[1], traces[1])], now=20.0)
        hub.fail_shard(victim, now=30.0)
        # The fleet rediscovers the lost coverage during the outage.
        hub.push(1, [_entry(programs[2], traces[1])], now=40.0)
        assert hub.recover_shard(victim, now=50.0) == 0
        assert hub.outstanding_lost_entries() == 0

    def test_state_roundtrip_preserves_failover_state(
        self, kernel, programs
    ):
        hub = ShardedHub(shards=2)
        victim = 0
        early = _traces_for_shard(hub, victim, 1, start=100)[0]
        late = _traces_for_shard(hub, victim, 1, start=500)[0]
        hub.push(0, [_entry(programs[0], early)], now=10.0)
        hub.push(1, [_entry(programs[1], late)], now=20.0)
        hub.fail_shard(victim, now=30.0)
        state = json.loads(json.dumps(hub.state_dict()))
        clone = ShardedHub(shards=2)
        clone.restore(state, kernel.table)
        assert clone.failed_shards == hub.failed_shards
        assert clone.outstanding_lost_entries() == 1
        assert clone.coverage.edges == hub.coverage.edges
        assert clone.epoch == hub.epoch
        # The restored backlog reconciles exactly like the original's.
        assert clone.recover_shard(victim, now=40.0) == 1

    def test_shard_count_mismatch_rejected(self, kernel, programs):
        hub = ShardedHub(shards=2)
        hub.push(0, [_entry(programs[0], [[1, 2]])], now=10.0)
        state = json.loads(json.dumps(hub.state_dict()))
        with pytest.raises(CheckpointError, match="shards"):
            ShardedHub(shards=4).restore(state, kernel.table)

    def test_bad_shard_operations_rejected(self):
        with pytest.raises(ValueError):
            ShardedHub(shards=0)
        with pytest.raises(ValueError):
            ShardedHub(shards=2).fail_shard(7, now=0.0)


def _supervised_cluster(
    kernel, seed=11, horizon=2400.0, workers=3, shards=1,
    deadline=600.0, plan=None,
):
    config = _campaign_config(seed=seed, horizon=horizon)
    run_seed = derive_seed(config.seed, "cluster-test", kernel.version)
    return build_cluster(
        kernel, None, run_seed, config,
        cluster_config=ClusterConfig(
            workers=workers, sync_interval=300.0, shards=shards,
            heartbeat_deadline=deadline,
        ),
        oracle=True,
        injector=FaultInjector(plan) if plan is not None else None,
    )


class TestSupervisedCluster:
    def test_kill_restart_is_deterministic(self, kernel):
        plan = FaultPlan().with_worker_kill(1, 600.0)
        first = _supervised_cluster(kernel, plan=plan)
        result_first = first.run()
        again = _supervised_cluster(kernel, plan=plan)
        result_again = again.run()
        assert result_first.signature() == result_again.signature()
        assert first.supervisor.restarts == 1
        assert first.workers[1].generation == 1
        assert first.workers[1].born > 600.0
        assert not first.workers[1].killed

    def test_restart_reseeds_corpus_from_hub(self, kernel):
        plan = FaultPlan().with_worker_kill(1, 600.0)
        cluster = _supervised_cluster(kernel, plan=plan)
        cluster.run()
        revived = cluster.workers[1]
        # The new incarnation started from the fleet's shared corpus,
        # not from scratch, and kept fuzzing productively.
        assert revived.loop.stats.executions > 0
        assert revived.loop.stats.corpus_size > 0
        assert revived.last_progress > revived.born

    def test_hang_victim_restart_cures_the_hang(self, kernel):
        # The window stays open to the horizon; only a restart (a fresh
        # VM, immune to the original process's hang) resumes progress.
        plan = FaultPlan().with_worker_hang(0, 600.0, 2400.0)
        cluster = _supervised_cluster(kernel, plan=plan)
        cluster.run()
        victim = cluster.workers[0]
        assert cluster.supervisor.restarts == 1
        assert victim.generation == 1
        assert victim.last_progress > victim.born

    def test_partition_drop_is_accounted_then_flush_recovers(self, kernel):
        plan = FaultPlan().with_hub_partition(1, 600.0, 2400.0)
        cluster = _supervised_cluster(kernel, plan=plan)
        result = cluster.run()
        hub = cluster.hub
        # Retries exhausted: the push batch was dropped and counted.
        assert hub.stats.sync_failures > 0
        assert hub.stats.dropped_entries > 0
        # Never silently: flush re-offered every dropped entry.
        assert cluster.workers[1].dropped == []
        assert cluster.supervisor.restarts == 0  # partitioned, not dead
        assert result.final_edges == len(hub.coverage.edges)

    def test_shard_loss_failover_and_recovery(self, kernel):
        plan = FaultPlan().with_shard_loss(0, 600.0, 1500.0)
        cluster = _supervised_cluster(kernel, plan=plan, shards=2)
        result = cluster.run()
        hub = cluster.hub
        assert hub.stats.failovers == 1
        assert hub.outstanding_lost_entries() == 0  # reconciled
        assert hub.failed_shards == frozenset()
        edges = [obs.edges for obs in result.hub_timeline]
        assert edges == sorted(edges)

    def test_supervised_fleet_is_deterministic_under_full_chaos(
        self, kernel
    ):
        config = ClusterConfig(
            workers=3, sync_interval=300.0, shards=2,
            heartbeat_deadline=600.0,
        )
        plan = chaos_plan(11, 2400.0, config)
        sites = {window.site.split(":")[0] for window in plan.windows}
        assert sites == {
            "worker_kill", "worker_hang", "hub_partition", "shard_loss"
        }
        first = _supervised_cluster(kernel, plan=plan, shards=2)
        again = _supervised_cluster(kernel, plan=plan, shards=2)
        assert first.run().signature() == again.run().signature()


class TestChaosResume:
    """Satellite: restart decisions must survive checkpoint/resume."""

    def test_checkpoint_after_restart_resumes_bit_identically(self, kernel):
        plan = FaultPlan().with_worker_kill(1, 600.0)
        probe = _supervised_cluster(kernel, plan=plan)
        probe.run_until(1800.0)
        assert probe.supervisor.restarts == 1  # restart is in the state
        state = json.loads(json.dumps(cluster_state(probe)))

        results = []
        for _ in range(2):
            resumed = _supervised_cluster(kernel, plan=plan)
            restore_cluster_state(resumed, state)
            assert resumed.workers[1].generation == 1
            assert resumed.supervisor.restarts == 1
            results.append(resumed.run())
        assert results[0].signature() == results[1].signature()

    def test_worker_dead_at_checkpoint_replays_restart_decision(
        self, kernel
    ):
        """A worker declared dead mid-campaign: every resume of that
        checkpoint must reproduce the exact same restart (same virtual
        time, same derived seed, same post-restart schedule)."""
        plan = FaultPlan().with_worker_kill(1, 600.0)
        probe = _supervised_cluster(kernel, plan=plan)
        probe.run_until(900.0)
        assert probe.workers[1].killed  # dead, restart still pending
        assert probe.supervisor.restarts == 0
        state = json.loads(json.dumps(cluster_state(probe)))

        finished = []
        for _ in range(2):
            resumed = _supervised_cluster(kernel, plan=plan)
            restore_cluster_state(resumed, state)
            assert resumed.workers[1].killed
            finished.append(resumed)
        results = [cluster.run() for cluster in finished]
        assert results[0].signature() == results[1].signature()
        for cluster in finished:
            assert cluster.supervisor.restarts == 1
            assert cluster.workers[1].generation == 1
            assert not cluster.workers[1].killed


class TestChaosCampaign:
    def test_chaos_campaign_holds_all_invariants(self, kernel):
        config = _campaign_config(seed=11)
        result = run_chaos_campaign(
            kernel, None, config,
            cluster_config=ClusterConfig(
                workers=3, sync_interval=300.0, shards=2,
                heartbeat_deadline=600.0,
            ),
            oracle=True,
        )
        assert result.zero_corpus_loss
        assert result.coverage_monotone
        assert result.resume_identical
        assert result.degraded_gracefully()
        assert result.passed()
        assert result.restarts >= 1
        assert result.outstanding_lost == 0
        # Zero-loss lineage accounting: every push is either accepted
        # or deduplicated, and each subsumption left a superseded_by
        # mark in the hub ledger.
        accounting = result.hub_accounting
        assert accounting["pushes"] == (
            accounting["accepted"] + accounting["duplicates"]
        )
        assert result.accounting_closed
        assert {w.site.split(":")[0] for w in result.plan.windows} == {
            "worker_kill", "worker_hang", "hub_partition", "shard_loss"
        }
        report = format_chaos(result)
        assert "verdict: PASS" in report
        assert "worker_kill" in report

    def test_chaos_campaign_requires_supervision(self, kernel):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError, match="heartbeat"):
            run_chaos_campaign(
                kernel, None, _campaign_config(),
                cluster_config=ClusterConfig(workers=2),
                oracle=True,
            )
