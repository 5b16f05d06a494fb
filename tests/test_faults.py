"""Tests for the failure model: deterministic fault injection, the
circuit breaker, the executor watchdog, and campaign checkpoint/resume.

The tentpole guarantees under test:

- a fault schedule is reproducible from a single seed;
- the breaker walks closed → open → half-open → closed;
- hung calls become structured timeouts plus VM-restart accounting;
- a loop restored from a checkpoint continues bit-identically;
- a campaign under faults degrades gracefully instead of collapsing.
"""

import hashlib
import json

import pytest

from repro.errors import (
    CheckpointError,
    ExecutionError,
    ExecutorHang,
    InferenceTimeout,
)
from repro.faults import (
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultWindow,
)
from repro.kernel import Executor
from repro.pmm import DatasetConfig, PMMConfig, TrainConfig
from repro.pmm.serve import InferenceService
from repro.rng import derive_seed, split
from repro.snowplow import (
    CampaignConfig,
    CheckpointStore,
    load_checkpoint,
    save_checkpoint,
    train_pmm,
)
from repro.snowplow.campaign import (
    build_loop,
    run_fault_tolerance_campaign,
)
from repro.snowplow.checkpointing import loop_state, restore_loop_state
from repro.syzlang import ProgramGenerator, serialize_program
from repro.vclock import CostModel


@pytest.fixture(scope="module")
def trained(kernel):
    return train_pmm(
        kernel,
        seed=0,
        corpus_size=20,
        dataset_config=DatasetConfig(mutations_per_test=25, seed=3),
        pmm_config=PMMConfig(
            dim=16, gnn_layers=2, asm_layers=1, asm_heads=2, seed=5
        ),
        train_config=TrainConfig(
            epochs=1, batch_size=8, max_examples_per_epoch=80,
            max_validation_examples=20,
        ),
    )


def _stats_signature(stats):
    """Everything observable about a run, for bit-identity comparisons."""
    return (
        stats.executions,
        stats.mutations,
        [
            (obs.time, obs.edges, obs.blocks, obs.executions)
            for obs in stats.observations
        ],
        [crash.signature for crash in stats.crashes],
        stats.exec_timeouts,
        stats.vm_restarts,
        stats.inference_failures,
        stats.heuristic_fallbacks,
        stats.corpus_write_retries,
        stats.corpus_size,
    )


def _corpus_text(loop):
    return [serialize_program(entry.program) for entry in loop.corpus.entries]


def _entry_ids(loop):
    return [entry.lineage.entry_id for entry in loop.corpus.entries]


class TestFaultPlan:
    def test_empty_plan_never_fires(self):
        injector = FaultInjector(FaultPlan.none())
        assert not any(
            injector.fires("inference", float(t)) for t in range(100)
        )
        assert injector.total_injected() == 0

    def test_window_fires_inside_only(self):
        plan = FaultPlan().with_window("inference", 10.0, 20.0)
        injector = FaultInjector(plan)
        assert not injector.fires("inference", 9.9)
        assert injector.fires("inference", 10.0)
        assert injector.fires("inference", 19.9)
        assert not injector.fires("inference", 20.0)
        assert injector.injected["inference"] == 2
        assert injector.window_end("inference", 15.0) == 20.0

    def test_windows_are_per_site(self):
        plan = FaultPlan().with_window("inference", 10.0, 20.0)
        injector = FaultInjector(plan)
        assert not injector.fires("executor", 15.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            FaultWindow("inference", 5.0, 1.0)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={"executor": 1.5})

    def test_rate_sequence_reproducible_from_seed(self):
        plan = FaultPlan(seed=99).with_rate("executor", 0.3)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        draws_a = [a.fires("executor", 0.0) for _ in range(200)]
        draws_b = [b.fires("executor", 0.0) for _ in range(200)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_sites_draw_independent_streams(self):
        """Traffic at one site must not shift another site's schedule."""
        plan = FaultPlan(seed=7).with_rate("executor", 0.3).with_rate(
            "inference", 0.3
        )
        lone = FaultInjector(plan)
        draws_lone = [lone.fires("executor", 0.0) for _ in range(100)]
        mixed = FaultInjector(plan)
        draws_mixed = []
        for _ in range(100):
            mixed.fires("inference", 0.0)  # interleaved other-site traffic
            draws_mixed.append(mixed.fires("executor", 0.0))
        assert draws_lone == draws_mixed

    def test_crash_time_is_first_crash_window(self):
        plan = (
            FaultPlan()
            .with_window("campaign_crash", 500.0, 501.0)
            .with_window("campaign_crash", 100.0, 101.0)
        )
        assert plan.crash_time() == 100.0
        assert FaultPlan.none().crash_time() is None

    def test_state_roundtrip_resumes_mid_stream(self):
        plan = FaultPlan(seed=3).with_rate("executor", 0.4)
        original = FaultInjector(plan)
        for _ in range(50):
            original.fires("executor", 0.0)
        state = json.loads(json.dumps(original.state()))
        resumed = FaultInjector(plan)
        resumed.restore(state)
        tail_original = [original.fires("executor", 0.0) for _ in range(100)]
        tail_resumed = [resumed.fires("executor", 0.0) for _ in range(100)]
        assert tail_original == tail_resumed
        assert resumed.injected == original.injected | resumed.injected

    def test_cluster_fault_helpers_target_worker_sites(self):
        plan = (
            FaultPlan()
            .with_worker_kill(2, 600.0)
            .with_worker_hang(0, 100.0, 200.0)
            .with_hub_partition(1, 300.0, 400.0)
            .with_shard_loss(3, 500.0, 700.0)
        )
        assert {window.site for window in plan.windows} == {
            "worker_kill:2", "worker_hang:0",
            "hub_partition:1", "shard_loss:3",
        }
        injector = FaultInjector(plan)
        assert injector.in_window("worker_hang:0", 150.0)
        assert not injector.in_window("worker_hang:1", 150.0)
        assert injector.in_window("hub_partition:1", 300.0)
        assert injector.in_window("shard_loss:3", 699.0)

    def test_kill_times_lists_only_this_workers_kills(self):
        plan = (
            FaultPlan()
            .with_worker_kill(0, 100.0)
            .with_worker_kill(0, 900.0)
            .with_worker_kill(1, 500.0)
        )
        assert plan.kill_times(0) == (100.0, 900.0)
        assert plan.kill_times(1) == (500.0,)
        assert plan.kill_times(2) == ()

    def test_hang_start_is_process_scoped_lookup(self):
        plan = FaultPlan().with_worker_hang(0, 100.0, 200.0)
        assert plan.hang_start(0, 150.0) == 100.0
        assert plan.hang_start(0, 99.0) is None
        assert plan.hang_start(0, 200.0) is None
        assert plan.hang_start(1, 150.0) is None


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=100.0)
        for time in (1.0, 2.0):
            breaker.record_failure(time)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(3.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow(50.0)

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=100.0)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success(3.0)
        breaker.record_failure(4.0)
        breaker.record_failure(5.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_then_close(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=100.0)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        # Reset timeout elapsed: exactly one probe is admitted.
        assert breaker.allow(100.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(101.0)
        breaker.record_success(110.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(111.0)

    def test_half_open_probe_failure_retrips(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        breaker.record_failure(110.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow(150.0)

    def test_cancel_probe_releases_reservation(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.cancel_probe()
        assert breaker.allow(11.0)  # probe slot free again

    def test_transitions_recorded(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure(1.0)
        breaker.allow(11.0)
        breaker.record_success(12.0)
        assert [name for _, name in breaker.transitions] == [
            "open", "half_open", "closed"
        ]

    def test_state_roundtrip(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        state = json.loads(json.dumps(breaker.state_dict()))
        clone = CircuitBreaker(failure_threshold=2, reset_timeout=10.0)
        clone.restore(state)
        assert clone.state is BreakerState.OPEN
        assert clone.trips == breaker.trips
        assert clone.transitions == breaker.transitions

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0.0)

    def test_clock_jump_past_many_probe_windows_admits_one_probe(self):
        """A virtual-clock jump spanning several reset timeouts must
        still admit exactly one half-open probe, not a burst."""
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure(0.0)
        # now jumps 5 reset-timeouts ahead in one tick
        assert breaker.allow(50.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(50.0)
        assert not breaker.allow(55.0)
        # the single probe's verdict decides the state
        breaker.record_success(60.0)
        assert breaker.state is BreakerState.CLOSED

    def test_stale_success_does_not_close_open_breaker(self):
        """A success recorded for a request issued before the trip must
        not close the breaker (that would skip the probe protocol)."""
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        breaker.record_success(1.0)  # pre-trip request completing late
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(5.0)

    def test_success_without_reserved_probe_keeps_half_open(self):
        """After cancel_probe, a stale success must not close the
        breaker: only the reserved probe's result counts."""
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.cancel_probe()
        breaker.record_success(11.0)  # no probe in flight
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow(12.0)  # probe slot still available
        breaker.record_success(13.0)
        assert breaker.state is BreakerState.CLOSED


class TestWatchdog:
    def test_injected_hang_becomes_structured_timeout(self, kernel, generator):
        plan = FaultPlan(seed=1).with_window("executor", 0.0, 1e9)
        executor = Executor(kernel, injector=FaultInjector(plan))
        result = executor.run(generator.random_program(length=3), now=1.0)
        assert result.timed_out
        assert result.timeout.reason == "injected_hang"
        assert result.timeout.call_index == 0
        assert result.timeout.steps >= 1
        assert result.crash is None
        assert executor.vm_restarts == 1
        # Coverage up to the kill is kept (KCOV survives the watchdog).
        assert result.coverage.blocks

    def test_hang_truncates_program(self, kernel, generator):
        plan = FaultPlan(seed=1).with_window("executor", 0.0, 1e9)
        executor = Executor(kernel, injector=FaultInjector(plan))
        result = executor.run(generator.random_program(length=4), now=0.0)
        # The hung call never returns; later calls never run.
        assert len(result.coverage.call_traces) == 1
        assert result.retvals == []

    def test_no_injector_no_timeouts(self, kernel, generator):
        executor = Executor(kernel)
        result = executor.run(generator.random_program(length=3))
        assert not result.timed_out
        assert executor.vm_restarts == 0

    def test_executor_hang_is_timeout_error(self):
        assert issubclass(ExecutorHang, ExecutionError)
        assert issubclass(ExecutorHang, TimeoutError)
        assert issubclass(InferenceTimeout, TimeoutError)

    def test_fault_free_injector_changes_nothing(self, kernel, generator):
        """An attached but empty plan must not perturb execution."""
        program = generator.random_program(length=4)
        plain = Executor(kernel, seed=7).run(program)
        injected = Executor(
            kernel, seed=7, injector=FaultInjector(FaultPlan.none())
        ).run(program, now=123.0)
        assert plain.coverage.blocks == injected.coverage.blocks
        assert plain.retvals == injected.retvals


class TestCheckpointFiles:
    def test_save_load_roundtrip(self, tmp_path):
        state = {"clock": {"now": 5.0}, "format_version": 1, "x": [1, 2]}
        path = save_checkpoint(tmp_path / "ck.json", state)
        assert load_checkpoint(path) == state

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = save_checkpoint(
            tmp_path / "ck.json", {"clock": {"now": 1.0}}
        )
        text = path.read_text().replace('"now": 1.0', '"now": 2.0')
        path.write_text(text)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_saved_file_loads_equal_to_its_input(self, tmp_path):
        state = {
            "zeta": {"b": [1, 2.5, None, "x"], "a": {"nested": True}},
            "clock": {"now": 3.0},
            "alpha": [],
        }
        path = save_checkpoint(tmp_path / "ck.json", state)
        assert load_checkpoint(path) == state
        envelope = json.loads(path.read_text())
        assert list(envelope) == ["format_version", "digest", "state"]
        assert envelope["state"] == state

    def test_envelope_in_insertion_order_still_loads(self, tmp_path):
        """Files whose envelope was dumped whole, the state in insertion
        order, load: the digest covers the sorted-key encoding, whatever
        order the file holds."""
        state = {"zeta": 1, "clock": {"now": 3.0}, "alpha": [{"y": 2, "b": 1}]}
        body = json.dumps(state, sort_keys=True)
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "format_version": 7,
            "digest": hashlib.blake2b(body.encode()).hexdigest(),
            "state": state,
        }))
        assert load_checkpoint(path) == state

    def test_one_character_edit_in_state_is_rejected(self, tmp_path):
        path = save_checkpoint(
            tmp_path / "ck.json", {"clock": {"now": 1.0}, "name": "abc"}
        )
        text = path.read_text()
        edited = text.replace('"abc"', '"abd"')
        assert len(edited) == len(text) and edited != text
        path.write_text(edited)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_store_retention(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for now in (100, 200, 300):
            store.save({"clock": {"now": float(now)}})
        remaining = sorted(p.name for p in tmp_path.glob("ckpt_*.json"))
        assert len(remaining) == 2
        assert store.load_latest()["clock"]["now"] == 300.0

    def test_store_gives_up_on_persistent_write_failure(self, tmp_path):
        plan = FaultPlan().with_window("checkpoint_store", 0.0, 1e9)
        store = CheckpointStore(tmp_path, injector=FaultInjector(plan))
        with pytest.raises(CheckpointError):
            store.save({"clock": {"now": 50.0}})


class TestCheckpointResume:
    def _seeded_loop(self, kernel, run_seed, config, injector=None):
        loop = build_loop(
            kernel, None, run_seed, config, baseline=True, injector=injector
        )
        seeds = ProgramGenerator(
            kernel.table, split(run_seed, "s")
        ).seed_corpus(8)
        loop.seed(seeds)
        return loop

    def test_resume_is_bit_identical(self, kernel):
        """Two restores of one checkpoint replay identical remainders."""
        config = CampaignConfig(
            horizon=2400.0, runs=1, seed=23, seed_corpus_size=8,
            sample_interval=300.0,
        )
        run_seed = derive_seed(23, "bit")
        loop = self._seeded_loop(kernel, run_seed, config)
        loop.run_until(1200.0)
        state = json.loads(json.dumps(loop_state(loop)))
        finals = []
        for _ in range(2):
            fresh = build_loop(kernel, None, run_seed, config, baseline=True)
            restore_loop_state(fresh, state)
            fresh.run_until(config.horizon)
            finals.append(fresh.finalize())
        assert _stats_signature(finals[0]) == _stats_signature(finals[1])
        assert finals[0].resumes == 1

    def test_resume_matches_uninterrupted_baseline_loop(self, kernel):
        """The plain (inference-free) loop has no in-flight state, so a
        resumed run must equal the uninterrupted one exactly: the same
        stats, and the same corpus, program text and lineage ids too."""
        config = CampaignConfig(
            horizon=1800.0, runs=1, seed=29, seed_corpus_size=8,
            sample_interval=300.0,
        )
        run_seed = derive_seed(29, "exact")
        continuous = self._seeded_loop(kernel, run_seed, config)
        continuous.run_until(900.0)
        state = json.loads(json.dumps(loop_state(continuous)))
        continuous.run_until(config.horizon)
        uninterrupted = continuous.finalize()
        resumed_loop = build_loop(
            kernel, None, run_seed, config, baseline=True
        )
        restore_loop_state(resumed_loop, state)
        resumed_loop.run_until(config.horizon)
        resumed = resumed_loop.finalize()
        signature = _stats_signature(uninterrupted)
        resumed_signature = _stats_signature(resumed)
        assert signature == resumed_signature
        assert _corpus_text(resumed_loop) == _corpus_text(continuous)
        assert _entry_ids(resumed_loop) == _entry_ids(continuous)

    def test_generator_offset_resumes_and_defaults_to_zero(self, kernel):
        """The generator's pointer offset is checkpointed; a state saved
        without it restores offset 0."""
        config = CampaignConfig(
            horizon=1800.0, runs=1, seed=29, seed_corpus_size=8,
            sample_interval=300.0,
        )
        run_seed = derive_seed(29, "offset")
        loop = self._seeded_loop(kernel, run_seed, config)
        loop.run_until(600.0)
        state = json.loads(json.dumps(loop_state(loop)))
        assert state["generator_offset"] == loop.engine.generator._next_offset
        assert state["generator_offset"] > 0
        resumed = build_loop(kernel, None, run_seed, config, baseline=True)
        restore_loop_state(resumed, state)
        assert resumed.engine.generator._next_offset == state[
            "generator_offset"
        ]
        del state["generator_offset"]
        restore_loop_state(resumed, state)
        assert resumed.engine.generator._next_offset == 0

    def test_resume_preserves_fault_schedule(self, kernel):
        """The injector's draw streams resume mid-sequence too."""
        plan = FaultPlan(seed=5).with_rate("executor", 0.05).with_rate(
            "corpus_store", 0.05
        )
        config = CampaignConfig(
            horizon=1800.0, runs=1, seed=31, seed_corpus_size=8,
            sample_interval=300.0,
        )
        run_seed = derive_seed(31, "sched")
        continuous = self._seeded_loop(
            kernel, run_seed, config, FaultInjector(plan)
        )
        continuous.run_until(900.0)
        state = json.loads(json.dumps(loop_state(continuous)))
        continuous.run_until(config.horizon)
        uninterrupted = continuous.finalize()
        fresh = build_loop(
            kernel, None, run_seed, config, baseline=True,
            injector=FaultInjector(plan),
        )
        restore_loop_state(fresh, state)
        fresh.run_until(config.horizon)
        resumed = fresh.finalize()
        assert _stats_signature(uninterrupted) == _stats_signature(resumed)
        assert resumed.vm_restarts == uninterrupted.vm_restarts
        assert resumed.vm_restarts > 0

    def test_restore_rejects_wrong_kernel(self, kernel, kernel_69):
        config = CampaignConfig(
            horizon=600.0, runs=1, seed=3, seed_corpus_size=6,
        )
        run_seed = derive_seed(3, "wrong")
        loop = self._seeded_loop(kernel, run_seed, config)
        loop.run_until(300.0)
        state = loop_state(loop)
        other = build_loop(kernel_69, None, run_seed, config, baseline=True)
        with pytest.raises(CheckpointError):
            restore_loop_state(other, state)


class TestSnowplowResume:
    def test_snowplow_resume_bit_identical(self, kernel, trained):
        config = CampaignConfig(
            horizon=2400.0, runs=1, seed=11, seed_corpus_size=8,
            sample_interval=300.0,
        )
        run_seed = derive_seed(11, "snow")
        loop = build_loop(kernel, trained, run_seed, config)
        seeds = ProgramGenerator(
            kernel.table, split(run_seed, "s")
        ).seed_corpus(8)
        loop.seed([p.clone() for p in seeds])
        loop.run_until(1200.0)
        pending = loop.service.pending_count()
        state = json.loads(json.dumps(loop_state(loop)))
        finals = []
        for _ in range(2):
            fresh = build_loop(kernel, trained, run_seed, config)
            restore_loop_state(fresh, state)
            fresh.run_until(config.horizon)
            finals.append(fresh.finalize())
        assert _stats_signature(finals[0]) == _stats_signature(finals[1])
        # In-flight predictions died with the worker and are accounted.
        assert finals[0].inference_failures >= pending


class TestFaultToleranceCampaign:
    def test_acceptance_scenario(self, kernel, trained, tmp_path):
        """The ISSUE acceptance criterion: inference outage + VM
        restarts + one mid-run crash/resume, fixed seed, graceful
        degradation with a visible failure ledger."""
        config = CampaignConfig(
            horizon=2400.0, runs=1, seed=11, seed_corpus_size=10,
            sample_interval=300.0,
        )
        plan = (
            FaultPlan(seed=42)
            .with_rate("executor", 0.01)
            .with_rate("corpus_store", 0.05)
            .with_window("inference", 600.0, 1200.0)
            .with_window("campaign_crash", 1500.0, 1501.0)
        )
        result = run_fault_tolerance_campaign(
            kernel, trained, config, plan,
            checkpoint_interval=600.0,
            checkpoint_dir=str(tmp_path / "ckpts"),
        )
        assert result.resumed
        assert result.crash_time == 1500.0
        assert result.checkpoints_taken >= 1
        faulted = result.faulted
        assert faulted.resumes == 1
        assert faulted.vm_restarts >= 1
        assert faulted.inference_failures > 0
        assert faulted.final_edges > 0
        # Graceful degradation, not collapse: the faulted run keeps a
        # healthy share of the fault-free coverage (the 15% acceptance
        # bound is asserted at bench scale; unit scale stays looser).
        assert result.coverage_ratio > 0.6
        assert list((tmp_path / "ckpts").glob("ckpt_*.json"))

    def test_campaign_determinism(self, kernel, trained):
        config = CampaignConfig(
            horizon=1200.0, runs=1, seed=17, seed_corpus_size=8,
            sample_interval=300.0,
        )
        plan = (
            FaultPlan(seed=9)
            .with_rate("executor", 0.02)
            .with_window("campaign_crash", 700.0, 701.0)
        )
        results = [
            run_fault_tolerance_campaign(
                kernel, trained, config, plan, checkpoint_interval=300.0
            )
            for _ in range(2)
        ]
        assert (
            _stats_signature(results[0].faulted)
            == _stats_signature(results[1].faulted)
        )
        assert (
            _stats_signature(results[0].fault_free)
            == _stats_signature(results[1].fault_free)
        )

    def test_breaker_trips_under_serving_outage(self, kernel, trained):
        """With laptop-scale latency the breaker visibly opens during an
        inference outage and recovers after it."""
        cost = CostModel(inference_latency=30.0)
        config = CampaignConfig(
            horizon=2400.0, runs=1, seed=19, seed_corpus_size=8,
            sample_interval=300.0, cost=cost,
        )
        plan = FaultPlan(seed=4).with_window("inference", 300.0, 1200.0)
        run_seed = derive_seed(19, "breaker")
        injector = FaultInjector(plan)
        loop = build_loop(
            kernel, trained, run_seed, config, injector=injector
        )
        seeds = ProgramGenerator(
            kernel.table, split(run_seed, "s")
        ).seed_corpus(8)
        loop.seed([p.clone() for p in seeds])
        stats = loop.run()
        assert loop.service.stats.timeouts > 0
        assert stats.breaker_trips >= 1
        assert stats.heuristic_fallbacks > 0
        # The outage ended mid-campaign; the half-open probe closed the
        # breaker again.
        assert stats.breaker_state == "closed"
        assert loop.service.stats.completed > 0
