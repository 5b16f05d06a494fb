"""Tests for the repro.observe analytics layer: virtual-time series,
the SLO/alert engine, live model-quality telemetry, the campaign health
report — and the PR's acceptance properties: checkpoint format v4
carries timelines byte-exactly through kill+resume, and an induced
coverage stall fires its alert at a deterministic virtual timestamp."""

import json
import os

import pytest

from repro.cli import main
from repro.kernel import build_kernel
from repro.observe import (
    Histogram,
    MetricsRegistry,
    ModelQualityTracker,
    Observer,
    SLOEngine,
    SeriesBuffer,
    StallRule,
    ThresholdRule,
    TimeSeriesStore,
    Tracer,
    alerts_json,
    BurnRateRule,
    campaign_report,
    chrome_trace,
    default_cluster_rules,
    default_fuzz_rules,
    default_rules,
    default_serving_rules,
    drift_summary,
    flatten_snapshot,
    format_model_quality,
    load_alerts,
    load_spans_jsonl,
    load_timeseries,
    model_quality_summary,
    parse_series_key,
    series_key,
    spans_jsonl,
    sparkline,
)
from repro.rng import split
from repro.snowplow import CampaignConfig, loop_state, restore_loop_state
from repro.snowplow.campaign import build_loop
from repro.syzlang import ProgramGenerator

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# ----- fixed fixture for the golden files -----


def _demo_analytics():
    """A scripted campaign's worth of series: coverage that plateaus at
    t=1800s (so the default stall rule fires at exactly t=5400s), a
    steady serving tier, and a handful of scored predictions."""
    registry = MetricsRegistry()
    store = TimeSeriesStore(interval=600.0, capacity=32, depth=2)
    edges = registry.gauge("fuzz.edges", worker=0)
    blocks = registry.gauge("fuzz.blocks", worker=0)
    executions = registry.counter("fuzz.executions", worker=0)
    delay = registry.histogram("serve.queue_delay")
    registry.counter("fuzz.heuristic_fallbacks", worker=0).inc(10)
    registry.counter("fuzz.inference_submitted", worker=0).inc(30)
    tracker = ModelQualityTracker(registry, kernel="6.8", worker=0)
    for _ in range(5):
        tracker.note_prediction(True)
    tracker.note_prediction(False)
    tracker.score_burst({1, 2, 3, 4}, {1, 2}, 5)
    tracker.score_burst({5, 6}, set(), 0)
    for tick in range(16):
        edges.set(min(40 * tick, 120))
        blocks.set(min(35 * tick, 105))
        executions.inc(25)
        delay.add(120.0)
        store.sample(tick * 600.0, registry)
    return registry, store


def _demo_alerts():
    registry, store = _demo_analytics()
    return SLOEngine(default_rules()).evaluate(store)


# ----- time-series store -----


class TestSeriesBuffer:
    def test_retains_everything_under_capacity(self):
        buffer = SeriesBuffer(capacity=8, depth=2)
        for tick in range(8):
            buffer.append(float(tick), float(tick * 2))
        assert buffer.points() == [
            (float(tick), float(tick * 2)) for tick in range(8)
        ]

    def test_overflow_coarsens_into_next_level(self):
        buffer = SeriesBuffer(capacity=4, depth=2)
        for tick in range(6):
            buffer.append(float(tick), float(tick))
        points = buffer.points()
        # The 5th append overflowed level 0: its oldest pair (t=0, t=1)
        # merged into one coarse point at the next level.
        assert len(points) == 5
        times = [time for time, _ in points]
        assert times == sorted(times)
        # "last" merge keeps the later point of the merged pair.
        assert points[0] == (1.0, 1.0)

    def test_max_merge_keeps_spikes(self):
        buffer = SeriesBuffer(capacity=2, depth=2, merge="max")
        for time, value in ((0.0, 9.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)):
            buffer.append(time, value)
        # The 9.0 spike at t=0 must survive coarsening (stamped onto
        # the merged pair's later time).
        assert 9.0 in [value for _, value in buffer.points()]

    def test_deepest_level_drops_oldest(self):
        buffer = SeriesBuffer(capacity=2, depth=1)
        for tick in range(10):
            buffer.append(float(tick), float(tick))
        assert len(buffer) <= 3

    def test_window_query(self):
        buffer = SeriesBuffer(capacity=16, depth=1)
        for tick in range(10):
            buffer.append(float(tick), float(tick))
        assert buffer.points(start=3.0, end=5.0) == [
            (3.0, 3.0), (4.0, 4.0), (5.0, 5.0)
        ]

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SeriesBuffer(capacity=1)
        with pytest.raises(ValueError):
            SeriesBuffer(merge="median")


class TestTimeSeriesStore:
    def test_cadence(self):
        store = TimeSeriesStore(interval=100.0)
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert store.maybe_sample(0.0, registry)
        assert not store.maybe_sample(50.0, registry)
        assert store.maybe_sample(100.0, registry)
        assert store.samples == 2

    def test_flattening_matches_diff_semantics(self):
        registry = MetricsRegistry()
        registry.counter("fuzz.executions", worker=1).inc(7)
        registry.gauge("fuzz.edges").set(3)
        registry.histogram("serve.queue_delay").add(4.0)
        flat = flatten_snapshot(registry.snapshot())
        assert flat["fuzz.executions{worker=1}"] == (7, "last")
        assert flat["fuzz.edges"] == (3, "last")
        assert flat["serve.queue_delay/p95"] == (4.0, "max")
        assert flat["serve.queue_delay/count"] == (1, "last")

    def test_diagnostic_series_never_sampled(self):
        registry = MetricsRegistry()
        registry.counter("fuzz.resumes", diagnostic=True).inc()
        registry.counter("fuzz.executions").inc()
        store = TimeSeriesStore()
        store.sample(0.0, registry)
        assert store.series() == ["fuzz.executions"]

    def test_pattern_query(self):
        _, store = _demo_analytics()[0], _demo_analytics()[1]
        assert store.series("fuzz.edges") == ["fuzz.edges{worker=0}"]
        assert store.latest("fuzz.edges{worker=0}") == (9000.0, 120.0)

    def test_state_roundtrip_is_byte_exact(self):
        _, store = _demo_analytics()
        clone = TimeSeriesStore(
            interval=store.interval, capacity=store.capacity,
            depth=store.depth,
        )
        clone.restore(json.loads(json.dumps(store.state_dict())))
        assert clone.to_json() == store.to_json()
        assert clone.last_sample_time == store.last_sample_time
        # And the restored store keeps sampling on the same cadence.
        assert not clone.due(store.last_sample_time + 1.0)

    def test_load_timeseries_roundtrip(self):
        _, store = _demo_analytics()
        loaded = load_timeseries(store.to_json())
        for key in store.series():
            assert loaded.points(key) == store.points(key)


# ----- SLO rules -----


class TestSLORules:
    def _store(self, values, key="fuzz.edges{worker=0}", step=100.0):
        store = TimeSeriesStore(interval=step, capacity=256, depth=1)
        buffer = SeriesBuffer(capacity=256, depth=1)
        for tick, value in enumerate(values):
            buffer.append(tick * step, float(value))
        store._series[key] = buffer
        return store

    def test_threshold_fires_once_per_episode(self):
        store = self._store([1, 5, 5, 1, 5, 1], key="serve.queue_delay/p95")
        rule = ThresholdRule("delay", "serve.queue_delay/p95", "<=", 3.0)
        alerts = rule.evaluate(store)
        assert [alert.time for alert in alerts] == [100.0, 400.0]
        assert alerts[0].value == 5.0

    def test_stall_fires_at_deterministic_time(self):
        # Progress stops at t=200; window 300 → alert at exactly t=500.
        store = self._store([0, 10, 20, 20, 20, 20, 20, 20])
        rule = StallRule("stall", "fuzz.edges", window=300.0)
        alerts = rule.evaluate(store)
        assert len(alerts) == 1
        assert alerts[0].time == 500.0
        # Re-arms on new progress, then fires again.
        store = self._store([0, 10, 20, 20, 20, 20, 30, 30, 30, 30, 30])
        alerts = rule.evaluate(store)
        assert [alert.time for alert in alerts] == [500.0, 900.0]

    def test_stall_quiet_while_progressing(self):
        store = self._store(list(range(10)))
        assert StallRule("s", "fuzz.edges", window=300.0).evaluate(store) == []

    def test_burn_rate_absolute(self):
        store = self._store(
            [0, 0, 1, 5, 5, 5], key="serve.breaker_trips"
        )
        rule = BurnRateRule(
            "trips", "serve.breaker_trips", window=200.0, budget=2.0
        )
        alerts = rule.evaluate(store)
        # Fires once at t=300 (growth 5 over the trailing window vs the
        # t=100 baseline of 0); stays in-violation at t=400 (growth 4)
        # without re-alerting, re-arms at t=500 (growth 0).
        assert [alert.time for alert in alerts] == [300.0]
        assert alerts[0].value == 5.0

    def test_burn_rate_ratio(self):
        store = self._store([0, 2, 4, 40], key="serve.failures")
        denominator = SeriesBuffer(capacity=256, depth=1)
        for tick, value in enumerate([10, 20, 30, 60]):
            denominator.append(tick * 100.0, float(value))
        store._series["serve.submitted"] = denominator
        rule = BurnRateRule(
            "loss", "serve.failures", window=200.0, budget=0.5,
            denominator="serve.submitted",
        )
        alerts = rule.evaluate(store)
        # At t=300: failures grew 40-2=38, submitted grew 60-20=40.
        assert [alert.time for alert in alerts] == [300.0]
        assert alerts[0].value == pytest.approx(38 / 40)

    def test_substring_match_covers_all_workers(self):
        store = self._store([5, 5, 5, 5, 5, 5, 5])
        store._series["fuzz.edges{worker=1}"] = (
            store._series["fuzz.edges{worker=0}"]
        )
        rule = StallRule("stall", "fuzz.edges", window=300.0)
        assert {alert.series for alert in rule.evaluate(store)} == {
            "fuzz.edges{worker=0}", "fuzz.edges{worker=1}"
        }

    def test_default_packs_shape(self):
        for pack in (default_fuzz_rules(), default_serving_rules(),
                     default_cluster_rules()):
            assert pack
        names = [rule.name for rule in default_rules()]
        assert len(names) == len(set(names))
        assert "fuzz.coverage_stall" in names
        assert "serve.queue_delay_p95" in names

    def test_engine_sorts_and_annotates(self):
        registry, store = _demo_analytics()
        engine = SLOEngine(default_rules())
        alerts = engine.evaluate(store)
        assert alerts == sorted(alerts)
        tracer = Tracer()
        assert engine.annotate(tracer, store) == alerts
        instants = [
            event for event in tracer.events()
            if getattr(event, "cat", None) == "alert"
        ]
        assert len(instants) == len(alerts)
        assert instants[0].track == "alerts"

    def test_alerts_json_roundtrip(self):
        alerts = _demo_alerts()
        assert alerts
        assert load_alerts(alerts_json(alerts)) == sorted(alerts)


# ----- model quality -----


class TestModelQuality:
    def test_score_burst_math(self):
        registry = MetricsRegistry()
        tracker = ModelQualityTracker(registry, kernel="6.8")
        # 4 predicted, 2 hit, 5 blocks gained: precision 0.5, recall 0.4.
        tracker.score_burst({1, 2, 3, 4}, {1, 2}, 5)
        summary = model_quality_summary(registry.snapshot())["6.8"]
        assert summary["precision"] == pytest.approx(0.5)
        assert summary["recall"] == pytest.approx(2 / 5)
        assert summary["target_hit_rate"] == pytest.approx(0.5)

    def test_unproductive_burst_scores_zero(self):
        registry = MetricsRegistry()
        tracker = ModelQualityTracker(registry, kernel="6.9")
        tracker.score_burst({7, 8}, set(), 0)
        summary = model_quality_summary(registry.snapshot())["6.9"]
        assert summary["precision"] == 0.0
        assert summary["f1"] == 0.0

    def test_acceptance_rate(self):
        registry = MetricsRegistry()
        tracker = ModelQualityTracker(registry, kernel="6.8")
        for accepted in (True, True, False, True):
            tracker.note_prediction(accepted)
        summary = model_quality_summary(registry.snapshot())["6.8"]
        assert summary["acceptance_rate"] == pytest.approx(0.75)

    def test_workers_aggregate_within_release(self):
        registry = MetricsRegistry()
        for worker in (0, 1):
            tracker = ModelQualityTracker(
                registry, kernel="6.8", worker=worker
            )
            tracker.score_burst({1, 2}, {1}, 2)
        summary = model_quality_summary(registry.snapshot())
        assert list(summary) == ["6.8"]
        assert summary["6.8"]["bursts_scored"] == 2

    def test_drift_is_relative_to_train_release(self):
        summaries = {
            "6.8": {"precision": 0.6, "recall": 0.5, "f1": 0.55,
                    "jaccard": 0.4, "acceptance_rate": 0.9},
            "6.10": {"precision": 0.4, "recall": 0.45, "f1": 0.42,
                     "jaccard": 0.3, "acceptance_rate": 0.8},
        }
        drift = drift_summary(summaries)
        assert list(drift) == ["6.10"]
        assert drift["6.10"]["precision"] == pytest.approx(-0.2)
        assert drift_summary({}) == {}

    def test_format_handles_untracked_runs(self):
        assert "no mq.* series" in format_model_quality({})

    def test_fallback_share_reads_fuzz_counters(self):
        registry, _ = _demo_analytics()
        summary = model_quality_summary(registry.snapshot())["6.8"]
        assert summary["fallback_share"] == pytest.approx(10 / 40)


class TestParseSeriesKey:
    def test_roundtrip(self):
        key = series_key("fuzz.executions", {"worker": 3, "kernel": "6.9"})
        name, labels = parse_series_key(key)
        assert name == "fuzz.executions"
        assert labels == {"kernel": "6.9", "worker": "3"}

    def test_plain_and_derived_keys(self):
        assert parse_series_key("fuzz.edges") == ("fuzz.edges", {})
        name, labels = parse_series_key("serve.queue_delay{worker=1}/p95")
        assert name == "serve.queue_delay/p95"
        assert labels == {"worker": "1"}


# ----- histogram percentile edge cases (regression tests) -----


class TestHistogramEdgeCases:
    def test_empty(self):
        histogram = Histogram("h", {})
        assert histogram.p50 == histogram.p95 == histogram.p99 == 0.0
        assert histogram.mean == 0.0
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p95"] == 0.0

    @pytest.mark.parametrize("value", [
        0.0, 1.0, 2.0, 0.1, 1e-300, 5e-324, 1e300, 37.5, 1024.0,
    ])
    def test_single_sample_quantiles_are_the_sample(self, value):
        histogram = Histogram("h", {})
        histogram.add(value)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert histogram.quantile(q) == value
        assert histogram.mean == value

    def test_all_equal_stream(self):
        histogram = Histogram("h", {})
        for _ in range(100):
            histogram.add(37.5)
        assert histogram.p50 == histogram.p99 == 37.5

    def test_zero_heavy_stream(self):
        histogram = Histogram("h", {})
        for _ in range(99):
            histogram.add(0.0)
        histogram.add(8.0)
        # Rank convention: the 99th of 100 samples is still a zero, so
        # p99 stays 0.0; only the max quantile reaches the outlier.
        assert histogram.p50 == 0.0
        assert histogram.p99 == 0.0
        assert histogram.quantile(1.0) == 8.0

    def test_two_distinct_samples_stay_clamped(self):
        histogram = Histogram("h", {})
        histogram.add(3.0)
        histogram.add(5.0)
        for q in (0.01, 0.5, 0.99):
            assert 3.0 <= histogram.quantile(q) <= 5.0


# ----- exporter round-trip (satellite) -----


class TestExporterRoundTrip:
    def test_spans_jsonl_to_chrome_trace(self):
        tracer = Tracer()
        # Nested spans (containment) plus instants on two tracks.
        tracer.record("worker0", "iteration", 0.0, 100.0, cat="iteration")
        tracer.record("worker0", "exec", 10.0, 60.0, cat="exec")
        tracer.record("worker0", "triage", 60.0, 90.0, cat="triage")
        tracer.instant("worker0", "crash", 90.0, cat="crash", kind="KASAN")
        tracer.record("serve", "inference", 5.0, 45.0, cat="inference")
        tracer.instant("alerts", "fuzz.coverage_stall", 70.0, cat="alert")
        text = spans_jsonl(tracer)
        rebuilt = load_spans_jsonl(text)
        # Byte-exact through the round trip, for both exporters.
        assert spans_jsonl(rebuilt) == text
        assert chrome_trace(rebuilt) == chrome_trace(tracer)
        doc = json.loads(chrome_trace(rebuilt))
        phases = [event["ph"] for event in doc["traceEvents"]]
        assert phases.count("i") == 2
        assert phases.count("X") == 4


# ----- golden files -----


class TestGoldenAnalytics:
    def test_alerts_json_matches_golden(self):
        rendered = alerts_json(_demo_alerts())
        with open(os.path.join(GOLDEN_DIR, "observe_alerts.json")) as handle:
            assert rendered + "\n" == handle.read()

    def test_report_matches_golden(self):
        registry, store = _demo_analytics()
        rules = default_rules()
        alerts = SLOEngine(rules).evaluate(store)
        rendered = campaign_report(
            registry.snapshot(), store=store, alerts=alerts, rules=rules,
        )
        with open(os.path.join(GOLDEN_DIR, "observe_report.txt")) as handle:
            assert rendered == handle.read()


class TestSparkline:
    def test_deterministic_and_bounded(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == "---"
        line = sparkline([float(v) for v in range(100)], width=24)
        assert len(line) == 24
        assert line[0] == " " and line[-1] == "@"


# ----- CLI -----


class TestReportCLI:
    def _export_demo(self, directory):
        registry, store = _demo_analytics()
        observer = Observer(
            registry=registry, timeseries=store,
            slo=SLOEngine(default_rules()),
        )
        observer.export(directory)
        return directory

    def test_observe_report_writes_alerts_and_prints(self, tmp_path, capsys):
        directory = self._export_demo(tmp_path / "obs")
        assert main(["observe", "report", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "campaign health report" in out
        assert "fuzz.coverage_stall" in out
        assert "model quality" in out
        alerts = load_alerts((directory / "alerts.json").read_text())
        assert any(alert.rule == "fuzz.coverage_stall" for alert in alerts)

    def test_observe_report_out_file_matches_stdout(self, tmp_path, capsys):
        directory = self._export_demo(tmp_path / "obs")
        out_file = tmp_path / "report.txt"
        assert main([
            "observe", "report", str(directory), "--out", str(out_file)
        ]) == 0
        assert out_file.read_text() == capsys.readouterr().out

    def test_observe_check_slo(self, tmp_path, capsys):
        directory = self._export_demo(tmp_path / "obs")
        metrics = str(directory / "metrics.json")
        # The demo stall is a warn, not critical: plain check passes,
        # --strict turns any alert into a failure.
        assert main([
            "observe", "check", metrics,
            "--require", "fuzz.executions", "--slo", "default",
        ]) == 0
        assert "fuzz.coverage_stall" in capsys.readouterr().out
        assert main([
            "observe", "check", metrics, "--slo", "default", "--strict",
        ]) == 1


# ----- acceptance: stall alert on a real seeded campaign -----


def _stalling_campaign(horizon=15000.0):
    # A "tiny" kernel saturates within the horizon; "small" keeps
    # creeping for tens of thousands of virtual seconds.
    kernel = build_kernel("6.8", seed=1, size="tiny")
    config = CampaignConfig(
        horizon=horizon, runs=1, seed=23, seed_corpus_size=12,
        sample_interval=300.0,
    )
    observer = Observer(
        slo=SLOEngine(default_fuzz_rules(stall_window=1500.0))
    )
    loop = build_loop(
        kernel, None, 5, config, baseline=True, observer=observer
    )
    seeds = ProgramGenerator(
        kernel.table, split(5, "seed-corpus")
    ).seed_corpus(config.seed_corpus_size)
    loop.seed(seeds)
    loop.run()
    return observer


class TestStallAcceptance:
    def test_induced_stall_fires_deterministically(self):
        """A tiny kernel fuzzed far past its plateau must trip the
        coverage-stall rule, at the same virtual timestamp every run."""
        first = _stalling_campaign()
        stalls = [
            alert for alert in first.evaluate_slo()
            if alert.rule == "fuzz.coverage_stall"
        ]
        assert stalls, "campaign never plateaued — stall rule untested"
        again = _stalling_campaign()
        assert [
            (alert.time, alert.series)
            for alert in again.evaluate_slo()
            if alert.rule == "fuzz.coverage_stall"
        ] == [(alert.time, alert.series) for alert in stalls]


# ----- acceptance: checkpoint format v7 carries the timeline -----


class TestCheckpointV7:
    def test_format_version_is_7(self, kernel):
        config = CampaignConfig(
            horizon=1200.0, runs=1, seed=3, seed_corpus_size=8,
            sample_interval=300.0,
        )
        loop = build_loop(
            kernel, None, 9, config, baseline=True, observer=Observer()
        )
        seeds = ProgramGenerator(
            kernel.table, split(9, "seed-corpus")
        ).seed_corpus(8)
        loop.seed(seeds)
        state = loop_state(loop)
        assert state["format_version"] == 7
        assert "timeseries" in state["observer"]

    def test_single_loop_resume_replays_identical_timeline(self, kernel):
        def build():
            config = CampaignConfig(
                horizon=2400.0, runs=1, seed=3, seed_corpus_size=8,
                sample_interval=300.0,
            )
            loop = build_loop(
                kernel, None, 9, config, baseline=True, observer=Observer()
            )
            seeds = ProgramGenerator(
                kernel.table, split(9, "seed-corpus")
            ).seed_corpus(8)
            loop.seed(seeds)
            return loop

        whole = build()
        whole.run()
        whole.finalize()

        interrupted = build()
        interrupted.run_until(1200.0)
        state = json.loads(json.dumps(loop_state(interrupted)))
        resumed = build()
        restore_loop_state(resumed, state)
        resumed.run()
        resumed.finalize()
        assert (
            resumed.observer.timeseries.to_json()
            == whole.observer.timeseries.to_json()
        )
        assert resumed.observer.registry.to_json() == (
            whole.observer.registry.to_json()
        )
