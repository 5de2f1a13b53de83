"""Tests for repro.obs: metrics, span tracing, snapshots, summaries.

The aggregation contract under test: per-shard metric registries merge
associatively and commutatively, so the campaign aggregate — restricted
to its timing-free ``deterministic()`` subset — is identical across
worker counts and kill/resume cycles.
"""

import gc
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import CampaignConfig, FuzzConfig, FuzzDriver, run_campaign
from repro.ir.parser import parse_module
from repro.mutate import MutatorConfig
from repro.obs import (NULL_TRACER, GcProbe, Histogram, JsonlSnapshotSink,
                       ListTraceSink, MetricsRegistry, ProgressReporter,
                       ThroughputSnapshot, Tracer, campaign_summary,
                       load_summary, tracer_for_path, write_campaign_summary)
from repro.tv import RefinementConfig

IR = """define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  ret i32 %b
}
"""

SMALL = dict(corpus_size=4, mutants_per_file=8, max_inputs=8,
             pipelines=("O2",))


def small_config():
    return FuzzConfig(mutator=MutatorConfig(max_mutations=2),
                      tv=RefinementConfig(max_inputs=8))


# ---------------------------------------------------------------------------
# MetricsRegistry unit behavior.
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_add(self):
        metrics = MetricsRegistry()
        metrics.count("x")
        metrics.count("x", 2.5)
        assert metrics.counter("x") == pytest.approx(3.5)
        assert metrics.counter("missing") == 0.0
        assert metrics.counter("missing", default=7.0) == 7.0

    def test_gauges_keep_max(self):
        metrics = MetricsRegistry()
        metrics.gauge_max("hwm", 3.0)
        metrics.gauge_max("hwm", 1.0)
        metrics.gauge_max("hwm", 9.0)
        assert metrics.gauges["hwm"] == 9.0

    def test_histogram_buckets(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        histogram.observe(0.05)   # bucket 0
        histogram.observe(0.5)    # bucket 1
        histogram.observe(100.0)  # overflow slot
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.mean == pytest.approx((0.05 + 0.5 + 100.0) / 3)

    def test_counters_with_prefix(self):
        metrics = MetricsRegistry()
        metrics.count("mutate.op.shuffle")
        metrics.count("mutate.op.swap", 2)
        metrics.count("stage.mutate.seconds", 0.5)
        ops = metrics.counters_with_prefix("mutate.op.")
        assert ops == {"mutate.op.shuffle": 1.0, "mutate.op.swap": 2.0}

    def test_merge_semantics(self):
        left = MetricsRegistry()
        left.count("n", 2)
        left.gauge_max("g", 5.0)
        left.observe("h", 0.01)
        right = MetricsRegistry()
        right.count("n", 3)
        right.count("only_right")
        right.gauge_max("g", 3.0)
        right.observe("h", 2.0)
        left.merge(right)
        assert left.counter("n") == 5.0
        assert left.counter("only_right") == 1.0
        assert left.gauges["g"] == 5.0
        assert left.histograms["h"].count == 2
        # The donor registry is untouched.
        assert right.counter("n") == 3.0
        assert right.histograms["h"].count == 1

    def test_merge_rejects_mismatched_buckets(self):
        left = MetricsRegistry()
        left.observe("h", 0.1, buckets=(1.0,))
        right = MetricsRegistry()
        right.observe("h", 0.1, buckets=(2.0,))
        with pytest.raises(ValueError):
            left.merge(right)

    def test_pickle_roundtrip(self):
        metrics = MetricsRegistry()
        metrics.count("a", 4)
        metrics.gauge_max("g", 1.5)
        metrics.observe("h", 0.02)
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone == metrics

    def test_dict_roundtrip(self):
        metrics = MetricsRegistry()
        metrics.count("a", 4)
        metrics.gauge_max("g", 1.5)
        metrics.observe("h", 0.02)
        back = MetricsRegistry.from_dict(
            json.loads(json.dumps(metrics.to_dict())))
        assert back == metrics

    def test_from_empty_dict(self):
        assert MetricsRegistry.from_dict({}) == MetricsRegistry()

    def test_deterministic_excludes_timings_and_gauges(self):
        metrics = MetricsRegistry()
        metrics.count("mutants.created", 10)
        metrics.count("stage.mutate.seconds", 1.25)
        metrics.count("campaign.retry.attempts", 2)
        metrics.gauge_max("rss.high_water", 123.0)
        metrics.observe("iteration.seconds", 0.01)
        metrics.observe("tv.inputs", 3.0)
        subset = metrics.deterministic()
        assert subset["counters"] == {"mutants.created": 10.0}
        assert list(subset["histograms"]) == ["tv.inputs"]
        assert "gauges" not in subset


# ---------------------------------------------------------------------------
# Property tests: merging is associative and commutative.
# ---------------------------------------------------------------------------

# Exactly-representable values keep float addition associative, so the
# properties hold exactly (real metrics are counts and bucket tallies;
# the timing counters are excluded from cross-run comparisons anyway).
NAMES = st.sampled_from(["a", "b", "c", "stage.x.seconds"])
AMOUNTS = st.integers(min_value=0, max_value=1000).map(float)


@st.composite
def registries(draw):
    metrics = MetricsRegistry()
    for name, amount in draw(st.lists(st.tuples(NAMES, AMOUNTS),
                                      max_size=6)):
        metrics.count(name, amount)
    for name, value in draw(st.lists(st.tuples(NAMES, AMOUNTS),
                                     max_size=4)):
        metrics.gauge_max(name, value)
    for name, value in draw(st.lists(st.tuples(NAMES, AMOUNTS),
                                     max_size=6)):
        metrics.observe(name, value)
    return metrics


@settings(max_examples=60, deadline=None)
@given(registries(), registries())
def test_merge_commutative(a, b):
    ab = MetricsRegistry.merged([a, b])
    ba = MetricsRegistry.merged([b, a])
    assert ab.to_dict() == ba.to_dict()


@settings(max_examples=60, deadline=None)
@given(registries(), registries(), registries())
def test_merge_associative(a, b, c):
    left = MetricsRegistry.merged([MetricsRegistry.merged([a, b]), c])
    right = MetricsRegistry.merged([a, MetricsRegistry.merged([b, c])])
    assert left.to_dict() == right.to_dict()


@settings(max_examples=60, deadline=None)
@given(registries())
def test_merge_identity(a):
    assert MetricsRegistry.merged([a, MetricsRegistry()]).to_dict() == \
        a.to_dict()


# ---------------------------------------------------------------------------
# Tracing.
# ---------------------------------------------------------------------------


class TestTracer:
    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.record("x", 0.0, 1.0)  # must be a no-op

    def test_zero_rate_is_disabled(self):
        assert not Tracer(ListTraceSink(), sample_rate=0.0).enabled

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(ListTraceSink(), sample_rate=1.5)

    def test_records_relative_timestamps_and_meta(self):
        sink = ListTraceSink()
        tracer = Tracer(sink)
        tracer.record("mutate", tracer.epoch + 0.5, 0.25, seed=17)
        assert sink.records == [
            {"name": "mutate", "start": 0.5, "dur": 0.25, "seed": 17}]

    def test_span_context_manager(self):
        sink = ListTraceSink()
        tracer = Tracer(sink)
        with tracer.span("block", tag="x"):
            pass
        (record,) = sink.records
        assert record["name"] == "block"
        assert record["tag"] == "x"
        assert record["dur"] >= 0.0

    def test_sampling_is_deterministic(self):
        sink = ListTraceSink()
        tracer = Tracer(sink, sample_rate=0.25)
        for index in range(100):
            tracer.record("s", tracer.epoch, 0.0, i=index)
        assert len(sink.records) == 25
        # Error diffusion keeps exactly every fourth span.
        assert [r["i"] for r in sink.records[:3]] == [3, 7, 11]

    def test_jsonl_sink(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = tracer_for_path(path)
        tracer.record("verify", tracer.epoch, 0.125, seed=3)
        tracer.close()
        with open(path) as stream:
            lines = [json.loads(line) for line in stream]
        assert lines == [{"name": "verify", "start": 0.0, "dur": 0.125,
                          "seed": 3}]

    def test_tracer_for_none_is_null(self):
        assert tracer_for_path(None) is NULL_TRACER


# ---------------------------------------------------------------------------
# Snapshots and the progress reporter.
# ---------------------------------------------------------------------------


def loaded_metrics():
    metrics = MetricsRegistry()
    metrics.count("mutants.created", 100)
    metrics.count("mutants.valid", 90)
    metrics.count("stage.mutate.seconds", 1.0)
    metrics.count("stage.optimize.seconds", 3.0)
    metrics.count("stage.verify.seconds", 6.0)
    metrics.count("findings.miscompilation", 2)
    metrics.count("findings.crash", 1)
    return metrics


class TestSnapshots:
    def test_derivation(self):
        snapshot = ThroughputSnapshot.from_metrics(loaded_metrics(),
                                                   elapsed=20.0)
        assert snapshot.iterations == 100
        assert snapshot.mutants_per_sec == pytest.approx(5.0)
        assert snapshot.valid_mutant_rate == pytest.approx(0.9)
        assert snapshot.stage_share["verify"] == pytest.approx(0.6)
        assert snapshot.findings == 3

    def test_empty_metrics_are_all_zeros(self):
        """The empty-target-shard regression: a shard whose functions
        were all dropped records zero optimize calls, zero draws, zero
        everything — every derived rate must guard its denominator
        rather than divide by zero."""
        snapshot = ThroughputSnapshot.from_metrics(MetricsRegistry(), 0.0)
        assert snapshot.mutants_per_sec == 0.0
        assert snapshot.valid_mutant_rate == 0.0
        assert snapshot.optimize_hit_rate == 0.0
        assert snapshot.verify_hit_rate == 0.0
        assert snapshot.exec_plan_hit_rate == 0.0
        assert snapshot.new_feature_rate == 0.0
        assert snapshot.corpus_size == 0
        # ... and the progress line renders without blowing up.
        line = snapshot.progress_line()
        assert "0 mutants" in line
        assert "corpus" not in line  # only shown when feedback ran

    def test_feedback_derivation(self):
        metrics = loaded_metrics()
        metrics.count("feedback.draws", 40)
        metrics.count("feedback.features.new", 10)
        metrics.gauge_max("corpus.size", 5)
        metrics.gauge_max("feedback.features.covered", 17)
        snapshot = ThroughputSnapshot.from_metrics(metrics, 20.0)
        assert snapshot.new_feature_rate == pytest.approx(0.25)
        assert snapshot.corpus_size == 5
        assert snapshot.features_covered == 17
        assert "corpus 5 (17 feats)" in snapshot.progress_line()
        assert snapshot.to_dict()["new_feature_rate"] == \
            pytest.approx(0.25)

    def test_progress_line(self):
        line = ThroughputSnapshot.from_metrics(loaded_metrics(),
                                               20.0).progress_line()
        assert "100 mutants" in line
        assert "5.0/s" in line
        assert "90% valid" in line
        assert "3 findings" in line
        assert "retries" not in line  # only shown when nonzero

    def test_reporter_respects_interval(self):
        clock = iter([0.0,                 # construction
                      0.5, 1.0, 2.5, 2.5,  # three ticks (third emits)
                      3.0]).__next__
        emitted = []
        reporter = ProgressReporter(interval=2.0, sinks=[emitted.append],
                                    clock=clock)
        metrics = loaded_metrics()
        assert reporter.tick(metrics) is None
        assert reporter.tick(metrics) is None
        snapshot = reporter.tick(metrics)
        assert snapshot is not None
        assert snapshot.elapsed == pytest.approx(2.5)
        assert len(emitted) == 1

    def test_reporter_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ProgressReporter(interval=0.0)

    def test_jsonl_snapshot_sink(self, tmp_path):
        path = str(tmp_path / "snapshots.jsonl")
        sink = JsonlSnapshotSink(path)
        reporter = ProgressReporter(interval=1.0, sinks=[sink])
        reporter.emit(loaded_metrics(), elapsed=20.0)
        sink.close()
        with open(path) as stream:
            (record,) = [json.loads(line) for line in stream]
        assert record["iterations"] == 100
        assert record["stage_share"]["verify"] == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# The collector probe.
# ---------------------------------------------------------------------------


class TestGcProbe:
    def test_counts_collections_per_generation_while_installed(self):
        metrics = MetricsRegistry()
        callbacks_before = list(gc.callbacks)
        with GcProbe(metrics):
            gc.collect(0)
            gc.collect(2)
            gc.collect(2)
        assert gc.callbacks == callbacks_before
        gc.collect(2)  # removed: not counted
        assert metrics.counter("gc.collections.gen0") >= 1
        assert metrics.counter("gc.collections.gen2") == 2
        assert metrics.counter("gc.seconds.gen2") > 0
        assert set(metrics.counters) <= {
            f"gc.{kind}.gen{generation}"
            for kind in ("collections", "seconds")
            for generation in (0, 1, 2)}

    def test_removed_when_the_block_raises(self):
        callbacks_before = list(gc.callbacks)
        with pytest.raises(RuntimeError):
            with GcProbe(MetricsRegistry()):
                raise RuntimeError("boom")
        assert gc.callbacks == callbacks_before

    def test_excluded_from_deterministic(self):
        metrics = MetricsRegistry()
        metrics.count("mutants.created", 3)
        with GcProbe(metrics):
            gc.collect()
        assert metrics.deterministic()["counters"] == {"mutants.created": 3.0}

    def test_snapshot_and_stats_line(self):
        metrics = loaded_metrics()      # stage seconds add up to 10
        metrics.count("gc.seconds.gen0", 0.25)
        metrics.count("gc.seconds.gen2", 0.75)
        metrics.count("gc.collections.gen0", 40)
        metrics.count("gc.collections.gen2", 3)
        metrics.count("exec.plan_cache.evictions", 12)
        metrics.gauge_max("exec.plan_cache.slots", 4096)
        snapshot = ThroughputSnapshot.from_metrics(metrics, 20.0)
        assert snapshot.gc_seconds == pytest.approx(1.0)
        assert snapshot.gc_share == pytest.approx(0.1)
        assert snapshot.gc_full_collections == 3
        assert "gc 10% (full 3)" in snapshot.progress_line()
        data = snapshot.to_dict()
        assert data["gc_share"] == pytest.approx(0.1)
        assert data["exec_plan_evictions"] == 12
        assert data["exec_plan_slots"] == 4096

    def test_no_segment_without_collections(self):
        line = ThroughputSnapshot.from_metrics(loaded_metrics(),
                                               20.0).progress_line()
        assert "gc " not in line


class TestScanCounters:
    """``opt.scan.*`` / ``opt.knownbits.*``: the scan passes' work counts,
    reported through the pass manager's registry only."""

    SHIFTY = """
define i32 @shifty(i32 %x) {
entry:
  %s = shl i32 %x, 3
  %t = lshr i32 %s, 3
  %a = and i32 %t, 255
  %b = and i32 %t, 65280
  %u = sub i32 %a, %b
  ret i32 %u
}
"""

    def test_pass_manager_reports_to_its_registry(self):
        from repro.opt import OptContext, PassManager

        metrics = MetricsRegistry()
        module = parse_module(self.SHIFTY, "t.ll")
        ctx = OptContext(())
        PassManager(["O2"], ctx, metrics=metrics).run(module)
        assert metrics.counter("opt.scan.visits") >= 5
        queries = metrics.counter("opt.knownbits.queries")
        assert 0 < metrics.counter("opt.knownbits.memo_hits") < queries
        # Feedback features and deterministic() never see them.
        assert not any(key.startswith(("opt.scan", "opt.knownbits"))
                       for key in ctx.stats)
        assert not any(key.startswith(("opt.scan", "opt.knownbits"))
                       for key in metrics.deterministic()["counters"])

    def test_no_registry_no_trace(self):
        from repro.opt import OptContext, PassManager

        ctx = OptContext(())
        manager = PassManager(["O2"], ctx)
        manager.run(parse_module(self.SHIFTY, "t.ll"))
        assert manager.metrics is None
        assert not any(key.startswith(("opt.scan", "opt.knownbits"))
                       for key in ctx.stats)

    def test_snapshot_and_pass_breakdown(self):
        metrics = loaded_metrics()
        metrics.count("optimize.pass.instcombine.seconds", 1.5)
        metrics.count("optimize.pass.gvn.seconds", 0.25)
        metrics.count("opt.scan.visits", 4200)
        metrics.count("opt.knownbits.queries", 800)
        metrics.count("opt.knownbits.memo_hits", 200)
        snapshot = ThroughputSnapshot.from_metrics(metrics, 20.0)
        assert snapshot.scan_visits == 4200
        assert snapshot.knownbits_hit_rate == pytest.approx(0.25)
        assert snapshot.pass_breakdown() == (
            "instcombine 1.50s gvn 0.25s"
            " | scan 4200 visits · kb 800 queries (25% memo)")
        data = snapshot.to_dict()
        assert data["scan_visits"] == 4200
        assert data["knownbits_queries"] == 800
        assert data["knownbits_hit_rate"] == pytest.approx(0.25)

    def test_breakdown_empty_without_passes(self):
        snapshot = ThroughputSnapshot.from_metrics(loaded_metrics(), 20.0)
        assert snapshot.pass_breakdown() == ""
        assert snapshot.knownbits_hit_rate == 0.0


# ---------------------------------------------------------------------------
# Driver integration: the loop populates metrics and spans.
# ---------------------------------------------------------------------------


class TestDriverIntegration:
    def test_run_populates_metrics(self):
        driver = FuzzDriver(parse_module(IR, "t.ll"), small_config())
        report = driver.run(iterations=12)
        metrics = report.metrics
        assert metrics.counter("mutants.created") == 12
        assert 0 < metrics.counter("mutants.valid") <= 12
        assert metrics.counter("stage.mutate.seconds") > 0
        assert metrics.counter("stage.optimize.seconds") > 0
        assert metrics.counter("stage.verify.seconds") > 0
        assert metrics.counter("tv.checks") == 12
        assert metrics.histograms["iteration.seconds"].count == 12
        assert sum(metrics.counters_with_prefix("mutate.op.").values()) == \
            sum(report.mutation_counts.values())

    def test_run_owns_a_gc_probe(self):
        callbacks_before = list(gc.callbacks)
        seen = []

        class Spy(ProgressReporter):
            def tick(self, metrics):
                seen.append(len(gc.callbacks))

        driver = FuzzDriver(parse_module(IR, "t.ll"), small_config(),
                            progress=Spy())
        report = driver.run(iterations=200)
        assert set(seen) == {len(callbacks_before) + 1}
        assert gc.callbacks == callbacks_before
        metrics = report.metrics
        assert metrics.counter("gc.collections.gen0") > 0
        assert metrics.counter("gc.seconds.gen0") > 0
        # The plan cache's traffic rides along, outside deterministic().
        assert metrics.gauges["exec.plan_cache.slots"] > 0
        assert not any(name.startswith(("gc.", "exec."))
                       for name in metrics.deterministic()["counters"])

    def test_stage_seconds_match_timings(self):
        driver = FuzzDriver(parse_module(IR, "t.ll"), small_config())
        report = driver.run(iterations=6)
        assert report.metrics.counter("stage.mutate.seconds") == \
            pytest.approx(report.timings.mutate)
        assert report.metrics.counter("stage.verify.seconds") == \
            pytest.approx(report.timings.verify)

    def test_spans_cover_every_stage(self):
        sink = ListTraceSink()
        driver = FuzzDriver(parse_module(IR, "t.ll"), small_config(),
                            tracer=Tracer(sink))
        driver.run(iterations=4)
        names = {record["name"] for record in sink.records}
        assert {"mutate", "optimize", "verify", "interp",
                "mutate.clone"} <= names
        assert any(name.startswith("optimize.pass.") for name in names)
        assert any(name.startswith("mutate.op.") for name in names)
        top_level = [r for r in sink.records if r["name"] == "mutate"]
        assert len(top_level) == 4
        assert all(r["dur"] >= 0 for r in sink.records)

    def test_findings_counted(self):
        config = FuzzConfig(pipeline="instsimplify",
                            enabled_bugs=("56968",),
                            mutator=MutatorConfig(max_mutations=2),
                            tv=RefinementConfig(max_inputs=8))
        shifty = """define i8 @f(i8 %x) {
  %r = shl i8 %x, 2
  ret i8 %r
}
"""
        driver = FuzzDriver(parse_module(shifty, "s.ll"), config)
        report = driver.run(iterations=40)
        recorded = report.metrics.counter("findings.miscompilation") + \
            report.metrics.counter("findings.crash")
        assert recorded == len(report.findings)
        assert report.findings  # the seeded bug must actually fire

    def test_progress_reporter_ticks_from_the_loop(self):
        times = iter(range(1000)).__next__  # one "second" per clock read
        emitted = []
        reporter = ProgressReporter(interval=2.0, sinks=[emitted.append],
                                    clock=lambda: float(times()))
        driver = FuzzDriver(parse_module(IR, "t.ll"), small_config(),
                            progress=reporter)
        driver.run(iterations=10)
        assert emitted  # the hot loop called tick() and intervals elapsed
        assert emitted[-1].iterations <= 10


# ---------------------------------------------------------------------------
# Campaign aggregation: shard sum == aggregate, any worker count.
# ---------------------------------------------------------------------------


class TestCampaignMetrics:
    @pytest.fixture(scope="class")
    def sequential(self):
        return run_campaign(CampaignConfig(workers=1, **SMALL))

    def test_aggregate_has_campaign_counters(self, sequential):
        metrics = sequential.metrics
        assert metrics.counter("campaign.jobs.completed") == 4
        assert metrics.counter("mutants.created") == \
            sequential.total_iterations
        assert metrics.counter("campaign.retry.attempts") == 0

    def test_stage_seconds_match_report_timings(self, sequential):
        assert sequential.metrics.counter("stage.mutate.seconds") == \
            pytest.approx(sequential.timings.mutate)

    def test_parallel_matches_sequential(self, sequential):
        parallel = run_campaign(CampaignConfig(workers=4, **SMALL))
        assert parallel.metrics.deterministic() == \
            sequential.metrics.deterministic()

    def test_trace_dir_writes_one_file_per_job(self, tmp_path):
        report = run_campaign(CampaignConfig(
            workers=2, trace_dir=str(tmp_path), **SMALL))
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [f"job-{i:04d}.jsonl" for i in range(4)]
        with open(tmp_path / "job-0000.jsonl") as stream:
            names = {json.loads(line)["name"] for line in stream}
        assert "mutate" in names and "verify" in names
        assert report.metrics.counter("campaign.jobs.completed") == 4

    def test_trace_sample_validated(self):
        with pytest.raises(ValueError):
            CampaignConfig(trace_sample=1.5, **SMALL).validate()


# ---------------------------------------------------------------------------
# Benchmark summaries.
# ---------------------------------------------------------------------------


class TestSummary:
    def test_campaign_summary_schema(self, tmp_path):
        report = run_campaign(CampaignConfig(workers=1, **SMALL))
        path = str(tmp_path / "BENCH_campaign.json")
        write_campaign_summary(report, path, name="campaign_smoke")
        data = load_summary(path)
        assert data["bench"] == "campaign_smoke"
        assert data["schema"] == 1
        assert data["iterations"] == report.total_iterations
        assert data["mutants_per_sec"] > 0
        assert set(data["stage_share"]) == {"mutate", "optimize", "verify"}
        assert data["failed_shards"] == 0
        assert 0.0 <= data["valid_mutant_rate"] <= 1.0
        assert 0.0 <= data["gc_share"] < 1.0
        assert data["gc_seconds"] >= 0.0
        assert data["gc_full_collections"] >= 0
        assert data["exec_plan_slots"] > 0
        assert data["exec_plan_evictions"] >= 0
        assert data["scan_visits"] > 0
        assert data["knownbits_queries"] >= 0
        assert 0.0 <= data["knownbits_hit_rate"] <= 1.0

    def test_campaign_summary_is_duck_typed(self):
        class FakeReport:
            elapsed = 2.0
            workers = 3
            total_iterations = 10
            total_findings = 0
            metrics = loaded_metrics()
            failed_shards = ()
            parse_failures = ()
            quarantined = ()
            skipped_jobs = 0

            def found_bugs(self):
                return []

        data = campaign_summary(FakeReport(), name="fake")
        assert data["workers"] == 3
        assert data["mutants_per_sec"] == pytest.approx(50.0)
