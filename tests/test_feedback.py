"""Tests for coverage-guided fuzzing (``repro.fuzz.feedback``).

Unit coverage of the feedback value types and the config validation,
plus driver-level integration: the feedback loop must be deterministic
(identical runs give identical corpora, arm statistics, and
``deterministic()`` metrics) and memo-invariant (the optimize cache
replays stored stats, so every iteration's features equal those of the
reference loop in ``helpers.py`` on the same mutant, bit for bit).
"""

import os

import pytest

from repro.fuzz import Session
from repro.fuzz.corpus import Corpus
from repro.fuzz.driver import ConfigError, FuzzConfig, FuzzDriver
from repro.fuzz.feedback import (Feedback, FeedbackConfig, FeedbackMap,
                                 FeedbackStats, bug_feature)
from repro.mutate import MutatorConfig
from repro.tv import RefinementConfig

from helpers import driver_findings, parsed, reference_iteration

CLAMP = """
define i32 @clamp(i32 %x, i32 %y) {
  %c = icmp ult i32 %x, 100
  %r = select i1 %c, i32 %x, i32 100
  %s = add i32 %r, %y
  ret i32 %s
}
"""


def make_config(**kwargs):
    defaults = dict(
        pipeline="O2",
        mutator=MutatorConfig(max_mutations=2),
        tv=RefinementConfig(max_inputs=12),
        feedback=FeedbackConfig(enabled=True),
    )
    defaults.update(kwargs)
    return FuzzConfig(**defaults)


def make_driver(text=CLAMP, **kwargs):
    return FuzzDriver(parsed(text), make_config(**kwargs), file_name="t.ll")


class TestFeedbackValues:
    def test_map_collects_stats_and_bugs(self):
        feedback = FeedbackMap({"instcombine.rule.foo": 3})
        feedback.add_stats({"pass.gvn.changed": 1,
                            "instcombine.rule.foo": 2})
        feedback.add_bugs(["53252"])
        assert feedback.features() == {"instcombine.rule.foo",
                                       "pass.gvn.changed", "bug:53252"}
        assert feedback.counts["instcombine.rule.foo"] == 5
        assert len(feedback) == 3 and bool(feedback)

    def test_map_merge(self):
        left = FeedbackMap({"a": 1})
        left.merge(FeedbackMap({"a": 2, "b": 1}))
        assert left.counts == {"a": 3, "b": 1}

    def test_bug_feature(self):
        assert bug_feature("49778") == "bug:49778"

    def test_feedback_novelty(self):
        novel = Feedback(features=frozenset({"a"}),
                         new_features=frozenset({"a"}))
        stale = Feedback(features=frozenset({"a"}),
                         new_features=frozenset())
        assert novel.novel and not stale.novel

    def test_stats_merge_and_roundtrip(self):
        total = FeedbackStats()
        total.merge(FeedbackStats(features_covered=3, corpus_entries=1,
                                  admitted=2, distilled=1, new_features=4,
                                  draws=10))
        total.merge(None)
        total.merge(FeedbackStats(draws=5))
        assert total.draws == 15 and total.features_covered == 3
        assert FeedbackStats.from_dict(total.to_dict()) == total


class TestFeedbackConfig:
    def test_defaults_are_off_and_valid(self):
        config = FeedbackConfig()
        assert not config.enabled
        assert config.validate() is config
        assert config.scheduler_name() == "bandit"

    def test_scheduler_requires_enabled(self):
        with pytest.raises(ValueError):
            FeedbackConfig(scheduler="bandit").validate()

    def test_corpus_dir_requires_enabled(self):
        with pytest.raises(ValueError):
            FeedbackConfig(corpus_dir="/tmp/x").validate()

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            FeedbackConfig(enabled=True, scheduler="thompson").validate()

    def test_max_corpus_size_positive(self):
        with pytest.raises(ValueError):
            FeedbackConfig(enabled=True, max_corpus_size=0).validate()

    def test_fuzz_config_surfaces_feedback_errors_as_config_errors(self):
        with pytest.raises(ConfigError):
            FuzzConfig(feedback=FeedbackConfig(scheduler="bandit")) \
                .validate(iterations=1)

    def test_valid_combinations_pass(self):
        FeedbackConfig(enabled=True, scheduler="round-robin",
                       corpus_dir="/tmp/x", max_corpus_size=8).validate()


def run_state(driver, iterations=40):
    """Everything feedback-related that must be reproducible."""
    report = driver.run(iterations=iterations)
    driver.close()
    return (
        report.feedback.to_dict(),
        sorted(driver.corpus.covered),
        [entry.fingerprint for entry in driver.corpus.entries()],
        [(key, stats.plays, stats.reward)
         for key, stats in driver.scheduler.arms()],
        [(f.kind, f.seed, tuple(f.bug_ids)) for f in report.findings],
        report.metrics.deterministic(),
    )


class TestDriverIntegration:
    def test_disabled_by_default(self):
        driver = FuzzDriver(parsed(CLAMP), FuzzConfig(pipeline="O2"))
        report = driver.run(iterations=5)
        assert driver.corpus is None and driver.scheduler is None
        assert report.feedback is None and driver.last_feedback is None

    def test_enabled_driver_builds_a_corpus(self):
        driver = make_driver()
        report = driver.run(iterations=40)
        driver.close()
        assert report.feedback is not None
        assert report.feedback.draws == 40
        assert report.feedback.features_covered > 0
        assert report.feedback.corpus_entries == len(driver.corpus)
        assert report.feedback.admitted == driver.corpus.admitted_count
        assert driver.last_feedback is not None
        assert driver.scheduler.total_plays == 40
        assert report.metrics.counter("feedback.draws") == 40

    def test_baseline_features_are_not_novel(self):
        """The seed module's own behavior is covered before iteration 0,
        so an unmutated-equivalent mutant cannot enter the corpus."""
        driver = make_driver()
        assert driver.corpus.features_covered() > 0
        baseline = set(driver.corpus.covered)
        driver.run(iterations=10)
        driver.close()
        for entry in driver.corpus.entries():
            assert not entry.features <= baseline

    def test_identical_runs_are_identical(self):
        assert run_state(make_driver()) == run_state(make_driver())

    def test_feedback_is_memo_invariant(self):
        """Optimize-cache hits replay stored stats, so every iteration's
        features and findings equal the reference loop's (deep clone,
        whole-module pipeline, no memo) on the same mutant — corpus
        mutants included."""
        driver = make_driver(enabled_bugs=("53252",))
        sources = set()
        for seed in range(60):
            found = driver.run_one(seed)
            feedback = driver.last_feedback
            sources.add(feedback.source)
            mutant, _ = driver._sources[feedback.source].mutator \
                .create_mutant(seed, operators=(feedback.operator,))
            reference = reference_iteration(
                mutant, seed, driver.target_functions, driver.config)
            assert feedback.features == reference.features
            assert driver_findings(found) == reference.findings
        driver.close()
        assert len(sources) > 1  # corpus entries were drawn from too
        assert driver.metrics.counter("cache.optimize.hit") > 0

    def test_round_robin_scheduler_is_selectable(self):
        driver = make_driver(
            feedback=FeedbackConfig(enabled=True, scheduler="round-robin"))
        driver.run(iterations=10)
        driver.close()
        assert driver.scheduler.name == "round-robin"
        assert driver.scheduler.total_plays == 10

    def test_crash_features_cover_but_never_admit(self):
        """Crash iterations contribute only their bug:<id> feature and
        the crashing mutant stays out of the corpus."""
        driver = make_driver(enabled_bugs=("56968",))
        report = driver.run(iterations=150)
        driver.close()
        crashes = [f for f in report.findings if f.kind == "crash"]
        assert crashes, "seeded crash bug never fired in 150 iterations"
        assert bug_feature("56968") in driver.corpus.covered
        for entry in driver.corpus.entries():
            assert bug_feature("56968") not in entry.features

    def test_corpus_journal_roundtrips_through_driver(self, tmp_path):
        driver = make_driver(feedback=FeedbackConfig(
            enabled=True, corpus_dir=str(tmp_path)))
        driver.run(iterations=40)
        driver.close()
        path = os.path.join(str(tmp_path), "t_0.corpus.jsonl")
        assert os.path.exists(path)
        loaded = Corpus.load(path)
        assert [e.fingerprint for e in loaded.entries()] == \
            [e.fingerprint for e in driver.corpus.entries()]
        # Journal coverage excludes baseline/crash-only features (they
        # have no admissible entry), but every admitted entry is there.
        assert loaded.covered <= driver.corpus.covered

    def test_max_corpus_size_is_respected(self):
        driver = make_driver(feedback=FeedbackConfig(
            enabled=True, max_corpus_size=2))
        report = driver.run(iterations=60)
        driver.close()
        assert len(driver.corpus) <= 2
        assert report.feedback.corpus_entries <= 2


class TestSessionReport:
    def test_session_run_reports_feedback(self):
        session = Session.from_text(CLAMP, make_config())
        report = session.run(iterations=20)
        assert report.feedback is not None
        assert report.feedback.draws == 20

    def test_session_run_without_feedback_reports_none(self):
        session = Session.from_text(CLAMP, FuzzConfig(pipeline="O2"))
        assert session.run(iterations=5).feedback is None
