"""Tests for CoW + fingerprint memoization: caches never change findings.

The reference the driver is held to is the test-side loop in
``helpers.py``: deep clone, whole-module pipeline, a fresh
``check_refinement`` per target, nothing cached between iterations.
"""

import gc
import weakref

import pytest

from repro.fuzz import FuzzConfig, FuzzDriver
from repro.fuzz import driver as driver_module
from repro.fuzz.memo import LRUCache
from repro.mutate import MutatorConfig
from repro.tv import RefinementConfig
from repro.tv.compile import PROBATION

from helpers import (driver_findings, parsed, reference_findings,
                     reference_run)

CLAMP = """
define i32 @clamp(i32 %x, i32 %y) {
  %c = icmp ult i32 %x, 100
  %r = select i1 %c, i32 %x, i32 100
  %s = add i32 %r, %y
  ret i32 %s
}
"""

# A module with repeated structure: an unsupported-but-optimizable wide
# function (dropped from targeting, yet optimized in every iteration of
# the reference loop) next to two supported targets.
MIXED = """
declare void @ext(i32)

define i128 @wide(i128 %x) {
  %a = add i128 %x, 0
  %b = mul i128 %a, 1
  ret i128 %b
}

define i32 @clamp(i32 %x, i32 %y) {
  %c = icmp ult i32 %x, 100
  %r = select i1 %c, i32 %x, i32 100
  %s = add i32 %r, %y
  ret i32 %s
}

define i32 @shifty(i32 %x) {
  %s = shl i32 %x, 3
  %t = lshr i32 %s, 3
  ret i32 %t
}
"""


def make_config(**kwargs):
    return FuzzConfig(
        mutator=MutatorConfig(max_mutations=2),
        tv=RefinementConfig(max_inputs=12),
        **kwargs,
    )


def run_driver(text, iterations=30, **kwargs):
    driver = FuzzDriver(parsed(text), make_config(**kwargs), file_name="t.ll")
    report = driver.run(iterations=iterations)
    return driver, report


def run_reference(text, iterations=30, **kwargs):
    return reference_run(text, make_config(**kwargs), iterations)


class TestLRUCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)           # evicts b
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_overwrite_same_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_one_shot_keys_never_evict_a_promoted_entry(self):
        cache = LRUCache(PROBATION + 4)
        kept = object()
        cache.put("kept", kept)
        assert cache.get("kept") is kept      # first hit: promoted
        for index in range(10 * PROBATION):
            cache.put(index, index)           # never looked up again
        assert cache.get("kept") is kept
        assert len(cache) == PROBATION + 1
        assert cache.evictions == 9 * PROBATION

    def test_hit_on_probation_promotes_the_same_object(self):
        cache = LRUCache(PROBATION + 1)
        value = object()
        cache.put("recurring", value)
        assert cache.get("recurring") is value
        # Promoted: a probation's worth of newer keys does not push it out.
        for index in range(PROBATION):
            cache.put(index, index)
        assert cache.get("recurring") is value
        assert 0 in cache

    def test_unhit_entry_leaves_after_a_probations_worth_of_puts(self):
        cache = LRUCache(4 * PROBATION)
        cache.put("once", 1)
        for index in range(PROBATION):
            cache.put(index, index)
        assert "once" not in cache
        assert len(cache) == PROBATION

    def test_main_overflow_demotes_least_recently_used(self):
        cache = LRUCache(PROBATION + 2)
        for key in ("a", "b", "c"):
            cache.put(key, key)
            cache.get(key)
        # Main holds two: promoting "c" sent "a" back to probation,
        # where one more hit saves it and nothing else would.
        assert len(cache) == 3
        for index in range(PROBATION - 1):
            cache.put(index, index)
        assert "a" in cache
        cache.put("last", 0)
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_capacity_one(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("a") == 1
        cache.put("b", 2)
        assert "a" not in cache
        assert cache.get("b") == 2
        assert len(cache) == 1

    def test_weights_count_against_capacity(self):
        cache = LRUCache(10)
        cache.put("a", 1, weight=4)
        cache.put("b", 2, weight=4)
        assert cache.weight == 8
        cache.put("c", 3, weight=4)           # 12 > 10: "a" goes
        assert "a" not in cache and cache.weight == 8
        cache.put("huge", 4, weight=50)       # alone, but still cached
        assert cache.get("huge") == 4
        assert len(cache) == 1 and cache.weight == 50


class TestFindingParity:
    """The memoized driver == the reference loop: the acceptance
    determinism criterion."""

    def test_miscompilation_findings_identical(self):
        _, report = run_driver(CLAMP, enabled_bugs=("53252",))
        _, runs = run_reference(CLAMP, enabled_bugs=("53252",))
        assert report.findings  # the workload must actually find bugs
        assert driver_findings(report.findings) == reference_findings(runs)

    def test_crash_findings_identical(self):
        _, report = run_driver(MIXED, enabled_bugs=("56968",))
        _, runs = run_reference(MIXED, enabled_bugs=("56968",))
        assert any(f.kind == "crash" for f in report.findings)
        assert driver_findings(report.findings) == reference_findings(runs)

    def test_deterministic_metrics_identical(self, monkeypatch):
        # tv.inconclusive_inputs is the deterministic() counter the
        # reference loop can sum; the whole subset must not move with
        # how much the memos remember.
        warm, report = run_driver(MIXED, enabled_bugs=("53252",))
        _, runs = run_reference(MIXED, enabled_bugs=("53252",))
        assert report.inconclusive == sum(run.inconclusive for run in runs)
        monkeypatch.setattr(driver_module, "OPTIMIZE_CACHE_SIZE", 1)
        monkeypatch.setattr(driver_module, "VERIFY_CACHE_SIZE", 1)
        cold, _ = run_driver(MIXED, enabled_bugs=("53252",))
        assert warm.metrics.deterministic() == cold.metrics.deterministic()

    def test_clean_module_stays_clean(self):
        _, report = run_driver(MIXED)
        _, runs = run_reference(MIXED)
        assert driver_findings(report.findings) == reference_findings(runs)

    def test_targets_identical(self):
        driver, _ = run_driver(MIXED, iterations=0)
        targets, _ = run_reference(MIXED, iterations=0)
        assert driver.target_functions == targets
        assert set(driver.report.dropped_functions) == {"wide"}


CALLS = """
define i32 @helper(i32 %v) {
  %w = mul i32 %v, 3
  %c = icmp ult i32 %w, 100
  %r = select i1 %c, i32 %w, i32 100
  ret i32 %r
}

define i32 @f(i32 %x, i32 %y) {
  %h = call i32 @helper(i32 %x)
  %s = add i32 %h, %y
  ret i32 %s
}
"""


class TestCacheBehavior:
    def test_untouched_functions_hit_the_optimize_cache(self):
        driver, _ = run_driver(MIXED)
        hits = driver.metrics.counter("cache.optimize.hit")
        assert hits > 0  # @wide is never mutated: every iteration hits

    def test_replaying_a_seed_hits_both_caches(self):
        driver, _ = run_driver(CLAMP, iterations=1)
        first = driver.run_one(7)
        opt_misses = driver.metrics.counter("cache.optimize.miss")
        tv_misses = driver.metrics.counter("cache.verify.miss")
        second = driver.run_one(7)
        assert driver.metrics.counter("cache.optimize.miss") == opt_misses
        assert driver.metrics.counter("cache.verify.miss") == tv_misses
        assert [f.kind for f in first] == [f.kind for f in second]

    def test_cached_unsound_verdict_is_replayed(self):
        driver, report = run_driver(CLAMP, iterations=40,
                                    enabled_bugs=("53252",))
        miscompiles = [f for f in report.findings
                       if f.kind == "miscompilation"]
        assert miscompiles
        replay = driver.run_one(miscompiles[0].seed)
        assert [f.kind for f in replay] == ["miscompilation"]
        assert replay[0].bug_ids == miscompiles[0].bug_ids

    def test_cached_crash_is_replayed(self):
        driver, report = run_driver(MIXED, iterations=40,
                                    enabled_bugs=("56968",))
        crashes = [f for f in report.findings if f.kind == "crash"]
        assert crashes
        replay = driver.run_one(crashes[0].seed)
        assert [f.kind for f in replay] == ["crash"]
        assert replay[0].bug_ids == crashes[0].bug_ids

    def test_clone_copies_fewer_functions_under_cow(self):
        # The reference loop deep-copies every definition twice per
        # iteration (mutant, then its optimized copy); copy-on-write
        # mutants copy their targets and the optimize stage only misses.
        driver, report = run_driver(MIXED)
        definitions = len(driver.module.definitions())
        assert driver.metrics.counter("clone.functions_copied") < \
            2 * definitions * report.iterations

    def test_cache_sizes_are_not_settable(self):
        with pytest.raises(TypeError):
            FuzzConfig(optimize_cache_size=1)
        with pytest.raises(TypeError):
            FuzzConfig(memo=False)

    def test_tiny_caches_only_cost_speed(self, monkeypatch):
        monkeypatch.setattr(driver_module, "OPTIMIZE_CACHE_SIZE", 1)
        monkeypatch.setattr(driver_module, "VERIFY_CACHE_SIZE", 1)
        _, tiny = run_driver(CLAMP, enabled_bugs=("53252",))
        _, runs = run_reference(CLAMP, enabled_bugs=("53252",))
        assert driver_findings(tiny.findings) == reference_findings(runs)


class TestOwnership:
    """Every cache belongs to one driver: nothing one job caches or
    counts reaches another, and nothing outlives the driver."""

    @staticmethod
    def _drive(text):
        return FuzzDriver(parsed(text), make_config(enabled_bugs=("53252",)),
                          file_name="t.ll")

    def test_interleaved_drivers_count_only_their_own_work(self):
        # Both modules define @clamp, so a shared plan cache would hand
        # one driver the other's plans and move exec.plan_cache.hit.
        alone = []
        for text in (CLAMP, MIXED):
            driver = self._drive(text)
            for seed in range(20):
                driver.run_one(seed)
            alone.append(driver.metrics.counters_with_prefix("exec."))
        first, second = self._drive(CLAMP), self._drive(MIXED)
        for seed in range(20):
            first.run_one(seed)
            second.run_one(seed)
        assert alone[0]["exec.plan_cache.hit"] > 0
        assert [first.metrics.counters_with_prefix("exec."),
                second.metrics.counters_with_prefix("exec.")] == alone

    def test_dropping_the_driver_frees_every_mutant(self):
        # A plan's call step holds its callee, hence the mutant module
        # the callee lives in: only the driver owning the plan may keep
        # that module alive.
        driver = self._drive(CALLS)
        watched = []
        create = driver.mutator.create_mutant

        def spy(seed, operators=None):
            mutant, record = create(seed, operators)
            watched.append(weakref.ref(mutant))
            return mutant, record

        driver.mutator.create_mutant = spy
        driver.run(iterations=30)
        assert driver.metrics.counter("tv.checks") > 0
        del driver, create, spy
        gc.collect()
        assert len(watched) == 30
        assert all(ref() is None for ref in watched)


class TestEngineHoist:
    def test_unknown_mutation_rejected_at_construction(self):
        from repro.mutate import Mutator

        with pytest.raises(ValueError, match="unknown mutations"):
            Mutator(parsed(CLAMP),
                    MutatorConfig(enabled_mutations=["nope"]))
