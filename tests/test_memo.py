"""Tests for CoW + fingerprint memoization: caches never change findings."""

import pytest

from repro.fuzz import FuzzConfig, FuzzDriver
from repro.fuzz.memo import LRUCache
from repro.mutate import MutatorConfig
from repro.tv import RefinementConfig
from repro.tv.compile import PROBATION

from helpers import parsed

CLAMP = """
define i32 @clamp(i32 %x, i32 %y) {
  %c = icmp ult i32 %x, 100
  %r = select i1 %c, i32 %x, i32 100
  %s = add i32 %r, %y
  ret i32 %s
}
"""

# A module with repeated structure: an unsupported-but-optimizable wide
# function (dropped from targeting, yet cloned and optimized every
# iteration without memoization) next to two supported targets.
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


def run_driver(text, memo, iterations=30, **kwargs):
    config = FuzzConfig(
        mutator=MutatorConfig(max_mutations=2, cow_clone=memo),
        tv=RefinementConfig(max_inputs=12),
        memo=memo,
        **kwargs,
    )
    driver = FuzzDriver(parsed(text), config, file_name="t.ll")
    report = driver.run(iterations=iterations)
    return driver, report


def finding_keys(report):
    return [(f.seed, f.kind, f.function, tuple(f.bug_ids))
            for f in report.findings]


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
    """Memo on == memo off: the acceptance determinism criterion."""

    def test_miscompilation_findings_identical(self):
        _, with_memo = run_driver(CLAMP, memo=True,
                                  enabled_bugs=("53252",))
        _, without = run_driver(CLAMP, memo=False,
                                enabled_bugs=("53252",))
        assert with_memo.findings  # the workload must actually find bugs
        assert finding_keys(with_memo) == finding_keys(without)

    def test_crash_findings_identical(self):
        _, with_memo = run_driver(MIXED, memo=True,
                                  enabled_bugs=("56968",))
        _, without = run_driver(MIXED, memo=False,
                                enabled_bugs=("56968",))
        assert any(f.kind == "crash" for f in with_memo.findings)
        assert finding_keys(with_memo) == finding_keys(without)

    def test_deterministic_metrics_identical(self):
        on_driver, _ = run_driver(MIXED, memo=True, enabled_bugs=("53252",))
        off_driver, _ = run_driver(MIXED, memo=False, enabled_bugs=("53252",))
        assert on_driver.metrics.deterministic() == \
            off_driver.metrics.deterministic()

    def test_clean_module_stays_clean(self):
        _, with_memo = run_driver(MIXED, memo=True)
        _, without = run_driver(MIXED, memo=False)
        assert finding_keys(with_memo) == finding_keys(without)

    def test_targets_identical(self):
        on_driver, _ = run_driver(MIXED, memo=True, iterations=0)
        off_driver, _ = run_driver(MIXED, memo=False, iterations=0)
        assert on_driver.target_functions == off_driver.target_functions
        assert on_driver.report.dropped_functions == \
            off_driver.report.dropped_functions


class TestCacheBehavior:
    def test_untouched_functions_hit_the_optimize_cache(self):
        driver, _ = run_driver(MIXED, memo=True)
        hits = driver.metrics.counter("cache.optimize.hit")
        assert hits > 0  # @wide is never mutated: every iteration hits

    def test_replaying_a_seed_hits_both_caches(self):
        driver, _ = run_driver(CLAMP, memo=True, iterations=1)
        first = driver.run_one(7)
        opt_misses = driver.metrics.counter("cache.optimize.miss")
        tv_misses = driver.metrics.counter("cache.verify.miss")
        second = driver.run_one(7)
        assert driver.metrics.counter("cache.optimize.miss") == opt_misses
        assert driver.metrics.counter("cache.verify.miss") == tv_misses
        assert [f.kind for f in first] == [f.kind for f in second]

    def test_cached_unsound_verdict_is_replayed(self):
        driver, report = run_driver(CLAMP, memo=True, iterations=40,
                                    enabled_bugs=("53252",))
        miscompiles = [f for f in report.findings
                       if f.kind == "miscompilation"]
        assert miscompiles
        replay = driver.run_one(miscompiles[0].seed)
        assert [f.kind for f in replay] == ["miscompilation"]
        assert replay[0].bug_ids == miscompiles[0].bug_ids

    def test_cached_crash_is_replayed(self):
        driver, report = run_driver(MIXED, memo=True, iterations=40,
                                    enabled_bugs=("56968",))
        crashes = [f for f in report.findings if f.kind == "crash"]
        assert crashes
        replay = driver.run_one(crashes[0].seed)
        assert [f.kind for f in replay] == ["crash"]
        assert replay[0].bug_ids == crashes[0].bug_ids

    def test_clone_copies_fewer_functions_under_cow(self):
        on_driver, _ = run_driver(MIXED, memo=True)
        off_driver, _ = run_driver(MIXED, memo=False)
        assert on_driver.metrics.counter("clone.functions_copied") < \
            off_driver.metrics.counter("clone.functions_copied")

    def test_memo_requires_positive_cache_sizes(self):
        from repro.fuzz.driver import ConfigError

        with pytest.raises(ConfigError):
            FuzzConfig(optimize_cache_size=0).validate()
        with pytest.raises(ConfigError):
            FuzzConfig(verify_cache_size=-1).validate()
        # With memoization off the sizes are irrelevant.
        FuzzConfig(memo=False, optimize_cache_size=0).validate()

    def test_tiny_caches_only_cost_speed(self):
        _, tiny = run_driver(CLAMP, memo=True, enabled_bugs=("53252",),
                             optimize_cache_size=1, verify_cache_size=1)
        _, without = run_driver(CLAMP, memo=False, enabled_bugs=("53252",))
        assert finding_keys(tiny) == finding_keys(without)


class TestEngineHoist:
    def test_unknown_mutation_rejected_at_construction(self):
        from repro.mutate import Mutator

        with pytest.raises(ValueError, match="unknown mutations"):
            Mutator(parsed(CLAMP),
                    MutatorConfig(enabled_mutations=["nope"]))
