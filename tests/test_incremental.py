"""Tests for incremental re-optimization (repro.opt.incremental).

The contract under test is absolute: with incremental optimization on,
the optimized IR, the pass stats, the triggered-bug sets, the findings,
and the ``deterministic()`` metrics subset are all bit-identical to a
full (non-incremental) run — skips and worklist sweeps buy time, never
different answers.  The differential tests below drive random mutants
through both paths and demand equality at every layer:

* pass level — the scan passes' one sweep loop seeded from the
  mutation's dirty closure versus seeded with the whole function
  (``run_on_function``); the loop itself is checked against the old
  re-sweep-everything loop in ``test_scan_differential.py``;
* pipeline level — ``PassManager.run_function`` with an
  :class:`IncrementalRun` (warm memos, proven sets) versus without;
* driver level — whole fuzzing runs with ``incremental=True`` versus
  ``incremental=False``, including crash bugs and kill+resume.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import FuzzConfig, FuzzDriver
from repro.ir import print_module, verify_module
from repro.ir.fingerprint import fingerprint_function
from repro.mutate import Mutator, MutatorConfig
from repro.opt import (IncrementalState, OptContext, OptimizerCrash,
                       PassManager, PassMemoEntry, create_pass, expand,
                       initial_dirty)
from repro.tv import RefinementConfig

from helpers import parsed

SEED_MODULE = """
declare void @ext(i32)

define i32 @clamp(i32 %x, i32 %y) {
entry:
  %c = icmp ult i32 %x, 100
  %r = select i1 %c, i32 %x, i32 100
  %s = add i32 %r, %y
  ret i32 %s
}

define i32 @mixed(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, 0
  %b = mul i32 %a, 1
  %c = icmp sgt i32 %b, %y
  br i1 %c, label %big, label %small

big:
  %d = sub i32 %b, %y
  %e = and i32 %d, %d
  ret i32 %e

small:
  %f = xor i32 %y, 0
  %g = or i32 %f, %f
  ret i32 %g
}

define i32 @shifty(i32 %x) {
entry:
  %s = shl i32 %x, 3
  %t = lshr i32 %s, 3
  %u = add i32 %t, %t
  ret i32 %u
}
"""

CRASH_BUGS = ("52884", "56945", "56968")
WORKLIST_PASSES = ("constfold", "instsimplify", "instcombine", "dce")


def run_full(module, pipeline, bugs=()):
    """Optimize a clone the plain (non-incremental) way; returns
    (printed IR, stats, bugs, crash).

    Function-major like the driver: each definition gets the whole
    pipeline before the next starts, and a crash stops the run there.
    (Pass-major ``PassManager.run`` produces identical IR when nothing
    crashes, but aborts every function's remaining passes on a crash —
    an ordering difference the incremental contract does not cover.)"""
    clone = module.clone()
    ctx = OptContext(bugs)
    manager = PassManager([pipeline], ctx)
    crash = None
    for function in clone.definitions():
        fn_ctx = OptContext(bugs)
        try:
            manager.run_function(function, fn_ctx)
        except OptimizerCrash as error:
            crash = (error.bug_id, error.message)
        for stat, amount in fn_ctx.stats.items():
            ctx.stats[stat] += amount
        ctx.triggered_bugs |= fn_ctx.triggered_bugs
        if crash is not None:
            break
    return print_module(clone), dict(ctx.stats), set(
        ctx.triggered_bugs), crash


def run_incremental(module, pipeline, state, record, source_fps, bugs=()):
    """Optimize a clone through IncrementalRun dispatch, mimicking the
    driver's seeding: dirty closure from the mutation record's touched
    blocks, proven set from the source's memoized trajectory."""
    clone = module.clone()
    ctx = OptContext(bugs)
    manager = PassManager([pipeline], ctx)
    crash = None
    dirty_names = record.dirty_functions()
    for function in clone.definitions():
        if function.name not in dirty_names:
            seed_dirty = set()
        else:
            touched = record.touched.get(function.name)
            seed_dirty = (initial_dirty(function, touched)
                          if touched is not None else None)
        proven = state.proven_passes(source_fps.get(function.name),
                                     manager.pass_names)
        run = state.begin(fp=fingerprint_function(function),
                          dirty=seed_dirty, proven=proven)
        fn_ctx = OptContext(bugs)
        try:
            manager.run_function(function, fn_ctx, incremental=run)
        except OptimizerCrash as error:
            crash = (error.bug_id, error.message)
        for stat, amount in fn_ctx.stats.items():
            ctx.stats[stat] += amount
        ctx.triggered_bugs |= fn_ctx.triggered_bugs
        if crash is not None:
            break
    return print_module(clone), dict(ctx.stats), set(
        ctx.triggered_bugs), crash


def warmed_state(module, pipeline, bugs=()):
    """An IncrementalState whose memos hold the sources' trajectories,
    exactly as the driver's baseline optimization records them."""
    state = IncrementalState()
    source_fps = {}
    clone = module.clone()
    manager = PassManager([pipeline])
    for function in clone.definitions():
        source_fps[function.name] = fingerprint_function(function)
        run = state.begin(fp=source_fps[function.name])
        ctx = OptContext(bugs)
        try:
            manager.run_function(function, ctx, incremental=run)
        except OptimizerCrash:
            pass
    return state, source_fps


class TestPassMemo:
    def test_skip_replays_stats_and_bugs(self):
        state = IncrementalState()
        state.record("fp0", "instcombine", PassMemoEntry(
            stats=(("instcombine.rule.add-zero", 2),), bugs=frozenset()))
        run = state.begin(fp="fp0", proven=set())
        fn = parsed(SEED_MODULE).definitions()[0]
        fn_pass = create_pass("instcombine")
        ctx = OptContext(())
        # Force the memoized fingerprint so the lookup hits.
        run.fp = "fp0"
        text_before = print_module(fn.parent)
        assert run.dispatch(fn_pass, fn, ctx) is False
        assert ctx.stats["instcombine.rule.add-zero"] == 2
        assert "instcombine" in run.proven
        assert print_module(fn.parent) == text_before

    def test_crash_entry_reraises(self):
        state = IncrementalState()
        state.record("fp0", "constfold", PassMemoEntry(
            stats=(), bugs=frozenset({"56945"}),
            crash_bug="56945", crash_message="boom"))
        run = state.begin(fp="fp0")
        run.fp = "fp0"
        fn = parsed(SEED_MODULE).definitions()[0]
        with pytest.raises(OptimizerCrash) as error:
            run.dispatch(create_pass("constfold"), fn, OptContext(()))
        assert error.value.bug_id == "56945"
        assert error.value.message == "boom"

    def test_proven_passes_excludes_crash_entries(self):
        state = IncrementalState()
        state.record("fp0", "dce", PassMemoEntry(stats=(), bugs=frozenset()))
        state.record("fp0", "constfold", PassMemoEntry(
            stats=(), bugs=frozenset(), crash_bug="56945"))
        proven = state.proven_passes("fp0", ["dce", "constfold", "gvn"])
        assert proven == {"dce"}
        assert state.proven_passes(None, ["dce"]) == set()

    def test_changed_outcomes_are_not_memoized(self):
        module = parsed(SEED_MODULE)
        state = IncrementalState()
        function = module.get_function("shifty")
        run = state.begin(fp=fingerprint_function(function))
        changed = run.dispatch(create_pass("instcombine"), function,
                               OptContext(()))
        assert changed
        assert run.fp is None  # stale after a change
        fresh = fingerprint_function(function)
        assert state.lookup(fresh, "instcombine") is None

    def test_initial_dirty_degrades_on_missing_block(self):
        function = parsed(SEED_MODULE).get_function("mixed")
        assert initial_dirty(function, ["nope"]) is None
        dirty = initial_dirty(function, ["big"])
        assert dirty is not None and dirty  # %d, %e at least


class TestPassLevelDifferential:
    """Closure-seeded run == whole-function run, for every
    worklist-capable pass, on random mutants of a pass-fixpointed source."""

    @staticmethod
    def fixpointed(pass_name):
        """SEED_MODULE with ``pass_name`` run to quiescence, reparsed."""
        module = parsed(SEED_MODULE)
        fn_pass = create_pass(pass_name)
        for function in module.definitions():
            ctx = OptContext(())
            while fn_pass.run_on_function(function, ctx):
                pass
        return parsed(print_module(module))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           pass_name=st.sampled_from(WORKLIST_PASSES))
    def test_worklist_matches_full(self, seed, pass_name):
        source = self.fixpointed(pass_name)
        mutator = Mutator(source.clone(), MutatorConfig(max_mutations=3))
        mutant, record = mutator.create_mutant(seed)
        fn_pass = create_pass(pass_name)
        for name in sorted(record.dirty_functions()):
            touched = record.touched.get(name)
            if touched is None:
                continue  # degraded tracking: worklist mode never engages
            full_mod, fast_mod = mutant.clone(), mutant.clone()
            full = full_mod.get_function(name)
            fast = fast_mod.get_function(name)
            full_ctx, fast_ctx = OptContext(()), OptContext(())
            full_changed = fn_pass.run_on_function(full, full_ctx)
            dirty = initial_dirty(fast, touched)
            if dirty is None:
                continue
            fast_changed = fn_pass.run_on_worklist(fast, fast_ctx, dirty)
            assert fast_changed == full_changed
            assert print_module(full_mod) == print_module(fast_mod)
            assert dict(full_ctx.stats) == dict(fast_ctx.stats)
            assert full_ctx.triggered_bugs == fast_ctx.triggered_bugs


class TestPipelineDifferential:
    """IncrementalRun dispatch (memo skips + worklist runs + crash
    replay) == plain pipeline runs, over random mutants."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           pipeline=st.sampled_from(
               ["O2", "constfold,instsimplify,instcombine,dce"]))
    def test_mutant_pipeline_matches(self, seed, pipeline):
        source = parsed(SEED_MODULE)
        state, source_fps = warmed_state(source, pipeline)
        mutator = Mutator(source.clone(), MutatorConfig(max_mutations=3))
        mutant, record = mutator.create_mutant(seed)
        want = run_full(mutant, pipeline)
        # Twice through the same state: the first pass both checks parity
        # and warms the memos further; the second replays mostly skips.
        for _ in range(2):
            got = run_incremental(mutant, pipeline, state, record,
                                  source_fps)
            assert got == want

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_crash_bugs_match(self, seed):
        source = parsed(SEED_MODULE)
        pipeline = "O2"
        state, source_fps = warmed_state(source, pipeline, CRASH_BUGS)
        mutator = Mutator(source.clone(), MutatorConfig(max_mutations=3))
        mutant, record = mutator.create_mutant(seed)
        want = run_full(mutant, pipeline, CRASH_BUGS)
        for _ in range(2):
            got = run_incremental(mutant, pipeline, state, record,
                                  source_fps, CRASH_BUGS)
            if want[3] is not None:
                # A crash aborts a pass mid-body; a memoized crash skips
                # the pass entirely.  The half-rewritten IR differs but
                # is never observable — the driver discards a crashed
                # mutant after recording the finding — so the contract
                # covers stats, bug attribution, and the crash itself.
                assert got[1:] == want[1:]
            else:
                assert got == want

    def test_optimized_mutants_verify(self):
        source = parsed(SEED_MODULE)
        state, source_fps = warmed_state(source, "O2")
        mutator = Mutator(source.clone(), MutatorConfig(max_mutations=2))
        for seed in range(20):
            mutant, record = mutator.create_mutant(seed)
            clone = mutant.clone()
            manager = PassManager(["O2"])
            for function in clone.definitions():
                touched = record.touched.get(function.name)
                dirty = (initial_dirty(function, touched)
                         if touched is not None else None)
                run = state.begin(fp=fingerprint_function(function),
                                  dirty=dirty,
                                  proven=state.proven_passes(
                                      source_fps.get(function.name),
                                      manager.pass_names))
                manager.run_function(function, OptContext(()),
                                     incremental=run)
            verify_module(clone)


def run_driver(text, incremental, iterations=150, base_seed=0, **kwargs):
    config = FuzzConfig(
        mutator=MutatorConfig(max_mutations=2),
        tv=RefinementConfig(max_inputs=8),
        incremental=incremental,
        base_seed=base_seed,
        **kwargs,
    )
    driver = FuzzDriver(parsed(text), config, file_name="t.ll")
    report = driver.run(iterations=iterations)
    return driver, report


def finding_keys(report):
    return [(f.seed, f.kind, f.function, tuple(f.bug_ids))
            for f in report.findings]


class TestDriverParity:
    """incremental on == incremental off: the acceptance criterion."""

    def test_miscompilation_findings_identical(self):
        _, on = run_driver(SEED_MODULE, True, enabled_bugs=("53252",))
        _, off = run_driver(SEED_MODULE, False, enabled_bugs=("53252",))
        assert on.findings  # the workload must actually find bugs
        assert finding_keys(on) == finding_keys(off)

    def test_crash_findings_identical(self):
        _, on = run_driver(SEED_MODULE, True, enabled_bugs=CRASH_BUGS)
        _, off = run_driver(SEED_MODULE, False, enabled_bugs=CRASH_BUGS)
        assert any(f.kind == "crash" for f in on.findings)
        assert finding_keys(on) == finding_keys(off)

    def test_deterministic_metrics_identical(self):
        on_driver, _ = run_driver(SEED_MODULE, True,
                                  enabled_bugs=("53252",))
        off_driver, _ = run_driver(SEED_MODULE, False,
                                   enabled_bugs=("53252",))
        assert on_driver.metrics.deterministic() == \
            off_driver.metrics.deterministic()

    def test_incremental_actually_engages(self):
        driver, _ = run_driver(SEED_MODULE, True)
        assert driver.metrics.counter("opt.incremental.memo_skips") > 0
        assert driver.metrics.counter("opt.incremental.worklist_runs") > 0

    def test_off_leaves_no_incremental_counters(self):
        driver, _ = run_driver(SEED_MODULE, False)
        assert not driver.metrics.counters_with_prefix("opt.incremental.")

    def test_kill_and_resume_identical(self):
        """A fresh driver (cold memos) continuing at the kill point
        produces the same findings the uninterrupted run would."""
        _, whole = run_driver(SEED_MODULE, True, iterations=120,
                              enabled_bugs=("53252",) + CRASH_BUGS)
        _, first = run_driver(SEED_MODULE, True, iterations=60,
                              enabled_bugs=("53252",) + CRASH_BUGS)
        _, second = run_driver(SEED_MODULE, True, iterations=60,
                               base_seed=60,
                               enabled_bugs=("53252",) + CRASH_BUGS)
        assert finding_keys(first) + finding_keys(second) == \
            finding_keys(whole)

    def test_tiny_memo_only_costs_speed(self):
        _, tiny = run_driver(SEED_MODULE, True, incremental_cache_size=2,
                             enabled_bugs=("53252",))
        _, off = run_driver(SEED_MODULE, False, enabled_bugs=("53252",))
        assert finding_keys(tiny) == finding_keys(off)

    def test_cache_size_must_be_positive(self):
        from repro.fuzz.driver import ConfigError

        with pytest.raises(ConfigError):
            FuzzConfig(incremental_cache_size=0).validate()
        # Irrelevant when the feature is off.
        FuzzConfig(incremental=False, incremental_cache_size=0).validate()

    def test_per_pass_timings_recorded(self):
        driver, _ = run_driver(SEED_MODULE, True, iterations=5)
        seconds = driver.metrics.counters_with_prefix("optimize.pass.")
        assert any(name.endswith(".seconds") for name in seconds)
        for name in expand("O2"):
            assert driver.metrics.counter(
                f"optimize.pass.{name}.seconds") >= 0.0
