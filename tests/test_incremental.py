"""Tests for how mutants are re-optimized.

The driver optimizes a mutant one function at a time: with the optimize
memo on, only the definitions the memo cannot answer run the pipeline,
each over its whole body.  The contract under test: that path finds
exactly what the plain one does.

* pipeline level — function-major ``PassManager.run_function`` over
  every definition equals the pass-major ``PassManager.run`` on random
  mutants, and its output verifies;
* driver level — whole fuzzing runs against the reference loop in
  ``helpers.py`` (deep clone, whole-module pipeline, no memo) on a
  multi-function module with three crash bugs armed, plus kill+resume
  and the per-pass timing counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import FuzzConfig, FuzzDriver
from repro.ir import print_module, verify_module
from repro.mutate import Mutator, MutatorConfig
from repro.opt import OptContext, PassManager, expand
from repro.tv import RefinementConfig

from helpers import (driver_findings, parsed, reference_findings,
                     reference_run)

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


def run_function_major(module, pipeline):
    """Optimize a clone like the driver: each definition gets the whole
    pipeline before the next starts.  Returns (printed IR, stats)."""
    clone = module.clone()
    manager = PassManager([pipeline])
    stats = {}
    for function in clone.definitions():
        ctx = OptContext(())
        manager.run_function(function, ctx)
        for stat, amount in ctx.stats.items():
            stats[stat] = stats.get(stat, 0) + amount
    return print_module(clone), stats


def run_pass_major(module, pipeline):
    """Optimize a clone with the whole-module ``PassManager.run``."""
    clone = module.clone()
    ctx = OptContext(())
    PassManager([pipeline], ctx).run(clone)
    return print_module(clone), dict(ctx.stats)


class TestPipelineDifferential:
    """Function-major runs == pass-major runs, over random mutants."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           pipeline=st.sampled_from(
               ["O2", "constfold,instsimplify,instcombine,dce"]))
    def test_mutant_pipeline_matches(self, seed, pipeline):
        source = parsed(SEED_MODULE)
        mutator = Mutator(source.clone(), MutatorConfig(max_mutations=3))
        mutant, _ = mutator.create_mutant(seed)
        assert run_function_major(mutant, pipeline) == \
            run_pass_major(mutant, pipeline)

    def test_optimized_mutants_verify(self):
        source = parsed(SEED_MODULE)
        mutator = Mutator(source.clone(), MutatorConfig(max_mutations=2))
        for seed in range(20):
            mutant, _ = mutator.create_mutant(seed)
            clone = mutant.clone()
            manager = PassManager(["O2"])
            for function in clone.definitions():
                manager.run_function(function, OptContext(()))
            verify_module(clone)


def make_config(base_seed=0, **kwargs):
    return FuzzConfig(
        mutator=MutatorConfig(max_mutations=2),
        tv=RefinementConfig(max_inputs=8),
        base_seed=base_seed,
        **kwargs,
    )


def run_driver(text, iterations=150, **kwargs):
    driver = FuzzDriver(parsed(text), make_config(**kwargs), file_name="t.ll")
    report = driver.run(iterations=iterations)
    return driver, report


def run_reference(text, iterations=150, **kwargs):
    return reference_run(text, make_config(**kwargs), iterations)


def finding_keys(report):
    return driver_findings(report.findings)


class TestDriverParity:
    """The memoized driver == the reference loop on a module whose
    functions the memo answers only some of the time, with several
    crash bugs armed at once."""

    def test_miscompilation_findings_identical(self):
        _, report = run_driver(SEED_MODULE, enabled_bugs=("53252",))
        _, runs = run_reference(SEED_MODULE, enabled_bugs=("53252",))
        assert report.findings  # the workload must actually find bugs
        assert finding_keys(report) == reference_findings(runs)

    def test_crash_findings_identical(self):
        _, report = run_driver(SEED_MODULE, enabled_bugs=CRASH_BUGS)
        _, runs = run_reference(SEED_MODULE, enabled_bugs=CRASH_BUGS)
        assert any(f.kind == "crash" for f in report.findings)
        assert finding_keys(report) == reference_findings(runs)

    def test_deterministic_metrics_identical(self):
        # The deterministic() counters the reference loop can rebuild:
        # inconclusive inputs and the operators applied.
        _, report = run_driver(SEED_MODULE, enabled_bugs=("53252",))
        _, runs = run_reference(SEED_MODULE, enabled_bugs=("53252",))
        assert report.inconclusive == sum(run.inconclusive for run in runs)
        applied = {}
        for run in runs:
            for operator in run.applied:
                applied[operator] = applied.get(operator, 0) + 1
        assert report.mutation_counts == applied
        for operator, count in applied.items():
            assert report.metrics.counter("mutate.op." + operator) == count

    def test_incremental_actually_engages(self):
        # Both sides of the parity above are exercised: some functions
        # are answered by the memo, the rest run the pipeline.
        driver, _ = run_driver(SEED_MODULE)
        assert driver.metrics.counter("cache.optimize.hit") > 0
        assert driver.metrics.counter("cache.optimize.miss") > 0

    def test_kill_and_resume_identical(self):
        """A fresh driver (cold memos) continuing at the kill point
        produces the same findings the uninterrupted run would."""
        _, whole = run_driver(SEED_MODULE, iterations=120,
                              enabled_bugs=("53252",) + CRASH_BUGS)
        _, first = run_driver(SEED_MODULE, iterations=60,
                              enabled_bugs=("53252",) + CRASH_BUGS)
        _, second = run_driver(SEED_MODULE, iterations=60, base_seed=60,
                               enabled_bugs=("53252",) + CRASH_BUGS)
        assert finding_keys(first) + finding_keys(second) == \
            finding_keys(whole)

    def test_per_pass_timings_recorded(self):
        driver, _ = run_driver(SEED_MODULE, iterations=5)
        seconds = driver.metrics.counters_with_prefix("optimize.pass.")
        assert any(name.endswith(".seconds") for name in seconds)
        for name in expand("O2"):
            assert driver.metrics.counter(
                f"optimize.pass.{name}.seconds") >= 0.0
