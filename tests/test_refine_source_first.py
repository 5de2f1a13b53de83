"""``check_refinement`` executes only what a verdict can depend on.

Three rules live in ``repro.tv.refine._source_first`` (DESIGN §6): the
source runs first and the target only where no source behavior is UB or
a timeout; two sides that resolved to one plan share the source's
behaviors; and a shared plan that cannot exhaust the step budget runs
nothing.  Every rule must be *exact*: the whole ``TVResult`` equals that
of a reference which executes both sides on every input.  The reference
is built here, by replacing the helper — production has no switch.
"""

import pytest

from repro.fuzz import FuzzConfig, FuzzDriver, corpus_modules
from repro.ir import parse_module
from repro.mutate import Mutator, MutatorConfig
from repro.obs import ThroughputSnapshot
from repro.opt import OptContext, PassManager
from repro.opt.bugs import MISCOMPILATION, all_bugs
from repro.tv import (
    ExecutionLimits,
    RefinementConfig,
    check_function_supported,
    TVCaches,
    check_refinement,
)
from repro.tv import refine

from helpers import optimize, parsed


# Crash bugs end the pipeline before there is anything to validate.
WRONG_CODE_BUGS = tuple(
    bug.issue_id for bug in all_bugs() if bug.kind == MISCOMPILATION
)


def _run_everything(src, tgt, inputs, config, stats):
    """What ``_source_first`` did before it learned to skip: both sides,
    every input."""
    prepared = [refine._prepare_input(src.function, i) for i in inputs]
    run = refine._engine(src, tgt, config, stats)
    return run(src, prepared), run(tgt, prepared)


def _result_key(result):
    return (
        result.verdict.value,
        result.inputs_checked,
        result.inconclusive_inputs,
        str(result.counterexample),
    )


def _reference(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(refine, "_source_first", _run_everything)
        return check_refinement(*args, **kwargs)


def _assert_exact(
    monkeypatch, src, tgt, src_module, tgt_module, caches=None, **knobs
):
    """Production equals the reference under both engines; returns the
    batched production result.  Production runs on ``caches`` and the
    reference on caches of its own, so only production is counted."""
    results = []
    for batched in (True, False):
        config = RefinementConfig(batched=batched, **knobs)
        expected = _reference(
            monkeypatch, src, tgt, src_module, tgt_module, config
        )
        actual = check_refinement(
            src, tgt, src_module, tgt_module, config, caches=caches
        )
        assert _result_key(actual) == _result_key(expected), src.name
        results.append(actual)
    assert _result_key(results[0]) == _result_key(results[1]), src.name
    return results[0]


def _function_pairs(src_module, tgt_module):
    for function in src_module.definitions():
        target = tgt_module.get_function(function.name)
        if target is None or target.is_declaration():
            continue
        if check_function_supported(function) is None:
            yield function, target


def _counters(caches):
    """Counter name -> value."""
    stats = caches.stats
    return dict(zip(stats.__slots__, stats.stats()))


def _plans_shared(delta):
    return delta["same_plan"], delta["static_skips"]


class TestEqualsFullExecution:
    def test_differential_corpus(self, monkeypatch):
        # Every corpus archetype against its O2 form, clean and with
        # every seeded bug armed (so UNSOUND verdicts and their
        # counterexamples are compared too).
        verdicts = set()
        for _, module in corpus_modules(48, seed=0):
            for bugs in ((), WRONG_CODE_BUGS):
                optimized, _ = optimize(module, "O2", bugs=bugs)
                for src, tgt in _function_pairs(module, optimized):
                    result = _assert_exact(
                        monkeypatch, src, tgt, module, optimized, max_inputs=16
                    )
                    verdicts.add(result.verdict.value)
        assert {"correct", "unsound"} <= verdicts

    def test_generated_mutant_pairs(self, monkeypatch):
        # (mutant, optimized mutant) pairs as the campaign produces
        # them; many mutants survive the pipeline unchanged, so all
        # three rules fire here.
        caches = TVCaches()
        pairs = 0
        modules = corpus_modules(24, seed=3)
        for index, (_, module) in enumerate(modules):
            mutator = Mutator(module, MutatorConfig(max_mutations=3))
            for seed in range(10):
                mutant, _record = mutator.create_mutant(1000 * index + seed)
                optimized = mutant.clone()
                PassManager(["O2"], OptContext(WRONG_CODE_BUGS)).run(optimized)
                for src, tgt in _function_pairs(mutant, optimized):
                    _assert_exact(
                        monkeypatch,
                        src,
                        tgt,
                        mutant,
                        optimized,
                        caches=caches,
                        max_inputs=12,
                    )
                    pairs += 1
        assert pairs >= 200
        delta = _counters(caches)
        assert delta["same_plan"] > delta["static_skips"] > 0
        assert delta["target_inputs_pruned"] > 0


LOOP = """
define i32 @spin(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %next, %head ]
  %next = add i32 %i, 1
  %done = icmp uge i32 %next, %n
  br i1 %done, label %exit, label %head
exit:
  ret i32 %i
}
"""


class TestSamePlan:
    def test_straight_line_function_against_itself_runs_nothing(self, monkeypatch):
        module = parsed("""
        define i32 @f(i32 %x) {
          %r = udiv i32 100, %x
          ret i32 %r
        }
        """)
        function = module.get_function("f")
        caches = TVCaches()
        result = _assert_exact(
            monkeypatch, function, function, module, module, caches, max_inputs=8
        )
        assert result.verdict.value == "correct"
        assert result.inputs_checked > 0 and result.inconclusive_inputs == 0
        delta = _counters(caches)
        # Two production calls (batched, scalar): both skipped statically.
        assert _plans_shared(delta) == (2, 2)

    def test_looping_function_against_itself_still_times_out(self, monkeypatch):
        # The shared plan has a cycle, so the static skip must not fire:
        # the source runs, and its timeouts are reported as inconclusive
        # exactly as if the target had run too.
        module = parsed(LOOP)
        function = module.get_function("spin")
        limits = ExecutionLimits(max_steps=64)
        caches = TVCaches()
        result = _assert_exact(
            monkeypatch,
            function,
            function,
            module,
            module,
            caches,
            max_inputs=12,
            limits=limits,
        )
        assert result.verdict.value == "correct"
        assert 0 < result.inconclusive_inputs < result.inputs_checked
        delta = _counters(caches)
        assert _plans_shared(delta) == (2, 0)

    def test_step_bound_above_budget_does_not_skip(self, monkeypatch):
        # Acyclic, but longer than the budget: every input times out.
        body = "\n".join(
            f"  %v{i + 1} = add i32 %v{i}, 1" for i in range(20)
        )
        module = parsed(
            "define i32 @f(i32 %v0) {\n" + body + "\n  ret i32 %v20\n}"
        )
        function = module.get_function("f")
        result = _assert_exact(
            monkeypatch,
            function,
            function,
            module,
            module,
            max_inputs=6,
            limits=ExecutionLimits(max_steps=10),
        )
        assert result.inconclusive_inputs == result.inputs_checked

    def test_calls_into_definitions_do_not_skip(self, monkeypatch):
        module = parsed(
            LOOP
            + """
        define i32 @f(i32 %n) {
          %r = call i32 @spin(i32 %n)
          ret i32 %r
        }
        """
        )
        function = module.get_function("f")
        caches = TVCaches()
        result = _assert_exact(
            monkeypatch,
            function,
            function,
            module,
            module,
            caches,
            max_inputs=12,
            limits=ExecutionLimits(max_steps=64),
        )
        assert result.inconclusive_inputs > 0
        assert _plans_shared(_counters(caches)) == (2, 0)

    def test_equal_fingerprints_with_different_local_names_do_not_share(
        self, monkeypatch
    ):
        # Names are normalized out of the fingerprint but appear in UB
        # details, so they are part of the plan key.
        template = "define i32 @f(i32 %{x}) {{\n  %{r} = add i32 %{x}, 1\n  ret i32 %{r}\n}}"
        src_module = parsed(template.format(x="x", r="r"))
        tgt_module = parsed(template.format(x="y", r="q"))
        caches = TVCaches()
        result = _assert_exact(
            monkeypatch,
            src_module.get_function("f"),
            tgt_module.get_function("f"),
            src_module,
            tgt_module,
            caches,
            max_inputs=8,
        )
        assert result.verdict.value == "correct"
        assert _plans_shared(_counters(caches)) == (0, 0)

    def test_equal_fingerprints_with_different_declaration_attributes_do_not_share(
        self, monkeypatch
    ):
        # Declaration attributes drive the external-call model but are
        # not hashed; dropping ``readnone`` changes what the call
        # returns, and the checker must see that.
        template = """
        declare i32 @ext(i32){attrs}
        define i32 @f(i32 %x) {{
          %a = call i32 @ext(i32 %x)
          %b = call i32 @ext(i32 %x)
          %r = sub i32 %a, %b
          ret i32 %r
        }}
        """
        src_module = parsed(template.format(attrs=" readnone"))
        tgt_module = parsed(template.format(attrs=""))
        caches = TVCaches()
        result = _assert_exact(
            monkeypatch,
            src_module.get_function("f"),
            tgt_module.get_function("f"),
            src_module,
            tgt_module,
            caches,
            max_inputs=8,
        )
        assert result.verdict.value == "unsound"
        assert _plans_shared(_counters(caches)) == (0, 0)


class TestTargetPruning:
    def test_source_ub_and_timeout_inputs_never_reach_the_target(self):
        # %n == 0 is UB in the source (udiv), large %n times out; only
        # the remaining inputs are run on the (differently written)
        # target.
        src_module = parsed("""
        define i32 @f(i32 %n) {
        entry:
          %q = udiv i32 1000, %n
          br label %head
        head:
          %i = phi i32 [ 0, %entry ], [ %next, %head ]
          %next = add i32 %i, 1
          %done = icmp uge i32 %next, %n
          br i1 %done, label %exit, label %head
        exit:
          ret i32 %q
        }
        """)
        tgt_module = parsed("""
        define i32 @f(i32 %n) {
        entry:
          %q = udiv i32 1000, %n
          br label %head
        head:
          %i = phi i32 [ 0, %entry ], [ %next, %head ]
          %next = add i32 1, %i
          %done = icmp uge i32 %next, %n
          br i1 %done, label %exit, label %head
        exit:
          ret i32 %q
        }
        """)
        config = RefinementConfig(max_inputs=16, limits=ExecutionLimits(max_steps=64))
        src = src_module.get_function("f")
        tgt = tgt_module.get_function("f")
        caches = TVCaches()
        inputs = refine._inputs_for(src, config, caches.inputs)
        result = check_refinement(
            src, tgt, src_module, tgt_module, config, caches=caches
        )
        delta = _counters(caches)
        pruned = delta["target_inputs_pruned"]
        assert result.verdict.value == "correct"
        assert delta["same_plan"] == 0
        assert pruned > result.inconclusive_inputs > 0  # timeouts and the UB input
        # Deterministic code: one batch per side, and the target's batch
        # holds exactly the inputs that were not pruned.
        assert delta["batches"] == 2
        assert delta["lanes"] == 2 * len(inputs) - pruned

    @pytest.mark.parametrize("batched", [True, False])
    def test_no_nondeterminism_budget(self, monkeypatch, batched):
        # max_nondet_runs=0: no run on either side, every behavior set
        # empty and nothing to prune.
        template = "define i32 @f(i32 %x) {{\n  %r = {} i32 %x, {}\n  ret i32 %r\n}}"
        src_module = parsed(template.format("add", 1))
        tgt_module = parsed(template.format("sub", -1))
        config = RefinementConfig(max_inputs=4, max_nondet_runs=0, batched=batched)
        args = (
            src_module.get_function("f"),
            tgt_module.get_function("f"),
            src_module,
            tgt_module,
            config,
        )
        caches = TVCaches()
        result = check_refinement(*args, caches=caches)
        assert not any(_counters(caches).values())
        assert _result_key(result) == _result_key(_reference(monkeypatch, *args))
        assert _result_key(result) == ("correct", 4, 0, "None")


SEED = """
define i32 @clamp(i32 %x, i32 %y) {
  %c = icmp ult i32 %x, 100
  %r = select i1 %c, i32 %x, i32 100
  %s = udiv i32 %r, %y
  ret i32 %s
}
"""


class TestObservability:
    def _run(self):
        config = FuzzConfig(
            mutator=MutatorConfig(max_mutations=2),
            tv=RefinementConfig(max_inputs=8),
            enabled_bugs=("53252",),
        )
        driver = FuzzDriver(parse_module(SEED), config, file_name="sf.ll")
        return driver.run(iterations=40)

    def test_counters_reach_metrics_snapshot_and_stats_line(self):
        metrics = self._run().metrics
        same_plan = metrics.counter("exec.verify.same_plan")
        assert same_plan >= metrics.counter("exec.verify.static_skips") > 0
        assert metrics.counter("exec.verify.target_inputs_pruned") > 0
        snapshot = ThroughputSnapshot.from_metrics(metrics, 1.0)
        assert snapshot.exec_verify_same_plan == same_plan
        assert snapshot.to_dict()["exec_verify_static_skips"] == metrics.counter(
            "exec.verify.static_skips"
        )
        assert f"tv same-plan {int(same_plan)} no-exec" in snapshot.progress_line()

    def test_deterministic_metrics_do_not_see_the_rules(self, monkeypatch):
        # The counters live under exec.*, which deterministic() leaves
        # out — and everything it keeps (tv.checks, tv.inconclusive_inputs,
        # findings) is the same whether or not anything was skipped.
        pruned = self._run()
        with monkeypatch.context() as patch:
            patch.setattr(refine, "_source_first", _run_everything)
            full = self._run()
        assert full.metrics.counter("exec.verify.same_plan") == 0
        assert pruned.metrics.counter("exec.verify.same_plan") > 0
        deterministic = pruned.metrics.deterministic()
        assert not any(name.startswith("exec.") for name in deterministic["counters"])
        assert deterministic["counters"]["tv.checks"] > 0
        assert deterministic == full.metrics.deterministic()
        assert [f.detail for f in pruned.findings] == [f.detail for f in full.findings]
