"""Execution plans and the plan cache (repro.tv.compile), and the two
engines that run them.

The batch engine must be observationally identical to the reference
tree-walker: same lane outcomes (including UB detail strings and step
counts), same oracle bookkeeping, same verdicts and counterexamples,
same findings and deterministic metrics.  The parity tests here run
both engines and diff.
"""

import gc
import weakref

import pytest

from repro.fuzz import FuzzConfig, FuzzDriver, corpus_modules
from repro.mutate import MutatorConfig
from repro.tv import (ExecutionLimits, Interpreter, PathOracle, PlanCache,
                      RefinementConfig, TVCaches, check_refinement,
                      compile_function, generate_inputs)
from repro.tv.compile import plan_key
from repro.tv.refine import _inputs_for

from helpers import assert_lanes_match, optimize, parsed, reference_lanes


def assert_identical_behaviors(text, fn="f", max_inputs=24, seed=0,
                               limits=None):
    """Every generated input of ``@fn``, through the batch engine and
    the tree-walker, compared lane by lane over the nondeterminism
    tree; the batch compiler must accept the program."""
    module = parsed(text)
    function = module.get_function(fn)
    config = RefinementConfig(max_inputs=max_inputs, seed=seed)
    inputs = generate_inputs(function, config)
    assert inputs, "workload generated no inputs"
    compared = assert_lanes_match(module, function, inputs, limits=limits)
    assert compared >= len(inputs), "the batch compiler declined @" + fn


class TestDifferentialBehavior:
    """Batch lanes == tree-walked runs on targeted semantic edge cases."""

    def test_arithmetic_and_poison_flags(self):
        assert_identical_behaviors("""
define i8 @f(i8 %x, i8 %y) {
  %a = add nsw i8 %x, %y
  %b = sub nuw i8 %a, 1
  %c = mul i8 %b, %y
  %d = xor i8 %c, 85
  ret i8 %d
}
""")

    def test_division_ub_ordering(self):
        # Divisor poison / zero must raise UB before the general poison
        # short-circuit; the detail string is part of the Outcome.
        assert_identical_behaviors("""
define i8 @f(i8 %x, i8 %y) {
  %p = add nsw i8 %x, 127
  %q = sdiv i8 %y, %p
  ret i8 %q
}
""")

    def test_shift_amount_poison(self):
        assert_identical_behaviors("""
define i8 @f(i8 %x, i8 %s) {
  %a = shl i8 %x, %s
  %b = lshr exact i8 %a, 1
  ret i8 %b
}
""")

    def test_freeze_of_poison_and_undef(self):
        assert_identical_behaviors("""
define i8 @f(i8 %x) {
  %p = add nuw i8 %x, 255
  %a = freeze i8 %p
  %u = freeze i8 undef
  %r = add i8 %a, %u
  ret i8 %r
}
""")

    def test_undef_multi_use_is_independent_choices(self):
        # Each textual use of undef is an independent oracle choice; the
        # batched operand resolvers must preserve the choice order.
        assert_identical_behaviors("""
define i8 @f() {
  %a = add i8 undef, 0
  %b = add i8 undef, 0
  %r = sub i8 %a, %b
  ret i8 %r
}
""", max_inputs=4)

    def test_select_evaluates_only_taken_arm(self):
        assert_identical_behaviors("""
define i8 @f(i1 %c, i8 %x) {
  %d = udiv i8 1, %x
  %r = select i1 %c, i8 %d, i8 7
  ret i8 %r
}
""")

    def test_icmp_and_casts(self):
        assert_identical_behaviors("""
define i16 @f(i8 %x, i16 %y) {
  %c = icmp slt i8 %x, 3
  %w = sext i8 %x to i16
  %z = zext i8 %x to i16
  %t = trunc i16 %y to i8
  %u = zext i8 %t to i16
  %r = select i1 %c, i16 %w, i16 %z
  %s = add i16 %r, %u
  ret i16 %s
}
""")

    def test_phi_loop(self):
        assert_identical_behaviors("""
define i8 @f(i8 %n) {
entry:
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %next, %loop ]
  %acc = phi i8 [ 0, %entry ], [ %acc2, %loop ]
  %acc2 = add i8 %acc, %i
  %next = add i8 %i, 1
  %done = icmp uge i8 %next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i8 %acc2
}
""")

    def test_parallel_phi_copies(self):
        # %a and %b swap through the back edge: the edge's phi schedule
        # must be a parallel copy, not a sequential one.
        assert_identical_behaviors("""
define i32 @f(i32 %n) {
entry:
  br label %loop
loop:
  %a = phi i32 [ 1, %entry ], [ %b, %loop ]
  %b = phi i32 [ 2, %entry ], [ %a, %loop ]
  %count = phi i32 [ 0, %entry ], [ %inc, %loop ]
  %inc = add i32 %count, 1
  %done = icmp uge i32 %inc, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i32 %a
}
""")

    def test_switch(self):
        assert_identical_behaviors("""
define i8 @f(i8 %x) {
entry:
  switch i8 %x, label %d [ i8 0, label %a i8 9, label %b ]
a:
  ret i8 10
b:
  ret i8 20
d:
  ret i8 30
}
""")

    def test_memory_round_trip(self):
        assert_identical_behaviors("""
define i32 @f(i32 %x) {
  %slot = alloca i32
  store i32 %x, ptr %slot
  %r = load i32, ptr %slot
  ret i32 %r
}
""")

    def test_load_of_undef_bytes(self):
        # A fresh alloca holds undef bytes; each byte loaded is an
        # oracle choice over the truncated undef-byte domain.
        assert_identical_behaviors("""
define i8 @f() {
  %slot = alloca i8
  %r = load i8, ptr %slot
  ret i8 %r
}
""", max_inputs=4)

    def test_gep_chain_and_inbounds_overflow(self):
        assert_identical_behaviors("""
define i8 @f(i8 %x) {
  %slot = alloca i16
  %p2 = getelementptr i8, ptr %slot, i64 1
  %p1 = getelementptr i8, ptr %p2, i64 -1
  store i8 %x, ptr %p1
  %far = getelementptr inbounds i8, ptr %slot, i64 100
  %r = load i8, ptr %p1
  ret i8 %r
}
""")

    def test_pointer_arguments(self):
        assert_identical_behaviors("""
define i8 @f(ptr %p) {
  %r = load i8, ptr %p
  ret i8 %r
}
""")

    def test_internal_and_external_calls(self):
        assert_identical_behaviors("""
declare i8 @opaque(i8)

define i8 @double(i8 %x) {
  %r = add i8 %x, %x
  ret i8 %r
}

define i8 @f(i8 %x) {
  %a = call i8 @double(i8 %x)
  %b = call i8 @opaque(i8 %a)
  ret i8 %b
}
""", max_inputs=8)

    def test_intrinsics(self):
        assert_identical_behaviors("""
define i8 @f(i8 %x, i8 %y) {
  %a = call i8 @llvm.abs.i8(i8 %x, i1 false)
  %b = call i8 @llvm.ctlz.i8(i8 %y, i1 false)
  %c = call i8 @llvm.fshl.i8(i8 %a, i8 %b, i8 4)
  %r = call i8 @llvm.umax.i8(i8 %c, i8 %y)
  ret i8 %r
}
""")

    def test_assume(self):
        assert_identical_behaviors("""
declare void @llvm.assume(i1)

define i8 @f(i8 %x) {
  %c = icmp ult i8 %x, 16
  call void @llvm.assume(i1 %c)
  %r = add i8 %x, 1
  ret i8 %r
}
""")

    def test_step_limit_classification(self):
        # An infinite loop must time out at the same step count in both
        # engines (phis are not counted as steps).
        text = """
define i8 @f(i8 %x) {
entry:
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %next, %loop ]
  %next = add i8 %i, 1
  br label %loop
}
"""
        limits = ExecutionLimits(max_steps=100)
        assert_identical_behaviors(text, max_inputs=4, limits=limits)
        module = parsed(text)
        walked = reference_lanes(module, module.get_function("f"),
                                 [([0], [], [], PathOracle([]))], limits)
        assert walked == [("timeout", None, (), "", 101)]

    def test_recursion_depth_limit(self):
        assert_identical_behaviors("""
define i8 @f(i8 %x) {
  %r = call i8 @f(i8 %x)
  ret i8 %r
}
""", max_inputs=4)

    def test_unreachable_is_ub(self):
        assert_identical_behaviors("""
define i8 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  ret i8 1
b:
  unreachable
}
""", max_inputs=4)


class TestVerdictParity:
    """check_refinement parity between the batch engine and per-input
    tree-walking, including over optimized corpus pairs."""

    def _check_both(self, src, tgt, fn):
        results = []
        for batched in (True, False):
            config = RefinementConfig(max_inputs=24, batched=batched)
            results.append(check_refinement(
                src.get_function(fn), tgt.get_function(fn),
                src, tgt, config))
        return results

    def test_miscompilation_counterexample_identical(self):
        module = parsed("""
define i32 @clamp(i32 %x) {
  %c = icmp ult i32 %x, 100
  %r = select i1 %c, i32 %x, i32 100
  ret i32 %r
}
""")
        optimized, _ = optimize(module, "O2", bugs=("53252",))
        batched, walked = self._check_both(module, optimized, "clamp")
        assert batched.verdict == walked.verdict
        assert batched.counterexample == walked.counterexample
        assert batched.inputs_checked == walked.inputs_checked
        assert batched.inconclusive_inputs == walked.inconclusive_inputs

    def test_corpus_sweep_identical_verdicts(self):
        # The acceptance criterion in miniature: every corpus member's
        # O2 verdict (clean and with a seeded bug) matches across modes.
        checked = 0
        for _, module in corpus_modules(6, seed=7):
            for bugs in ((), ("53252",)):
                optimized, _ = optimize(module, "O2", bugs=bugs)
                for function in module.definitions():
                    if optimized.get_function(function.name) is None:
                        continue
                    batched, walked = self._check_both(
                        module, optimized, function.name)
                    assert batched.verdict == walked.verdict, \
                        function.name
                    assert batched.counterexample == \
                        walked.counterexample, function.name
                    checked += 1
        assert checked >= 6


class TestPlanCache:
    def test_hit_after_miss(self):
        module = parsed("""
define i8 @f(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}
""")
        cache = PlanCache()
        function = module.get_function("f")
        first = cache.plan_for(function)
        second = cache.plan_for(function)
        assert first is second is not None
        assert cache.stats() == (1, 1, 0)
        assert len(cache) == 1

    def test_alpha_renamed_twins_get_distinct_plans(self):
        # Fingerprints normalize names away, but UB detail strings
        # ("use of unevaluated value %x") embed them — the plan key must
        # keep renamed twins apart.
        a = parsed("""
define i8 @f(i8 %x) {
  %r = udiv i8 1, %x
  ret i8 %r
}
""").get_function("f")
        b = parsed("""
define i8 @f(i8 %y) {
  %q = udiv i8 1, %y
  ret i8 %q
}
""").get_function("f")
        assert plan_key(a) != plan_key(b)
        cache = PlanCache()
        cache.plan_for(a)
        cache.plan_for(b)
        assert cache.stats() == (0, 2, 0)

    def test_declaration_attributes_distinguish_plans(self):
        # _call_external consults readnone/readonly on declarations,
        # which fingerprints ignore; the plan key must not.
        template = """
declare i8 @opaque(i8) {attrs}

define i8 @f(i8 %x) {{
  %r = call i8 @opaque(i8 %x)
  ret i8 %r
}}
"""
        plain = parsed(template.format(attrs="")).get_function("f")
        pure = parsed(template.format(attrs="readnone")).get_function("f")
        assert plan_key(plain) != plan_key(pure)

    def test_declarations_fall_back(self):
        module = parsed("""
declare i8 @opaque(i8)

define i8 @f(i8 %x) {
  %r = call i8 @opaque(i8 %x)
  ret i8 %r
}
""")
        declaration = module.get_function("opaque")
        with pytest.raises(ValueError):
            compile_function(declaration)

    @staticmethod
    def _adders(count):
        """``count`` distinct functions of four frame slots each."""
        return [parsed(f"""
define i8 @f(i8 %x) {{
  %r = add i8 %x, {index}
  ret i8 %r
}}
""").get_function("f") for index in range(count)]

    def test_lru_eviction_recompiles(self):
        functions = self._adders(3)
        cache = PlanCache(capacity=8)       # slots: two of these plans
        for function in functions:
            cache.plan_for(function)
        assert (len(cache), cache.slots, cache.evictions) == (2, 8, 1)
        # functions[0] was evicted: looking it up again is a miss.
        cache.plan_for(functions[0])
        hits, misses, fallbacks = cache.stats()
        assert (hits, misses, fallbacks) == (0, 4, 0)

    def test_bound_is_in_slots_not_entries(self):
        body = "\n".join(
            f"  %v{index} = add i32 %v{index - 1}, {index}"
            for index in range(1, 238))
        wide = parsed(f"""
define i32 @wide(i32 %v0) {{
{body}
  ret i32 %v237
}}
""").get_function("wide")
        cache = PlanCache(capacity=300)
        small = self._adders(20)
        for function in small:
            cache.plan_for(function)
        assert (len(cache), cache.slots) == (20, 80)
        plan = cache.plan_for(wide)
        assert plan.frame_size == 240
        # One 240-slot plan costs five 4-slot ones their place.
        assert (len(cache), cache.slots, cache.evictions) == (16, 300, 5)
        assert cache.plan_for(wide) is plan
        # However small the budget, the newest plan stays resident.
        tiny = PlanCache(capacity=100)
        tiny.plan_for(small[0])
        assert tiny.plan_for(wide) is tiny.plan_for(wide)
        assert (len(tiny), tiny.slots) == (1, 240)

    def test_fresh_caches_start_empty(self):
        caches = TVCaches()
        assert caches.plans.stats() == (0, 0, 0)
        assert len(caches.plans) == len(caches.inputs) == 0
        assert not any(caches.stats.stats())


NESTED = """
define i8 @helper(i8 %v) {
  %w = mul i8 %v, 3
  ret i8 %w
}

define i8 @f(i8 %x) {
  %h = call i8 @helper(i8 %x)
  %r = add i8 %h, %STEP%
  ret i8 %r
}
"""


class TestCompileWhatRuns:
    """A plan compiles only the program something executes."""

    @staticmethod
    def _pair(text, src_step="1", tgt_step="2"):
        src = parsed(text.replace("%STEP%", src_step))
        tgt = parsed(text.replace("%STEP%", tgt_step))
        return src, tgt

    def test_batched_check_compiles_no_scalar_program(self):
        src, tgt = self._pair("""
define i8 @f(i8 %x) {
  %r = add i8 %x, %STEP%
  ret i8 %r
}
""")
        caches = TVCaches()
        cache = caches.plans
        result = check_refinement(src.get_function("f"), tgt.get_function("f"),
                                  src, tgt, RefinementConfig(max_inputs=8),
                                  caches=caches)
        assert result.verdict.value == "unsound"
        for module in (src, tgt):
            plan = cache.plan_for(module.get_function("f"))
            assert plan.batch_program is not None

    def test_nested_call_lays_out_no_callee_plan(self):
        # Lanes tree-walk the call: only the two callers have plans.
        src, tgt = self._pair(NESTED)
        caches = TVCaches()
        cache = caches.plans
        result = check_refinement(src.get_function("f"), tgt.get_function("f"),
                                  src, tgt, RefinementConfig(max_inputs=8),
                                  caches=caches)
        assert result.verdict.value == "unsound"
        assert cache.stats() == (0, 2, 0)
        assert len(cache) == 2

    def test_tree_walked_check_compiles_no_batch_program(self):
        src, tgt = self._pair(NESTED)
        caches = TVCaches()
        cache = caches.plans
        check_refinement(src.get_function("f"), tgt.get_function("f"),
                         src, tgt,
                         RefinementConfig(max_inputs=8, batched=False),
                         caches=caches)
        assert cache.plan_for(src.get_function("f")).batch_program is None

    def test_plans_hold_no_ir(self):
        # What a cached plan keeps alive is closures over constants, not
        # the mutant module its function came from.
        src, tgt = self._pair("""
define i8 @f(i8 %x) {
  %r = add i8 %x, %STEP%
  ret i8 %r
}
""")
        caches = TVCaches()
        cache = caches.plans
        check_refinement(src.get_function("f"), tgt.get_function("f"),
                         src, tgt, RefinementConfig(max_inputs=8),
                         caches=caches)
        assert len(cache) == 2
        watched = weakref.ref(src)
        del src, tgt
        gc.collect()
        assert watched() is None


def _branching_into(text, constant):
    """``@f`` whose false edge leaves for a block of ``@g``: IR no
    compiler here accepts and the plan key cannot tell apart."""
    module = parsed(text.replace("%RESULT%", str(constant)))
    branch = module.get_function("f").blocks[0].instructions[-1]
    branch.set_operand(2, module.get_function("g").blocks[1])
    return module


FOREIGN = """
define i8 @f(i8 %x) {
entry:
  %c = icmp ult i8 %x, 10
  br i1 %c, label %small, label %big
small:
  %a = add i8 %x, 1
  ret i8 %a
big:
  ret i8 %x
}

define i8 @g(i8 %y) {
entry:
  br label %out
out:
  ret i8 %RESULT%
}
"""

MODES = {
    "batched": dict(),
    "tree-walk": dict(batched=False),
}


class TestCompileFailureParity:
    """A function no plan covers is tree-walked: same verdicts in every
    mode, one ``fallback`` per plan key."""

    @staticmethod
    def _check(src, tgt, caches, **mode):
        return check_refinement(
            src.get_function("f"), tgt.get_function("f"), src, tgt,
            RefinementConfig(max_inputs=12, **mode), caches=caches)

    @staticmethod
    def _key(result):
        return (result.verdict, result.inputs_checked,
                result.inconclusive_inputs, str(result.counterexample))

    def test_foreign_block_is_declined_at_layout(self):
        src = _branching_into(FOREIGN, 7)
        cache = PlanCache()
        assert cache.plan_for(src.get_function("f")) is None
        assert cache.plan_for(src.get_function("f")) is None
        assert cache.stats() == (1, 1, 1)

    def test_foreign_block_verdicts_match_in_every_mode(self):
        src, tgt = _branching_into(FOREIGN, 7), _branching_into(FOREIGN, 8)
        same = _branching_into(FOREIGN, 7)
        results = {}
        for name, mode in MODES.items():
            caches = TVCaches()
            cache = caches.plans
            results[name] = (self._key(self._check(src, tgt, caches, **mode)),
                             self._key(self._check(src, same, caches, **mode)))
            # One key (the foreign block is invisible to it), asked for
            # by four sides: declined once, remembered three times.
            assert cache.stats() == (3, 1, 1), name
        assert results["tree-walk"][0][0].value == "unsound"
        assert results["tree-walk"][1][0].value == "correct"
        assert results["batched"] == results["tree-walk"]


class TestInterpreterArena:
    def test_reset_clears_memory_and_counters(self):
        module = parsed("""
define i32 @f(i32 %x) {
  %slot = alloca i32
  store i32 %x, ptr %slot
  %r = load i32, ptr %slot
  ret i32 %r
}
""")
        interp = Interpreter(module)
        function = module.get_function("f")
        assert interp.run(function, [7]) == 7
        steps = interp._steps
        assert steps > 0
        interp.reset()
        assert interp._steps == 0
        assert interp.run(function, [9]) == 9
        assert interp._steps == steps


class TestInputCache:
    def test_same_fingerprint_reuses_inputs(self):
        config = RefinementConfig(max_inputs=12)
        a = parsed("""
define i8 @f(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}
""").get_function("f")
        b = parsed("""
define i8 @f(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}
""").get_function("f")
        cache = TVCaches().inputs
        assert _inputs_for(a, config, cache) is _inputs_for(b, config, cache)

    def test_config_key_separates_entries(self):
        function = parsed("""
define i8 @f(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}
""").get_function("f")
        cache = TVCaches().inputs
        few = _inputs_for(function, RefinementConfig(max_inputs=4), cache)
        many = _inputs_for(function, RefinementConfig(max_inputs=12), cache)
        assert len(few) < len(many)

    def test_batched_flag_shares_the_entry(self):
        # `batched` is deliberately not part of cache_key(): both modes
        # must generate identical inputs.
        function = parsed("""
define i8 @f(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}
""").get_function("f")
        cache = TVCaches().inputs
        on = _inputs_for(function, RefinementConfig(batched=True), cache)
        off = _inputs_for(function, RefinementConfig(batched=False), cache)
        assert on is off


MIXED = """
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


def run_driver(batched, iterations=30, **kwargs):
    config = FuzzConfig(
        mutator=MutatorConfig(max_mutations=2),
        tv=RefinementConfig(max_inputs=12, batched=batched),
        **kwargs,
    )
    driver = FuzzDriver(parsed(MIXED), config, file_name="t.ll")
    report = driver.run(iterations=iterations)
    return driver, report


def finding_keys(report):
    return [(f.seed, f.kind, f.function, tuple(f.bug_ids))
            for f in report.findings]


class TestDriverParity:
    """Batched == tree-walked: the acceptance determinism bar."""

    def test_findings_identical(self):
        _, batched = run_driver(True, enabled_bugs=("53252",))
        _, walked = run_driver(False, enabled_bugs=("53252",))
        assert batched.findings  # the workload must actually find bugs
        assert finding_keys(batched) == finding_keys(walked)

    def test_deterministic_metrics_identical(self):
        on_driver, _ = run_driver(True, enabled_bugs=("53252",))
        off_driver, _ = run_driver(False, enabled_bugs=("53252",))
        assert on_driver.metrics.deterministic() == \
            off_driver.metrics.deterministic()

    def test_plan_cache_metrics_flow(self):
        driver, _ = run_driver(True)
        assert driver.metrics.counter("exec.plan_cache.miss") > 0
        assert driver.metrics.counter("exec.plan_cache.hit") > 0
