"""Tests for the refinement checker: ordering, counterexamples, memory,
nondeterminism handling, and input generation."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz.seeds import ARCHETYPES, generate_corpus
from repro.ir import parse_module
from repro.mutate import Mutator, MutatorConfig
from repro.tv import (Outcome, POISON, RefinementConfig, Verdict,
                      check_function_supported, check_module_refinement,
                      check_refinement, generate_inputs, outcome_refines,
                      TVCaches, value_refines)
from repro.tv.refine import PointerInput, _inputs_for, memory_refines
from repro.tv.memory import UNDEF_BYTE
from repro.tv.memory import POISON as POISON_BYTE

from helpers import parsed


def check(src_text, tgt_text, fn="f", max_inputs=48, seed=0):
    src = parsed(src_text)
    tgt = parsed(tgt_text)
    return check_refinement(src.get_function(fn), tgt.get_function(fn),
                            src, tgt,
                            RefinementConfig(max_inputs=max_inputs, seed=seed))


class TestValueRefinement:
    def test_poison_refined_by_anything(self):
        assert value_refines(42, POISON)
        assert value_refines(POISON, POISON)

    def test_concrete_needs_equality(self):
        assert value_refines(42, 42)
        assert not value_refines(41, 42)
        assert not value_refines(POISON, 42)

    def test_outcome_ub_accepts_all(self):
        ub = Outcome("ub")
        assert outcome_refines(Outcome("ok", value=1), ub)
        assert outcome_refines(Outcome("ub"), ub)

    def test_tgt_ub_rejected_when_src_defined(self):
        assert not outcome_refines(Outcome("ub"), Outcome("ok", value=1))

    def test_memory_byte_refinement(self):
        src = (("blk", (1, POISON_BYTE, UNDEF_BYTE)),)
        good = (("blk", (1, 99, 5)),)
        bad = (("blk", (2, 99, 5)),)
        poisoned = (("blk", (POISON_BYTE, 99, 5)),)
        assert memory_refines(good, src)
        assert not memory_refines(bad, src)
        assert not memory_refines(poisoned, src)


class TestEndToEnd:
    def test_identity_refines(self):
        text = """
define i32 @f(i32 %x) {
  %r = add i32 %x, 1
  ret i32 %r
}
"""
        assert check(text, text).verdict == Verdict.CORRECT

    def test_wrong_constant_detected(self):
        src = """
define i32 @f(i32 %x) {
  %r = add i32 %x, 1
  ret i32 %r
}
"""
        tgt = src.replace("add i32 %x, 1", "add i32 %x, 2")
        result = check(src, tgt)
        assert result.verdict == Verdict.UNSOUND
        assert result.counterexample is not None
        assert "@f" in str(result.counterexample)

    def test_poison_weakening_is_refinement(self):
        # Removing nsw makes the target strictly more defined.
        src = """
define i8 @f(i8 %x) {
  %r = add nsw i8 %x, 1
  ret i8 %r
}
"""
        tgt = src.replace("add nsw", "add")
        assert check(src, tgt).verdict == Verdict.CORRECT

    def test_poison_strengthening_is_flagged(self):
        src = """
define i8 @f(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}
"""
        tgt = src.replace("add i8", "add nsw i8")
        assert check(src, tgt).verdict == Verdict.UNSOUND

    def test_ub_introduction_is_flagged(self):
        src = """
define i8 @f(i8 %x) {
  ret i8 %x
}
"""
        tgt = """
define i8 @f(i8 %x) {
  %r = udiv i8 1, %x
  ret i8 %x
}
"""
        assert check(src, tgt).verdict == Verdict.UNSOUND

    def test_figure1_bug(self):
        """The paper's Figure 1: Listing 3 does not refine Listing 2."""
        src = """
define i32 @f(i32 %x, i32 %low, i32 %high) {
  %t0 = icmp slt i32 %x, 0
  %t1 = select i1 %t0, i32 %low, i32 %high
  %t2 = icmp ult i32 %x, 65536
  %1 = xor i1 %t2, true
  %r = select i1 %1, i32 %x, i32 %t1
  ret i32 %r
}
"""
        tgt = """
define i32 @f(i32 %x, i32 %low, i32 %high) {
  %1 = icmp slt i32 %x, 0
  %2 = icmp sgt i32 %x, 65535
  %3 = select i1 %1, i32 %low, i32 %x
  %4 = select i1 %2, i32 %high, i32 %3
  ret i32 %4
}
"""
        assert check(src, tgt).verdict == Verdict.UNSOUND

    def test_memory_effects_compared(self):
        src = """
define void @f(ptr %p) {
  store i8 1, ptr %p
  ret void
}
"""
        tgt = src.replace("store i8 1", "store i8 2")
        assert check(src, tgt).verdict == Verdict.UNSOUND

    def test_store_removal_detected(self):
        src = """
define void @f(ptr %p) {
  store i8 9, ptr %p
  ret void
}
"""
        tgt = """
define void @f(ptr %p) {
  ret void
}
"""
        assert check(src, tgt).verdict == Verdict.UNSOUND

    def test_aliasing_inputs_generated(self):
        # Forwarding the first load to the second is wrong when p == q.
        src = """
define i8 @f(ptr %p, ptr %q) {
  %a = load i8, ptr %q
  store i8 77, ptr %p
  %b = load i8, ptr %q
  ret i8 %b
}
"""
        tgt = """
define i8 @f(ptr %p, ptr %q) {
  %a = load i8, ptr %q
  store i8 77, ptr %p
  ret i8 %a
}
"""
        assert check(src, tgt).verdict == Verdict.UNSOUND

    def test_noalias_licenses_forwarding(self):
        src = """
define i8 @f(ptr noalias %p, ptr noalias %q) {
  %a = load i8, ptr %q
  store i8 77, ptr %p
  %b = load i8, ptr %q
  ret i8 %b
}
"""
        tgt = src.replace("%b = load i8, ptr %q\n  ret i8 %b",
                          "ret i8 %a")
        assert check(src, tgt).verdict == Verdict.CORRECT

    def test_undef_source_never_false_positives(self):
        # Source returns undef; target picks a specific value: a valid
        # refinement, which must not be flagged even under bounded
        # enumeration (it may be inconclusive, never unsound).
        src = """
define i32 @f() {
  ret i32 undef
}
"""
        tgt = """
define i32 @f() {
  ret i32 123456789
}
"""
        result = check(src, tgt)
        assert result.verdict != Verdict.UNSOUND

    def test_signature_change_unsupported(self):
        src = """
define i32 @f(i32 %x) {
  ret i32 %x
}
"""
        tgt = """
define i32 @f(i32 %x, i32 %extra) {
  ret i32 %x
}
"""
        assert check(src, tgt).verdict == Verdict.UNSUPPORTED


class TestInconclusiveCounting:
    # One inconclusive is counted per target outcome that matches no
    # source outcome of a non-exhausted source, not one per input: the
    # source's wide undef is a sample (not exhausted), and the target's
    # undef i1 select gives two values outside that sample.
    SRC = """
define i32 @f() {
  ret i32 undef
}
"""
    TGT = """
define i32 @f() {
  %r = select i1 undef, i32 7, i32 9
  ret i32 %r
}
"""

    def test_counts_each_unmatched_target_outcome(self):
        src = parsed(self.SRC)
        tgt = parsed(self.TGT)
        for batched in (True, False):
            result = check_refinement(
                src.get_function("f"), tgt.get_function("f"), src, tgt,
                RefinementConfig(batched=batched))
            assert result.verdict == Verdict.CORRECT
            assert result.inputs_checked == 1
            assert result.inconclusive_inputs == 2


class TestModuleRefinement:
    def test_pairs_by_name(self):
        src = parsed("""
define i8 @good(i8 %x) {
  ret i8 %x
}

define i8 @bad(i8 %x) {
  ret i8 %x
}
""")
        tgt = parsed("""
define i8 @good(i8 %x) {
  ret i8 %x
}

define i8 @bad(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}
""")
        results = check_module_refinement(src, tgt)
        assert results["good"].verdict == Verdict.CORRECT
        assert results["bad"].verdict == Verdict.UNSOUND

    def test_missing_function(self):
        src = parsed("""
define i8 @f(i8 %x) {
  ret i8 %x
}
""")
        tgt = parsed("declare i8 @f(i8)")
        results = check_module_refinement(src, tgt)
        assert results["f"].verdict == Verdict.UNSUPPORTED


class TestSupportCheck:
    def test_wide_int_unsupported(self):
        fn = parsed("""
define i128 @f(i128 %x) {
  ret i128 %x
}
""").get_function("f")
        assert check_function_supported(fn) is not None

    def test_normal_function_supported(self):
        fn = parsed("""
define i32 @f(i32 %x, ptr %p) {
  ret i32 %x
}
""").get_function("f")
        assert check_function_supported(fn) is None

    # Ill-typed bodies the parser takes (the verifier rejects them), with
    # the reason each is refused; both engines used to crash on them.
    ILL_TYPED = {
        "add ptr": ("%a = add ptr %p, %p", "add from ptr to ptr"),
        "zext ptr": ("%a = zext ptr %p to i64", "zext from ptr to i64"),
        "load void": ("load void, ptr %p", "load of unsized type void"),
        "trunc to ptr": ("%a = trunc i64 %x to ptr", "trunc from i64 to ptr"),
        "alloca void": ("%a = alloca void", "alloca of unsized type void"),
        "gep void": ("%a = getelementptr void, ptr %p, i64 1",
                     "getelementptr of unsized type void"),
        "gep ptr index": ("%a = getelementptr i8, ptr %p, ptr %p",
                          "getelementptr index of type ptr"),
        "intrinsic ptr": ("%a = call i64 @llvm.umax.i64(ptr %p, i64 1)",
                          "llvm.umax.i64 argument of type ptr"),
        # These each used to check CORRECT: both engines ran them.
        "zext narrows": ("%a = zext i64 %x to i8", "zext from i64 to i8"),
        "sext narrows": ("%a = sext i64 %x to i8", "sext from i64 to i8"),
        "zext keeps width": ("%a = zext i64 %x to i64",
                             "zext from i64 to i64"),
        "trunc widens": ("%a = trunc i64 %x to i65", "trunc from i64 to i65"),
        "select i64": ("%a = select i64 %x, i64 1, i64 2",
                       "select condition of type i64"),
        "switch ptr": ("switch ptr %p, label %exit [\n  ]\nexit:",
                       "switch on a value of type ptr"),
        "ret void": ("ret void", "ret void in a function returning i64"),
    }

    @pytest.mark.parametrize("batched", [True, False],
                             ids=["batched", "tree-walked"])
    @pytest.mark.parametrize("name", sorted(ILL_TYPED))
    def test_ill_typed_ir_is_refused(self, name, batched):
        body, reason = self.ILL_TYPED[name]
        header = ("declare i64 @llvm.umax.i64(i64, i64)\n"
                  "define i64 @f(i64 %x, ptr %p) {\n")
        src = parse_module(f"{header}  {body}\n  ret i64 0\n}}")
        # A twin with an extra block, so the pair is not trivially equal.
        tgt = parse_module(f"{header}first:\n  br label %second\n"
                           f"second:\n  {body}\n  ret i64 0\n}}")
        assert check_function_supported(src.get_function("f")) == reason
        result = check_refinement(src.get_function("f"),
                                  tgt.get_function("f"), src, tgt,
                                  RefinementConfig(batched=batched))
        assert result.verdict == Verdict.UNSUPPORTED
        assert result.reason == reason

    @pytest.mark.parametrize("batched", [True, False],
                             ids=["batched", "tree-walked"])
    def test_value_returned_from_void_function_is_refused(self, batched):
        src = parse_module("define void @f(i64 %x) {\n  ret i64 %x\n}")
        tgt = parse_module("define void @f(i64 %x) {\nfirst:\n"
                           "  br label %second\nsecond:\n  ret i64 %x\n}")
        reason = "ret i64 in a function returning void"
        assert check_function_supported(src.get_function("f")) == reason
        result = check_refinement(src.get_function("f"),
                                  tgt.get_function("f"), src, tgt,
                                  RefinementConfig(batched=batched))
        assert result.verdict == Verdict.UNSUPPORTED
        assert result.reason == reason

    def test_well_typed_casts_and_returns_are_supported(self):
        fn = parsed("""
define i64 @f(i64 %x, i1 %c) {
  %t = trunc i64 %x to i8
  %z = zext i8 %t to i64
  %s = sext i8 %t to i32
  %w = zext i32 %s to i64
  %r = select i1 %c, i64 %z, i64 %w
  switch i64 %r, label %exit [
    i64 0, label %exit
  ]
exit:
  ret i64 %r
}
""").get_function("f")
        assert check_function_supported(fn) is None


class TestInputGeneration:
    def test_exhaustive_when_small(self):
        fn = parsed("""
define i1 @f(i2 %a, i2 %b) {
  %r = icmp eq i2 %a, %b
  ret i1 %r
}
""").get_function("f")
        inputs = generate_inputs(fn, RefinementConfig(max_inputs=64))
        assert len(inputs) == 16  # full 4x4 cross product

    def test_corner_values_present(self):
        fn = parsed("""
define i32 @f(i32 %x) {
  %r = add i32 %x, 74
  ret i32 %r
}
""").get_function("f")
        inputs = generate_inputs(fn, RefinementConfig(max_inputs=64))
        values = {i.args[0] for i in inputs}
        assert 0 in values
        assert 0xFFFFFFFF in values
        assert 0x80000000 in values
        # Constant-pool neighborhood of 74:
        assert {73, 74, 75} <= values

    def test_pointer_inputs_include_null_and_alias(self):
        fn = parsed("""
define i8 @f(ptr %p, ptr %q) {
  %v = load i8, ptr %q
  ret i8 %v
}
""").get_function("f")
        inputs = generate_inputs(fn, RefinementConfig(max_inputs=64))
        has_null = any(isinstance(a, PointerInput) and a.is_null()
                       for i in inputs for a in i.args)
        has_alias = any(isinstance(i.args[1], PointerInput)
                        and not i.args[1].is_null()
                        and i.args[1].block == "arg:p"
                        for i in inputs)
        assert has_null and has_alias

    def test_nonnull_respected(self):
        fn = parsed("""
define i8 @f(ptr nonnull %p) {
  %v = load i8, ptr %p
  ret i8 %v
}
""").get_function("f")
        inputs = generate_inputs(fn, RefinementConfig(max_inputs=64))
        assert not any(a.is_null() for i in inputs for a in i.args
                       if isinstance(a, PointerInput))

    def test_deterministic_in_seed(self):
        fn = parsed("""
define i32 @f(i32 %x) {
  ret i32 %x
}
""").get_function("f")
        a = generate_inputs(fn, RefinementConfig(seed=5))
        b = generate_inputs(fn, RefinementConfig(seed=5))
        assert a == b


POINTER_VARIANTS = [
    "ptr %p, ptr %q",
    "ptr nonnull %p, ptr %q",
    "ptr %p, ptr nonnull %q",
    "ptr noalias %p, ptr %q",
    "ptr %p, ptr noalias %q",
    "ptr dereferenceable(32) %p, ptr %q",
    "ptr %p, ptr dereferenceable(8) %q",
    "ptr %a, ptr %q",
    "ptr %p, i8 %q",
]


class TestInputCacheKey:
    """``_inputs_for`` caches under exactly what ``generate_inputs``
    reads, so a hit can never hand back another function's inputs."""

    CONFIG = RefinementConfig(max_inputs=24)

    def setup_method(self):
        self.cache = TVCaches().inputs

    def test_pointer_attributes_and_names_are_in_the_key(self):
        functions = [parsed(f"""
define i8 @f({params}) {{
  ret i8 0
}}
""").get_function("f") for params in POINTER_VARIANTS]
        # Warm the cache with every variant, then read each back.
        for function in functions:
            _inputs_for(function, self.CONFIG, self.cache)
        fresh = [tuple(generate_inputs(function, self.CONFIG))
                 for function in functions]
        assert [_inputs_for(function, self.CONFIG, self.cache)
                for function in functions] == fresh
        # (The variants do differ: most of them in their input sets.)
        assert len(set(fresh)) >= 6

    def test_pool_constants_beyond_the_eighth_do_not_matter(self):
        def summing(constants):
            body = "\n".join(
                f"  %v{index + 1} = add i32 %v{index}, {constant}"
                for index, constant in enumerate(constants))
            return parsed(f"""
define i32 @f(i32 %v0) {{
{body}
  ret i32 %v{len(constants)}
}}
""").get_function("f")

        first = summing(range(100, 110))
        same_eight = summing(list(range(100, 108)) + [7, 9])
        other_eight = summing([99] + list(range(101, 110)))
        assert _inputs_for(first, self.CONFIG, self.cache) is \
            _inputs_for(same_eight, self.CONFIG, self.cache)
        assert _inputs_for(other_eight, self.CONFIG, self.cache) == \
            tuple(generate_inputs(other_eight, self.CONFIG))
        assert _inputs_for(other_eight, self.CONFIG, self.cache) != \
            _inputs_for(first, self.CONFIG, self.cache)

    def test_reset_drops_every_input_set(self):
        # Fresh TVCaches are the reset: each driver starts with its own.
        function = parsed("""
define i8 @f(i8 %x) {
  ret i8 %x
}
""").get_function("f")
        before = _inputs_for(function, self.CONFIG, self.cache)
        assert _inputs_for(function, self.CONFIG, self.cache) is before
        after = _inputs_for(function, self.CONFIG, TVCaches().inputs)
        assert after == before and after is not before


PROPERTY_CORPUS = generate_corpus(len(ARCHETYPES), seed=2024)


# The input sets every example of the property below shares, so that a
# warm example sees those of every mutant an earlier example made.
_WARM = [TVCaches().inputs]


def _assert_cache_is_transparent(module, config):
    for function in module.definitions():
        assert _inputs_for(function, config, _WARM[0]) == \
            tuple(generate_inputs(function, config)), function.name


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(file_index=st.integers(0, len(PROPERTY_CORPUS) - 1),
       seed=st.integers(0, 2**31), max_inputs=st.sampled_from([2, 16, 64]),
       cold=st.booleans())
def test_input_cache_is_transparent_on_mutants(file_index, seed, max_inputs,
                                               cold):
    """Cold, or warm with the seed file's own input sets and those of
    every mutant an earlier example made: the cached answer is the one
    ``generate_inputs`` gives for this very function."""
    name, text = PROPERTY_CORPUS[file_index]
    module = parse_module(text, name)
    config = RefinementConfig(max_inputs=max_inputs, seed=seed & 0xFF)
    if cold:
        _WARM[0] = TVCaches().inputs
    else:
        _assert_cache_is_transparent(module, config)
    mutator = Mutator(module, MutatorConfig(max_mutations=4))
    for offset in range(3):
        mutant, _ = mutator.create_mutant(seed + offset)
        _assert_cache_is_transparent(mutant, config)
