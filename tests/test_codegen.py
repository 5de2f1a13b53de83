"""Tests for the codegen-lowering pass (the backend substitute)."""

import pytest

from repro.ir import (BinaryOperator, CallInst, SelectInst, parse_module,
                      verify_module)
from repro.tv import Verdict

from helpers import assert_sound, optimize, parsed


def lowered(text: str):
    module = parsed(text)
    optimized, ctx = optimize(module, "backend")
    assert_sound(module, "backend")
    return optimized.definitions()[0], ctx


class TestIntrinsicExpansion:
    def test_abs_expands(self):
        fn, _ = lowered("""
declare i8 @llvm.abs.i8(i8, i1)

define i8 @f(i8 %x) {
  %r = call i8 @llvm.abs.i8(i8 %x, i1 false)
  ret i8 %r
}
""")
        opcodes = [i.opcode for i in fn.instructions()]
        assert "call" not in opcodes
        assert "ashr" in opcodes and "xor" in opcodes and "sub" in opcodes

    def test_abs_int_min_poison_keeps_nsw(self):
        fn, _ = lowered("""
declare i8 @llvm.abs.i8(i8, i1)

define i8 @f(i8 %x) {
  %r = call i8 @llvm.abs.i8(i8 %x, i1 true)
  ret i8 %r
}
""")
        subs = [i for i in fn.instructions()
                if isinstance(i, BinaryOperator) and i.opcode == "sub"]
        assert subs and subs[0].nsw

    def test_usub_sat_expands(self):
        fn, _ = lowered("""
declare i8 @llvm.usub.sat.i8(i8, i8)

define i8 @f(i8 %x, i8 %y) {
  %r = call i8 @llvm.usub.sat.i8(i8 %x, i8 %y)
  ret i8 %r
}
""")
        assert any(isinstance(i, SelectInst) for i in fn.instructions())

    def test_uadd_sat_expands(self):
        fn, _ = lowered("""
declare i8 @llvm.uadd.sat.i8(i8, i8)

define i8 @f(i8 %x, i8 %y) {
  %r = call i8 @llvm.uadd.sat.i8(i8 %x, i8 %y)
  ret i8 %r
}
""")
        assert any(isinstance(i, SelectInst) for i in fn.instructions())

    def test_abs_expansion_cse(self):
        fn, ctx = lowered("""
declare i8 @llvm.abs.i8(i8, i1)

define i8 @f(i8 %x) {
  %a = call i8 @llvm.abs.i8(i8 %x, i1 false)
  %b = call i8 @llvm.abs.i8(i8 %x, i1 false)
  %r = add i8 %a, %b
  ret i8 %r
}
""")
        subs = [i for i in fn.instructions() if i.opcode == "sub"]
        assert len(subs) == 1  # second expansion reused the first


class TestBooleanLowering:
    def test_zext_i1_to_select(self):
        fn, _ = lowered("""
define i8 @f(i1 %b) {
  %r = zext i1 %b to i8
  ret i8 %r
}
""")
        selects = [i for i in fn.instructions() if isinstance(i, SelectInst)]
        assert selects
        assert selects[0].true_value.value == 1
        assert selects[0].false_value.value == 0

    def test_zero_width_extract_folds_to_zero(self):
        fn, _ = lowered("""
define i64 @f(i1 %b) {
  %1 = zext i1 %b to i64
  %2 = lshr i64 %1, 1
  ret i64 %2
}
""")
        ret_value = fn.blocks[0].terminator().return_value
        assert ret_value.value == 0


class TestIdiomMatching:
    def test_rotate_matched_to_fshl(self):
        fn, _ = lowered("""
define i32 @f(i32 %x) {
  %hi = shl i32 %x, 5
  %lo = lshr i32 %x, 27
  %r = or i32 %hi, %lo
  ret i32 %r
}
""")
        calls = [i for i in fn.instructions() if isinstance(i, CallInst)]
        assert calls and calls[0].intrinsic_name() == "llvm.fshl"

    def test_bswap_hword_matched(self):
        fn, _ = lowered("""
define i16 @f(i16 %x) {
  %hi = shl i16 %x, 8
  %lo = lshr i16 %x, 8
  %r = or i16 %hi, %lo
  ret i16 %r
}
""")
        calls = [i for i in fn.instructions() if isinstance(i, CallInst)]
        assert calls and calls[0].intrinsic_name() == "llvm.bswap"

    def test_non_byte_rotate_not_bswap(self):
        fn, _ = lowered("""
define i16 @f(i16 %x) {
  %hi = shl i16 %x, 4
  %lo = lshr i16 %x, 12
  %r = or i16 %hi, %lo
  ret i16 %r
}
""")
        calls = [i for i in fn.instructions() if isinstance(i, CallInst)]
        assert calls and calls[0].intrinsic_name() == "llvm.fshl"

    def test_shl_shl_overflow_to_zero(self):
        fn, _ = lowered("""
define i8 @f(i8 %x) {
  %a = shl i8 %x, 5
  %b = shl i8 %a, 5
  %r = or i8 %b, 1
  ret i8 %r
}
""")
        ors = [i for i in fn.instructions() if i.opcode == "or"]
        assert ors and ors[0].lhs.value == 0

    def test_urem_pow2_to_mask(self):
        fn, _ = lowered("""
define i8 @f(i8 %x) {
  %r = urem i8 %x, 32
  ret i8 %r
}
""")
        ands = [i for i in fn.instructions() if i.opcode == "and"]
        assert ands and ands[0].rhs.value == 31

    def test_bitfield_extract_mask_dropped_at_boundary(self):
        fn, _ = lowered("""
define i8 @f(i8 %x) {
  %s = lshr i8 %x, 4
  %r = and i8 %s, 15
  ret i8 %r
}
""")
        # shift 4 + 4 mask bits == width: the mask is redundant.
        assert not any(i.opcode == "and" for i in fn.instructions())


class TestWidthPromotion:
    @pytest.mark.parametrize("op", ["add", "mul", "urem", "sdiv", "srem"])
    def test_odd_width_promotes_soundly(self, op):
        module = parsed(f"""
define i26 @f(i26 %x, i26 %y) {{
  %r = {op} i26 %x, %y
  ret i26 %r
}}
""")
        optimized, _ = optimize(module, "backend")
        fn = optimized.get_function("f")
        widths = {i.type.width for i in fn.instructions()
                  if i.type.IS_INTEGER}
        assert 32 in widths
        assert_sound(module, "backend")

    def test_legal_width_left_alone(self):
        module = parsed("""
define i32 @f(i32 %x, i32 %y) {
  %r = add i32 %x, %y
  ret i32 %r
}
""")
        optimized, ctx = optimize(module, "backend")
        assert optimized.get_function("f").num_instructions() == 2

    def test_signed_constants_sign_extend(self):
        module = parsed("""
define i7 @f(i7 %x) {
  %r = sdiv i7 %x, -3
  ret i7 %r
}
""")
        optimized, _ = optimize(module, "backend")
        fn = optimized.get_function("f")
        divs = [i for i in fn.instructions() if i.opcode == "sdiv"]
        assert divs and divs[0].rhs.signed_value() == -3
        assert_sound(module, "backend")


class TestFullBackendPipelineSoundness:
    @pytest.mark.parametrize("index", range(12))
    def test_corpus_files_sound_through_backend(self, index):
        from repro.fuzz.seeds import generate_corpus
        from repro.tv import RefinementConfig, check_module_refinement

        name, text = generate_corpus(12, seed=77)[index]
        module = parse_module(text, name)
        optimized, _ = optimize(module, "O2+backend")
        verify_module(optimized)
        results = check_module_refinement(
            module, optimized, RefinementConfig(max_inputs=24))
        for fn_name, result in results.items():
            assert result.verdict != Verdict.UNSOUND, \
                f"{name} @{fn_name}: {result.counterexample}"
