"""Tests for KnownBits and value tracking, including a property-based
soundness check against the concrete interpreter semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.knownbits import (KnownBits, compute_known_bits,
                                      compute_num_sign_bits,
                                      is_known_non_negative,
                                      is_known_non_zero)

from helpers import single_function


def known_of(text: str, value_name: str):
    fn = single_function(text)
    for inst in fn.instructions():
        if inst.name == value_name:
            return compute_known_bits(inst), fn
    raise AssertionError(f"%{value_name} not found")


class TestKnownBitsBasics:
    def test_constant(self):
        known = KnownBits.constant(8, 0b1010)
        assert known.is_constant()
        assert known.constant_value() == 0b1010

    def test_unknown(self):
        known = KnownBits.unknown(8)
        assert not known.is_constant()
        assert known.min_unsigned() == 0
        assert known.max_unsigned() == 255

    def test_conflict_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            KnownBits(8, zero=1, one=1)

    def test_admits(self):
        known = KnownBits(8, zero=0b1, one=0b10)
        assert known.admits(0b10)
        assert known.admits(0b110)
        assert not known.admits(0b11)   # bit0 must be 0
        assert not known.admits(0b100)  # bit1 must be 1

    def test_and_or_xor_operators(self):
        a = KnownBits.constant(4, 0b1100)
        b = KnownBits.constant(4, 0b1010)
        assert (a & b).constant_value() == 0b1000
        assert (a | b).constant_value() == 0b1110
        assert (a ^ b).constant_value() == 0b0110

    def test_intersect(self):
        a = KnownBits.constant(4, 0b1100)
        b = KnownBits.constant(4, 0b1000)
        merged = a.intersect(b)
        assert merged.one == 0b1000
        assert merged.admits(0b1100) and merged.admits(0b1000)


class TestInstructionFacts:
    def test_and_with_mask(self):
        known, _ = known_of("""
define i8 @f(i8 %x) {
  %r = and i8 %x, 15
  ret i8 %r
}
""", "r")
        assert known.zero == 0xF0

    def test_or_sets_bits(self):
        known, _ = known_of("""
define i8 @f(i8 %x) {
  %r = or i8 %x, 128
  ret i8 %r
}
""", "r")
        assert known.one == 0x80
        assert known.is_negative()

    def test_zext_clears_high_bits(self):
        known, _ = known_of("""
define i32 @f(i8 %x) {
  %r = zext i8 %x to i32
  ret i32 %r
}
""", "r")
        assert known.zero == 0xFFFFFF00
        assert known.is_non_negative()

    def test_shl_constant(self):
        known, _ = known_of("""
define i8 @f(i8 %x) {
  %r = shl i8 %x, 4
  ret i8 %r
}
""", "r")
        assert known.zero & 0xF == 0xF

    def test_lshr_constant(self):
        known, _ = known_of("""
define i8 @f(i8 %x) {
  %r = lshr i8 %x, 4
  ret i8 %r
}
""", "r")
        assert known.zero == 0xF0

    def test_add_ripple(self):
        known, _ = known_of("""
define i8 @f(i8 %x) {
  %hi = and i8 %x, 240
  %r = add i8 %hi, 3
  ret i8 %r
}
""", "r")
        # Low nibble of %hi is 0, so low nibble of the sum is exactly 3.
        assert known.one & 0xF == 3
        assert known.zero & 0xF == 0xC

    def test_urem_bound(self):
        known, _ = known_of("""
define i8 @f(i8 %x) {
  %r = urem i8 %x, 8
  ret i8 %r
}
""", "r")
        assert known.max_unsigned() < 16

    def test_select_intersection(self):
        known, _ = known_of("""
define i8 @f(i1 %c, i8 %x) {
  %a = and i8 %x, 12
  %b = and i8 %x, 10
  %r = select i1 %c, i8 %a, i8 %b
  ret i8 %r
}
""", "r")
        # Both arms have bits 0 and top nibble clear.
        assert known.zero & 0xF1 == 0xF1


class TestDerivedPredicates:
    def test_non_zero_via_or(self):
        fn = single_function("""
define i8 @f(i8 %x) {
  %r = or i8 %x, 1
  ret i8 %r
}
""")
        inst = fn.blocks[0].instructions[0]
        assert is_known_non_zero(inst)

    def test_non_negative_via_zext(self):
        fn = single_function("""
define i32 @f(i8 %x) {
  %r = zext i8 %x to i32
  ret i32 %r
}
""")
        inst = fn.blocks[0].instructions[0]
        assert is_known_non_negative(inst)

    def test_sign_bits_of_sext(self):
        fn = single_function("""
define i32 @f(i8 %x) {
  %r = sext i8 %x to i32
  ret i32 %r
}
""")
        inst = fn.blocks[0].instructions[0]
        assert compute_num_sign_bits(inst) >= 25

    def test_sign_bits_of_ashr(self):
        fn = single_function("""
define i32 @f(i32 %x) {
  %r = ashr i32 %x, 8
  ret i32 %r
}
""")
        inst = fn.blocks[0].instructions[0]
        assert compute_num_sign_bits(inst) >= 9


# ---------------------------------------------------------------------------
# Property: facts claimed by KnownBits hold for every concrete execution.
# ---------------------------------------------------------------------------

TEMPLATE = """
define i8 @f(i8 %x, i8 %y) {{
  %m = and i8 %x, {mask1}
  %n = or i8 %y, {set1}
  %a = {op1} i8 %m, %n
  %b = {op2} i8 %a, {const}
  ret i8 %b
}}
"""

OPS = ["add", "sub", "mul", "and", "or", "xor"]


@settings(max_examples=120, deadline=None)
@given(
    mask1=st.integers(0, 255),
    set1=st.integers(0, 255),
    const=st.integers(0, 255),
    op1=st.sampled_from(OPS),
    op2=st.sampled_from(OPS),
    x=st.integers(0, 255),
    y=st.integers(0, 255),
)
def test_known_bits_sound_on_concrete_runs(mask1, set1, const, op1, op2, x, y):
    from repro.ir import parse_module
    from repro.tv import Interpreter

    module = parse_module(TEMPLATE.format(
        mask1=mask1, set1=set1, const=const, op1=op1, op2=op2))
    fn = module.get_function("f")
    facts = {inst.name: compute_known_bits(inst)
             for inst in fn.instructions()
             if inst.name and inst.type.IS_INTEGER}
    result = Interpreter(module).run(fn, [x, y])
    # Cross-check the intermediate facts against a hand-rolled evaluation.
    concrete = {"m": x & mask1, "n": y | set1}
    ops = {"add": lambda a, b: (a + b) & 255,
           "sub": lambda a, b: (a - b) & 255,
           "mul": lambda a, b: (a * b) & 255,
           "and": lambda a, b: a & b,
           "or": lambda a, b: a | b,
           "xor": lambda a, b: a ^ b}
    concrete["a"] = ops[op1](concrete["m"], concrete["n"])
    concrete["b"] = ops[op2](concrete["a"], const)
    for name, value in concrete.items():
        assert facts[name].admits(value), (name, facts[name], value)
    # The interpreter agrees with the hand evaluation, too.
    assert result == concrete["b"]
