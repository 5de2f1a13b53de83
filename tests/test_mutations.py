"""Tests for the individual mutation operators (paper §IV)."""

import pytest

from repro.analysis.overlay import MutantOverlay, OriginalFunctionInfo
from repro.ir import (BinaryOperator, CallInst, CastInst, print_module,
                      verify_module)
from repro.mutate import MutationRNG
from repro.mutate.mutations import (MUTATIONS, arithmetic, attributes,
                                    bitwidth, inlining, move, remove_calls,
                                    shuffle, uses)

from helpers import parsed

TEST9 = """
declare void @clobber(ptr)

define i32 @test9(ptr %p, ptr %q) {
  %a = load i32, ptr %q
  call void @clobber(ptr %p)
  %b = load i32, ptr %q
  %c = sub i32 %a, %b
  ret i32 %c
}
"""


def overlay_for(module, name="test9"):
    original = module.get_function(name)
    info = OriginalFunctionInfo(original)
    mutant_module = module.clone()
    mutant = mutant_module.get_function(name)
    return MutantOverlay(mutant, info), mutant_module


def apply_until(mutation, module, name="test9", max_seeds=200):
    """Apply a mutation with successive seeds until it fires."""
    for seed in range(max_seeds):
        overlay, mutant_module = overlay_for(module, name)
        if mutation(overlay, MutationRNG(seed)):
            verify_module(mutant_module)
            return mutant_module, seed
    raise AssertionError("mutation never applied")


class TestAttributes:
    def test_toggles_something(self):
        module = parsed(TEST9)
        mutated, _ = apply_until(attributes.apply, module)
        original = module.get_function("test9")
        mutant = mutated.get_function("test9")
        changed = (
            original.attributes != mutant.attributes
            or any(a.attributes != b.attributes
                   for a, b in zip(original.arguments, mutant.arguments)))
        assert changed

    def test_many_seeds_always_valid(self):
        module = parsed(TEST9)
        for seed in range(60):
            overlay, mutant_module = overlay_for(module)
            attributes.apply(overlay, MutationRNG(seed))
            verify_module(mutant_module)


class TestRemoveCalls:
    def test_removes_void_call(self):
        module = parsed(TEST9)
        mutated, _ = apply_until(remove_calls.apply, module)
        fn = mutated.get_function("test9")
        assert not any(isinstance(i, CallInst) for i in fn.instructions())

    def test_no_candidates(self):
        module = parsed("""
define i32 @f(i32 %x) {
  ret i32 %x
}
""")
        overlay, _ = overlay_for(module, "f")
        assert not remove_calls.apply(overlay, MutationRNG(0))

    def test_does_not_remove_assume(self):
        module = parsed("""
declare void @llvm.assume(i1)

define i8 @f(i1 %c) {
  call void @llvm.assume(i1 %c)
  ret i8 1
}
""")
        overlay, _ = overlay_for(module, "f")
        assert not remove_calls.apply(overlay, MutationRNG(0))


class TestShuffle:
    def test_reorders_listing8_style(self):
        # The paper's Listing 8: %a, call, %b are mutually independent.
        module = parsed(TEST9)
        mutated, _ = apply_until(shuffle.apply, module)
        fn = mutated.get_function("test9")
        opcodes = [i.opcode for i in fn.blocks[0].instructions]
        assert sorted(opcodes[:3]) == ["call", "load", "load"]
        original_opcodes = [i.opcode for i in
                            module.get_function("test9").blocks[0].instructions]
        assert opcodes != original_opcodes

    def test_no_ranges_no_shuffle(self):
        module = parsed("""
define i32 @f(i32 %x) {
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  %c = xor i32 %b, 3
  ret i32 %c
}
""")
        overlay, _ = overlay_for(module, "f")
        assert not shuffle.apply(overlay, MutationRNG(0))


class TestArithmetic:
    def test_opcode_change(self):
        module = parsed(TEST9)
        mutated, _ = apply_until(arithmetic.change_opcode, module)
        fn = mutated.get_function("test9")
        binops = [i for i in fn.instructions()
                  if isinstance(i, BinaryOperator)]
        assert binops[0].opcode != "sub"

    def test_opcode_change_clears_invalid_flags(self):
        module = parsed("""
define i32 @f(i32 %x) {
  %r = add nuw nsw i32 %x, 1
  ret i32 %r
}
""")
        for seed in range(100):
            overlay, mutant_module = overlay_for(module, "f")
            if arithmetic.change_opcode(overlay, MutationRNG(seed)):
                verify_module(mutant_module)

    def test_swap_operands(self):
        module = parsed(TEST9)
        mutated, _ = apply_until(arithmetic.swap_operands, module)
        fn = mutated.get_function("test9")
        sub = [i for i in fn.instructions()
               if isinstance(i, BinaryOperator)]
        if sub and sub[0].opcode == "sub":
            assert sub[0].lhs.name == "b" or sub[0].rhs.name == "a"

    def test_toggle_flags(self):
        module = parsed("""
define i32 @f(i32 %x) {
  %r = add i32 %x, 1
  ret i32 %r
}
""")
        mutated, _ = apply_until(arithmetic.toggle_flags, module, "f")
        inst = mutated.get_function("f").blocks[0].instructions[0]
        assert inst.nuw or inst.nsw

    def test_replace_constant(self):
        module = parsed("""
define i32 @f(i32 %x) {
  %r = add i32 %x, 1000
  ret i32 %r
}
""")
        changed = 0
        for seed in range(40):
            overlay, mutant_module = overlay_for(module, "f")
            if arithmetic.replace_constant(overlay, MutationRNG(seed)):
                verify_module(mutant_module)
                inst = mutant_module.get_function("f").blocks[0].instructions[0]
                from repro.ir import ConstantInt

                if isinstance(inst.rhs, ConstantInt) and inst.rhs.value != 1000:
                    changed += 1
        assert changed > 10

    def test_change_predicate(self):
        module = parsed("""
define i1 @f(i32 %x) {
  %r = icmp eq i32 %x, 0
  ret i1 %r
}
""")
        mutated, _ = apply_until(arithmetic.change_predicate, module, "f")
        inst = mutated.get_function("f").blocks[0].instructions[0]
        assert inst.predicate != "eq"


class TestUses:
    def test_replaces_a_use(self):
        module = parsed(TEST9)
        for seed in range(50):
            overlay, mutant_module = overlay_for(module)
            if uses.apply(overlay, MutationRNG(seed)):
                verify_module(mutant_module)

    def test_can_add_fresh_parameter(self):
        # Paper Listing 11: replacement may come from a fresh parameter.
        module = parsed(TEST9)
        found = False
        for seed in range(300):
            overlay, mutant_module = overlay_for(module)
            if uses.apply(overlay, MutationRNG(seed)):
                verify_module(mutant_module)
                if mutant_module.get_function("test9").num_args() > 2:
                    found = True
                    break
        assert found

    def test_can_create_fresh_instruction(self):
        # Paper Listing 10: replacement may be a fresh generated op.
        module = parsed(TEST9)
        found = False
        for seed in range(300):
            overlay, mutant_module = overlay_for(module)
            before = module.get_function("test9").num_instructions()
            if uses.apply(overlay, MutationRNG(seed)):
                verify_module(mutant_module)
                if mutant_module.get_function("test9").num_instructions() > before:
                    found = True
                    break
        assert found


class TestMove:
    def test_moves_and_repairs(self):
        module = parsed(TEST9)
        moved = False
        for seed in range(100):
            overlay, mutant_module = overlay_for(module)
            if move.apply(overlay, MutationRNG(seed)):
                verify_module(mutant_module)
                moved = True
        assert moved

    def test_move_up_replaces_operands(self):
        # Moving %c to the top forces both its uses to be repaired
        # (paper Listing 12).
        module = parsed(TEST9)
        for seed in range(400):
            overlay, mutant_module = overlay_for(module)
            if move.apply(overlay, MutationRNG(seed)):
                verify_module(mutant_module)
                fn = mutant_module.get_function("test9")
                first = fn.blocks[0].instructions[0]
                if first.opcode == "sub":
                    return
        pytest.skip("move-to-top never selected in 400 seeds")


class TestBitwidth:
    def test_changes_width_of_path(self):
        module = parsed("""
define i32 @f(i32 %a, i32 %b) {
  %c = sub i32 %a, %b
  ret i32 %c
}
""")
        mutated, _ = apply_until(bitwidth.apply, module, "f")
        fn = mutated.get_function("f")
        casts = [i for i in fn.instructions() if isinstance(i, CastInst)]
        assert casts, print_module(mutated)
        widths = {i.type.width for i in fn.instructions()
                  if i.type.IS_INTEGER}
        assert widths - {32}, "no new width introduced"

    def test_no_polymorphic_roots(self):
        module = parsed("""
define i1 @f(i32 %x) {
  %r = icmp eq i32 %x, 0
  ret i1 %r
}
""")
        overlay, _ = overlay_for(module, "f")
        assert not bitwidth.apply(overlay, MutationRNG(0))

    def test_always_valid(self):
        module = parsed("""
define i32 @f(i32 %a, i32 %b) {
  %c = sub i32 %a, %b
  %d = mul i32 %c, %a
  %e = add i32 %d, %b
  ret i32 %e
}
""")
        for seed in range(60):
            overlay, mutant_module = overlay_for(module, "f")
            bitwidth.apply(overlay, MutationRNG(seed))
            verify_module(mutant_module)


class TestInlining:
    MULTI = """
declare void @clobber(ptr)

define void @helper(ptr %ptr) {
  store i32 42, ptr %ptr
  ret void
}

define i32 @test9(ptr %p, ptr %q) {
  %a = load i32, ptr %q
  call void @clobber(ptr %p)
  %b = load i32, ptr %q
  %c = sub i32 %a, %b
  ret i32 %c
}
"""

    def test_inlines_other_function(self):
        # Paper Listing 6: the call to @clobber is replaced by @helper's
        # body (a store).
        module = parsed(self.MULTI)
        mutated, _ = apply_until(inlining.apply, module)
        fn = mutated.get_function("test9")
        opcodes = [i.opcode for i in fn.instructions()]
        assert "store" in opcodes
        assert "call" not in opcodes

    def test_no_candidates_no_change(self):
        module = parsed(TEST9)  # only @clobber, a declaration
        overlay, _ = overlay_for(module)
        assert not inlining.apply(overlay, MutationRNG(0))


class TestCatalog:
    def test_all_eight_mutations_registered(self):
        assert set(MUTATIONS) == {
            "attributes", "inlining", "remove-call", "shuffle",
            "arithmetic", "uses", "move", "bitwidth",
        }
