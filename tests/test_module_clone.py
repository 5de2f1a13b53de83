"""Tests for deep module cloning — the heart of the per-mutant copy."""

import gc
import weakref

from repro.fuzz import FuzzConfig, FuzzDriver
from repro.ir import (BasicBlock, CallInst, Constant, Instruction, Module,
                      PhiNode, clone_functions_into, parse_module, print_module,
                      verify_module)
from repro.mutate import MutatorConfig
from repro.tv import RefinementConfig

from helpers import block_function, parsed

COMPLEX = """
declare void @clobber(ptr)

define void @helper(ptr %ptr) {
  store i32 1, ptr %ptr
  ret void
}

define i32 @f(i1 %c, i32 %n, ptr %p) {
entry:
  call void @helper(ptr %p)
  br i1 %c, label %loop, label %exit

loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %next = add nuw i32 %i, 1
  call void @clobber(ptr %p)
  %done = icmp uge i32 %next, %n
  br i1 %done, label %exit, label %loop

exit:
  %r = phi i32 [ 0, %entry ], [ %next, %loop ]
  ret i32 %r
}
"""


class TestClone:
    def test_clone_verifies_and_prints_identically(self):
        module = parsed(COMPLEX)
        clone = module.clone()
        verify_module(clone)
        assert print_module(clone) == print_module(module)

    def test_clone_is_fully_detached(self):
        module = parsed(COMPLEX)
        clone = module.clone()
        original_ids = {id(i) for f in module.definitions()
                        for i in f.instructions()}
        for fn in clone.definitions():
            for inst in fn.instructions():
                assert id(inst) not in original_ids
                for operand in inst.operands:
                    if isinstance(operand, (Instruction, BasicBlock)):
                        assert id(operand) not in original_ids

    def test_mutating_clone_leaves_original_alone(self):
        module = parsed(COMPLEX)
        before = print_module(module)
        clone = module.clone()
        fn = clone.get_function("f")
        for inst in list(fn.instructions()):
            if inst.opcode == "add":
                inst.nuw = False
        assert print_module(module) == before

    def test_calls_remap_to_cloned_callees(self):
        module = parsed(COMPLEX)
        clone = module.clone()
        fn = clone.get_function("f")
        calls = [i for i in fn.instructions() if isinstance(i, CallInst)]
        helper_call = [c for c in calls if c.callee.name == "helper"][0]
        assert helper_call.callee is clone.get_function("helper")
        assert helper_call.callee is not module.get_function("helper")

    def test_phi_forward_references_remap(self):
        module = parsed(COMPLEX)
        clone = module.clone()
        fn = clone.get_function("f")
        loop = fn.block_named("loop")
        phi = loop.instructions[0]
        assert isinstance(phi, PhiNode)
        incoming_next = phi.incoming_value_for(loop)
        assert incoming_next is loop.instructions[1]

    def test_attributes_copied_not_shared(self):
        from repro.ir import Attribute

        module = parsed(COMPLEX)
        clone = module.clone()
        clone.get_function("f").attributes.add(Attribute("nofree"))
        assert not module.get_function("f").attributes.has("nofree")

    def test_clone_of_clone(self):
        module = parsed(COMPLEX)
        second = module.clone().clone()
        verify_module(second)
        assert print_module(second) == print_module(module)


class TestCowClone:
    """Copy-on-write cloning: shared views must be indistinguishable."""

    def test_cow_clone_prints_like_deep_clone(self):
        module = parsed(COMPLEX)
        for mutable in (set(), {"f"}, {"helper"}, {"f", "helper"}):
            cow = module.clone(mutable_only=mutable)
            assert print_module(cow) == print_module(module.clone())

    def test_shared_functions_are_views_not_copies(self):
        module = parsed(COMPLEX)
        cow = module.clone(mutable_only={"f"})
        assert cow.get_function("helper") is module.get_function("helper")
        assert cow.get_function("clobber") is module.get_function("clobber")
        assert cow.get_function("f") is not module.get_function("f")
        assert cow.shared_names() == {"helper", "clobber"}

    def test_shared_functions_keep_their_parent(self):
        module = parsed(COMPLEX)
        cow = module.clone(mutable_only={"f"})
        assert module.get_function("helper").parent is module
        # Dropping the view from the CoW clone must not orphan the
        # original's function.
        cow.remove_function("helper")
        assert cow.get_function("helper") is None
        assert module.get_function("helper").parent is module

    def test_mutable_calls_do_not_alias_into_original(self):
        module = parsed(COMPLEX)
        cow = module.clone(mutable_only={"f"})
        fn = cow.get_function("f")
        calls = [i for i in fn.instructions() if isinstance(i, CallInst)]
        helper_call = [c for c in calls if c.callee.name == "helper"][0]
        # The copied caller may point at the shared view (same object as
        # the original's helper) — that is the whole point of CoW — but
        # mutating the copied body must never touch the original.
        assert helper_call.callee is cow.get_function("helper")

    def test_mutating_cow_mutants_never_corrupts_seed(self):
        from repro.mutate import Mutator, MutatorConfig

        module = parsed(COMPLEX)
        before = print_module(module)
        mutator = Mutator(module, MutatorConfig(max_mutations=3))
        for seed in range(25):
            mutant, record = mutator.create_mutant(seed)
            assert print_module(module) == before, (
                f"seed {seed} ({record.applied}) leaked into the original"
            )
            verify_module(mutant)

    def test_cow_mutant_matches_deep_mutant(self):
        from repro.mutate import Mutator, MutatorConfig

        for seed in range(25):
            cow_mutator = Mutator(
                parsed(COMPLEX), MutatorConfig(max_mutations=3)
            )
            # The same engine over a seed whose clone() ignores
            # ``mutable_only``: every mutant is a full deep copy.
            deep_seed = parsed(COMPLEX)
            deep_seed.clone = lambda mutable_only=None, seed=deep_seed: \
                Module.clone(seed)
            deep_mutator = Mutator(deep_seed, MutatorConfig(max_mutations=3))
            cow_mutant, cow_record = cow_mutator.create_mutant(seed)
            deep_mutant, deep_record = deep_mutator.create_mutant(seed)
            assert not deep_mutant.shared_names()
            assert print_module(cow_mutant) == print_module(deep_mutant)
            assert cow_record.applied == deep_record.applied
            assert cow_record.functions_copied == \
                len(cow_mutator.target_names)

    def test_clone_functions_into_renames(self):
        from repro.ir import clone_functions_into

        module = parsed(COMPLEX)
        dest = module.clone(mutable_only=set())
        dest.remove_function("helper")
        copies = clone_functions_into(
            {"helper": module.get_function("helper"),
             "helper2": module.get_function("helper")},
            dest,
        )
        assert set(copies) == {"helper", "helper2"}
        assert dest.get_function("helper2").name == "helper2"
        verify_module(dest)
        # Both splices are detached copies of the same source.
        source = module.get_function("helper")
        for name in ("helper", "helper2"):
            spliced = dest.get_function(name)
            assert spliced is not source
            assert spliced.arguments[0] is not source.arguments[0]


def _source_values(module):
    """Every argument, block, instruction and operand of ``module``."""
    values = []
    for function in module.functions():
        values.extend(function.arguments)
        for block in function.blocks:
            values.append(block)
            for inst in block.instructions:
                values.append(inst)
                values.extend(inst.operands)
    return values


def _use_lists(module):
    """(value, its Use objects in order) for every value of ``module``;
    holding the Use objects keeps their identity meaningful."""
    return [(value, value.uses) for value in _source_values(module)]


def _assert_use_lists_unchanged(before):
    for value, uses in before:
        now = value.uses
        assert len(now) == len(uses) and all(
            a is b for a, b in zip(now, uses)), value


class TestSourceUntouched:
    """Cloning only reads its source, and fuzzing leaks nothing into it.

    Clones share constants (and, copy-on-write, whole functions) with
    their source, so any use a clone registers there survives the clone:
    it makes the shared view mutable and keeps the clone alive.
    """

    def test_clone_leaves_every_source_use_list_unchanged(self):
        for text in (COMPLEX, block_function(blocks=6)):
            module = parsed(text)
            names = {f.name for f in module.definitions()}
            for mutable in (None, set(), names):
                before = _use_lists(module)
                module.clone(mutable_only=mutable)
                _assert_use_lists_unchanged(before)

    def test_clone_functions_into_leaves_source_use_lists_unchanged(self):
        module = parsed(COMPLEX)
        before = _use_lists(module)
        clone_functions_into(
            {"f": module.get_function("f"),
             "helper": module.get_function("helper"),
             "helper2": module.get_function("helper")},
            parse_module("declare void @clobber(ptr)"))
        _assert_use_lists_unchanged(before)

    def test_constants_keep_no_uses(self):
        module = parsed(COMPLEX)
        constants = [value for value in _source_values(module)
                     if isinstance(value, Constant)]
        assert constants
        assert all(c.num_uses() == 0 and not c.uses for c in constants)

    def test_fuzzing_leaves_seed_constants_alone_and_frees_mutants(self):
        module = parse_module(block_function(blocks=8))
        constants = [value for value in _source_values(module)
                     if isinstance(value, Constant)]
        counts = [constant.num_uses() for constant in constants]
        driver = FuzzDriver(module, FuzzConfig(
            mutator=MutatorConfig(max_mutations=2),
            tv=RefinementConfig(max_inputs=4)))
        mutants = []
        create = driver.mutator.create_mutant

        def spy(seed, operators=None):
            mutant, record = create(seed, operators)
            # A mutant that declared an intrinsic stays reachable for as
            # long as the optimize memo keeps a body calling it: the
            # declaration's parent is the mutant module.  Watch the rest.
            if len(mutant) == len(module):
                mutants.extend(weakref.ref(function)
                               for function in mutant.definitions()
                               if function.parent is mutant)
            return mutant, record

        driver.mutator.create_mutant = spy
        driver.run(iterations=20)
        gc.collect()
        assert [constant.num_uses() for constant in constants] == counts
        assert len(mutants) >= 10
        assert all(ref() is None for ref in mutants)
