"""The scan passes against the loop they replaced, and the known-bits
memo against the uncached recursion.

constfold / instsimplify / instcombine used to re-sweep every
instruction until a sweep changed nothing; now only the first sweep of a
whole-function run visits everything and later sweeps visit what the
rewrites affected.  The old loops live on here, verbatim, as reference
passes.  Over the generated corpus, a 40-block dataflow-local function
and random mutants — with all 33 seeded bugs armed and with none — each
pass alone and the ``O2`` pipeline must produce the same printed IR,
``ctx.stats``, ``ctx.triggered_bugs`` and :class:`OptimizerCrash`.

The same runs use a memo that recomputes every lookup without a memo and
compares, and rules wrapped to assert that returning ``None`` left the
function as it was — what emptying the memo *per rewrite* rests on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.knownbits import KnownBitsMemo, compute_known_bits
from repro.fuzz import generate_corpus
from repro.ir import parse_module, print_module
from repro.ir.instructions import CallInst, Instruction, SelectInst
from repro.ir.printer import print_function
from repro.ir.values import PoisonValue
from repro.mutate import Mutator, MutatorConfig
from repro.opt import (OptContext, OptimizerCrash, PassManager, RewriteRule,
                       RuleIndex, all_bug_ids, create_pass, pass_manager,
                       scan)
from repro.opt.fold import fold_instruction
from repro.opt.pass_manager import FunctionPass, replace_and_erase
from repro.opt.passes import instcombine
from repro.opt.passes.dce import is_trivially_dead
from repro.opt.passes.instsimplify import simplify_instruction

from helpers import block_function

SCAN_PASSES = ("constfold", "instsimplify", "instcombine")
BUG_SETS = ((), tuple(all_bug_ids()))


# -- the reference: revisit everything until a sweep changes nothing ---------


class ResweepConstantFolding(FunctionPass):
    name = "constfold"

    def run_on_function(self, function, ctx):
        changed = True
        any_change = False
        while changed:
            changed = False
            for block in function.blocks:
                for inst in list(block.instructions):
                    if inst.parent is None:
                        continue
                    if ctx.bug_enabled("56945") and isinstance(inst, CallInst) \
                            and inst.is_intrinsic() \
                            and any(isinstance(a, PoisonValue) for a in inst.args):
                        ctx.crash("56945",
                                  "dyn_cast<ConstantInt> on poison operand")
                    if ctx.bug_enabled("56981") and isinstance(inst, SelectInst) \
                            and isinstance(inst.condition, PoisonValue):
                        ctx.crash("56981",
                                  "assert(isa<ConstantInt>(Cond)) is too strong")
                    folded = fold_instruction(inst)
                    if folded is not None:
                        replace_and_erase(inst, folded)
                        ctx.count("constfold.folded")
                        changed = True
                        any_change = True
        return any_change


class ResweepInstSimplify(FunctionPass):
    name = "instsimplify"

    def run_on_function(self, function, ctx):
        changed = True
        any_change = False
        while changed:
            changed = False
            for block in function.blocks:
                for inst in list(block.instructions):
                    if inst.parent is None or inst.type.IS_VOID \
                            or inst.IS_TERMINATOR:
                        continue
                    simplified = simplify_instruction(inst, ctx)
                    if simplified is not None and simplified is not inst:
                        replace_and_erase(inst, simplified)
                        ctx.count("instsimplify.simplified")
                        changed = True
                        any_change = True
        return any_change


class ResweepInstCombine(FunctionPass):
    name = "instcombine"

    def run_on_function(self, function, ctx):
        combine = instcombine.CombineContext(function, ctx)
        index = instcombine.rule_index()
        any_change = False
        for _ in range(instcombine.MAX_ITERATIONS):
            changed = False
            for block in function.blocks:
                for inst in list(block.instructions):
                    if inst.parent is None:
                        continue
                    if inst.IS_TERMINATOR:
                        continue
                    simplified = None
                    if not inst.type.IS_VOID:
                        simplified = simplify_instruction(inst, ctx)
                    if simplified is not None and simplified is not inst:
                        replace_and_erase(inst, simplified)
                        ctx.count("instcombine.simplified")
                        changed = True
                        continue
                    for entry in index.rules_for(inst.opcode):
                        result = entry.fn(inst, combine)
                        if result is None:
                            continue
                        ctx.count(f"instcombine.rule.{entry.name}")
                        changed = True
                        if result is not inst:
                            replace_and_erase(inst, result)
                        break
            if changed:
                self._erase_trivially_dead(function, ctx)
            any_change = any_change or changed
            if not changed:
                break
        return any_change

    @staticmethod
    def _erase_trivially_dead(function, ctx):
        worklist = list(function.instructions())
        while worklist:
            inst = worklist.pop()
            if inst.parent is None or not is_trivially_dead(inst):
                continue
            operands = [op for op in inst.operands
                        if isinstance(op, Instruction)]
            inst.erase_from_parent()
            ctx.count("instcombine.dead")
            worklist.extend(operands)


REFERENCE = {cls.name: cls for cls in (ResweepConstantFolding,
                                       ResweepInstSimplify,
                                       ResweepInstCombine)}


# -- the checks that ride along ----------------------------------------------


class RecomputingMemo(KnownBitsMemo):
    """Answers like the memo, after checking the answer uncached."""

    __slots__ = ()

    def lookup(self, inst, depth):
        known = super().lookup(inst, depth)
        fresh = compute_known_bits(inst, depth)
        assert (known.width, known.zero, known.one) == \
            (fresh.width, fresh.zero, fresh.one), (inst, depth)
        return known


def _leaves_function_alone_on_none(entry):
    def fn(inst, combine):
        before = print_function(combine.function)
        result = entry.fn(inst, combine)
        if result is None:
            assert print_function(combine.function) == before, entry.name
        return result
    return RewriteRule(entry.name, fn, entry.opcodes)


def install_checks(monkeypatch, guard_rules=True):
    """Run the new passes with the recomputing memo and, unless the
    function is too big to print around every rule tried, guarded rules."""
    monkeypatch.setattr(scan, "KnownBitsMemo", RecomputingMemo)
    if guard_rules:
        monkeypatch.setattr(instcombine, "_INDEX", RuleIndex(
            [_leaves_function_alone_on_none(entry)
             for entry in instcombine.all_rules()]))


@pytest.fixture
def checked(monkeypatch):
    install_checks(monkeypatch)


# -- running one side --------------------------------------------------------


def outcome(module, run, bugs):
    """(printed IR, stats, triggered bugs, crash identity) of ``run`` on
    every definition of a clone, function-major, stopping at a crash."""
    clone = module.clone()
    stats, triggered, crash = {}, set(), None
    for function in clone.definitions():
        ctx = OptContext(bugs)
        try:
            run(function, ctx)
        except OptimizerCrash as error:
            crash = (error.bug_id, error.message)
        for stat, amount in ctx.stats.items():
            stats[stat] = stats.get(stat, 0) + amount
        triggered |= ctx.triggered_bugs
        if crash is not None:
            break
    return print_module(clone), stats, triggered, crash


def assert_same_as_resweep(module, monkeypatch):
    for bugs in BUG_SETS:
        for name in SCAN_PASSES:
            got = outcome(module, create_pass(name).run_on_function, bugs)
            want = outcome(module, REFERENCE[name]().run_on_function, bugs)
            assert got == want, (name, bugs)
        got = outcome(module, PassManager(["O2"]).run_function, bugs)
        with monkeypatch.context() as patch:
            for name, cls in REFERENCE.items():
                patch.setitem(pass_manager._REGISTRY, name, cls)
            reference = PassManager(["O2"])
        want = outcome(module, reference.run_function, bugs)
        assert got == want, ("O2", bugs)


# -- inputs ------------------------------------------------------------------


CORPUS = generate_corpus(58, 0)


@pytest.mark.parametrize("index", range(len(CORPUS)),
                         ids=[name for name, _ in CORPUS])
def test_corpus_matches_resweep(index, checked, monkeypatch):
    assert_same_as_resweep(parse_module(CORPUS[index][1]), monkeypatch)


def test_block_function_matches_resweep(monkeypatch):
    install_checks(monkeypatch, guard_rules=False)
    assert_same_as_resweep(parse_module(block_function()), monkeypatch)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       index=st.integers(min_value=0, max_value=len(CORPUS) - 1),
       mutations=st.integers(min_value=1, max_value=4))
def test_mutants_match_resweep(seed, index, mutations):
    source = parse_module(CORPUS[index][1])
    mutant, _record = Mutator(
        source, MutatorConfig(max_mutations=mutations)).create_mutant(seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        install_checks(monkeypatch)
        assert_same_as_resweep(mutant, monkeypatch)


def test_block_function_mutants_match_resweep():
    source = parse_module(block_function(blocks=12))
    mutator = Mutator(source, MutatorConfig(max_mutations=3))
    for seed in range(12):
        mutant, _record = mutator.create_mutant(seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            install_checks(monkeypatch, guard_rules=False)
            assert_same_as_resweep(mutant, monkeypatch)


# Blocks in an order a sweep does not like: ``use`` is swept before
# ``def``, so ``%j``'s known bits are in the memo (from ``%k``'s rule)
# when ``%i`` becomes a shift, whose known bits are sharper than the
# multiply's.  ``%k`` folds away on the next sweep only if the rewrite
# emptied the memo.
USE_BEFORE_DEF = """
define i8 @f(i8 %a) {
entry:
  br label %def
use:
  %j = or i8 %i, 1
  %k = and i8 %j, 63
  ret i8 %k
def:
  %x = and i8 %a, 3
  %i = mul i8 %x, 8
  br label %use
}
"""


def test_rewrite_upstream_of_a_memoized_value(checked, monkeypatch):
    module = parse_module(USE_BEFORE_DEF)
    assert_same_as_resweep(module, monkeypatch)
    text, stats, _bugs, _crash = outcome(
        module, create_pass("instcombine").run_on_function, ())
    assert stats["instcombine.rule.and-known-mask"] == 1
    assert "and i8 %j" not in text


# ``%i`` becomes an add only once ``%n`` has one use, which it has after
# the sweep that folds ``%z`` has let the dead ``%d`` be erased: the
# erasure must put ``%n``'s remaining users on the next sweep.
ONE_USE_AFTER_DCE = """
define i8 @f(i8 %a, i8 %b, i8 %q) {
entry:
  %n = sub i8 0, %b
  %d = mul i8 %n, %n
  %i = sub i8 %a, %n
  %z = add i8 %q, 0
  %r = xor i8 %i, %z
  ret i8 %r
}
"""


def test_erasing_a_dead_user_revisits_one_use_rules(checked, monkeypatch):
    module = parse_module(ONE_USE_AFTER_DCE)
    assert_same_as_resweep(module, monkeypatch)
    _text, stats, _bugs, _crash = outcome(
        module, create_pass("instcombine").run_on_function, ())
    assert stats["instcombine.dead"] >= 1
    assert stats["instcombine.rule.sub-neg-to-add"] == 1


def test_memo_is_consulted_and_hits():
    """The checks above would pass vacuously if no rule reached the memo."""
    function = parse_module(block_function(blocks=4)).definitions()[0]
    seen = []

    class Spy(KnownBitsMemo):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            seen.append(self)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(scan, "KnownBitsMemo", Spy)
        ctx = OptContext(())
        create_pass("instcombine").run_on_function(function, ctx)
        assert ctx.known_bits is None  # dropped with the run
    (memo,) = seen
    assert memo.queries > memo.hits > 0
