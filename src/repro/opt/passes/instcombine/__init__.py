"""InstCombine: the peephole-rewrite workhorse.

Like LLVM's InstCombine, this pass runs a worklist to fixpoint, applying
constant folding, InstSimplify, and a library of pattern-based rewrite
rules.  InstCombine was the single buggiest LLVM component found both by
Csmith (2011) and by alive-mutate (Table I), and the seeded versions of
those bugs live in these rule modules.

Rules are registered with their root opcodes (see ``repro.opt.rewrite``),
so each visited instruction only tries the rules whose pattern is
anchored at its opcode instead of the whole library.  Within a bucket
the registration order is preserved, and every rule's first test is its
root-opcode guard, so the indexed sweep fires exactly the rewrites the
linear scan would — in the same order.
"""

from __future__ import annotations

from typing import List, Optional

from ....ir.builder import IRBuilder
from ....ir.function import Function
from ....ir.instructions import Instruction
from ....ir.module import Module
from ....ir.values import Value
from ...context import OptContext
from ...scan import ScanPass, SweepState
from ...pass_manager import register_pass, replace_and_erase
from ...rewrite import RewriteRule, RuleIndex
from ..instsimplify import simplify_instruction


class CombineContext:
    """What a rule gets to work with."""

    def __init__(self, function: Function, ctx: OptContext) -> None:
        self.function = function
        self.ctx = ctx
        # The run's known-bits memo, for compute_known_bits(..., memo).
        self.known_bits = ctx.known_bits
        # Where in its block the instruction in hand stood when a rule
        # first asked for a builder: the start of what the rule built.
        self.built_from: Optional[int] = None

    def builder_before(self, inst: Instruction) -> IRBuilder:
        block = inst.parent
        index = block.index_of(inst)
        if self.built_from is None:
            self.built_from = index
        builder = IRBuilder()
        builder.set_insert_point(block, index)
        return builder

    @property
    def module(self) -> Optional[Module]:
        return self.function.parent


def _load_rules() -> List[RewriteRule]:
    from . import (rules_addsub, rules_bitwise, rules_casts, rules_icmp,
                   rules_intrinsics, rules_logic_icmp, rules_muldiv,
                   rules_select, rules_select_binop, rules_shifts)

    rules: List[RewriteRule] = []
    for module in (rules_addsub, rules_muldiv, rules_shifts, rules_bitwise,
                   rules_icmp, rules_logic_icmp, rules_select,
                   rules_select_binop, rules_casts, rules_intrinsics):
        rules.extend(module.RULES)
    return rules


_INDEX: Optional[RuleIndex] = None


def rule_index() -> RuleIndex:
    global _INDEX
    if _INDEX is None:
        _INDEX = RuleIndex(_load_rules())
    return _INDEX


def all_rules() -> List[RewriteRule]:
    return list(rule_index().rules)


MAX_ITERATIONS = 8


@register_pass("instcombine")
class InstCombine(ScanPass):
    def _run(self, function: Function, ctx: OptContext,
             sweep: SweepState) -> bool:
        combine = CombineContext(function, ctx)
        index = rule_index()
        any_change = False
        for _ in range(MAX_ITERATIONS):
            changed = False
            everything, visit = sweep.everything, sweep.visit
            for block in function.blocks:
                if not everything and id(block) not in sweep.visit_blocks:
                    continue
                for inst in list(block.instructions):
                    if inst.parent is None \
                            or not (everything or inst in visit) \
                            or inst.IS_TERMINATOR:
                        continue
                    sweep.visits += 1
                    simplified = None
                    if not inst.type.IS_VOID:
                        simplified = simplify_instruction(inst, ctx)
                    if simplified is not None and simplified is not inst:
                        sweep.note_rewrite(inst)
                        replace_and_erase(inst, simplified)
                        ctx.count("instcombine.simplified")
                        changed = True
                        continue
                    combine.built_from = None
                    for entry in index.rules_for(inst.opcode):
                        result = entry.fn(inst, combine)
                        if result is None:
                            continue
                        ctx.count(f"instcombine.rule.{entry.name}")
                        changed = True
                        # Rules build replacement chains right before
                        # the anchor.
                        built = () if combine.built_from is None else \
                            block.instructions[
                                combine.built_from:block.index_of(inst)]
                        sweep.note_rewrite(inst, built)
                        if result is not inst:
                            replace_and_erase(inst, result)
                        break
            if changed:
                # Like LLVM's InstCombine, retire instructions its rewrites
                # have made dead before the next sweep.
                self._erase_trivially_dead(function, ctx, sweep)
            any_change = any_change or changed
            if not changed:
                break
            sweep.finish_sweep()
        return any_change

    @staticmethod
    def _erase_trivially_dead(function: Function, ctx: OptContext,
                              sweep: SweepState) -> None:
        from ..dce import is_trivially_dead

        worklist = [inst for block in function.blocks
                    for inst in block.instructions]
        while worklist:
            inst = worklist.pop()
            if inst.parent is None or not is_trivially_dead(inst):
                continue
            operands = [op for op in inst.operands if op.IS_INSTRUCTION]
            inst.erase_from_parent()
            ctx.count("instcombine.dead")
            worklist.extend(operands)
            # Each operand just lost a use; one-use rules at its
            # remaining users may now fire.
            sweep.note_affected(operands)
