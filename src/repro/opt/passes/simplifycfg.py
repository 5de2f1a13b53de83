"""SimplifyCFG: branch folding, block merging, unreachable-code removal."""

from __future__ import annotations


from ...ir.cfg import reachable_blocks
from ...ir.function import Function
from ...ir.instructions import BrInst
from ..context import OptContext
from ..pass_manager import FunctionPass, register_pass


@register_pass("simplifycfg")
class SimplifyCFG(FunctionPass):
    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        changed = False
        progress = True
        while progress:
            progress = (self._fold_constant_branches(function, ctx)
                        or self._fold_same_target_branches(function, ctx)
                        or self._remove_unreachable(function, ctx)
                        or self._merge_straight_line(function, ctx)
                        or self._skip_empty_blocks(function, ctx)
                        or self._simplify_trivial_phis(function, ctx))
            changed = changed or progress
        return changed

    # -- thread branches through empty forwarding blocks --------------------

    def _skip_empty_blocks(self, function: Function, ctx: OptContext) -> bool:
        """pred -> empty -> succ becomes pred -> succ when `empty` holds
        nothing but an unconditional branch.

        Phi bookkeeping: succ's incoming value from `empty` is re-routed
        to come from pred.  Skipped when pred already reaches succ (the
        rewrite would create a duplicate edge with conflicting phi
        values) or when succ's incoming value is defined in `empty`
        (impossible here — the block is empty — but phis referencing the
        *block* are the constraint we rewrite).
        """
        for block in function.blocks:
            if block is function.entry_block():
                continue
            if len(block.instructions) != 1:
                continue
            terminator = block.terminator()
            if terminator is None:
                continue
            if not (terminator.KIND == "br"
                    and not terminator.is_conditional()):
                continue
            successor = terminator.operands[0]
            if successor is block:
                continue
            for pred in block.predecessors():
                if any(s is successor for s in pred.successors()):
                    continue  # duplicate-edge hazard
                pred_term = pred.terminator()
                if pred_term is None:
                    continue
                # Retarget every edge pred -> block to pred -> succ.
                for index, operand in enumerate(pred_term.operands):
                    if operand is block:
                        pred_term.set_operand(index, successor)
                for phi in successor.phis():
                    incoming = phi.incoming_value_for(block)
                    if incoming is not None:
                        phi.add_incoming(incoming, pred)
                # If nothing branches to the empty block anymore, its
                # edge into succ's phis goes away with the block (the
                # unreachable-removal step cleans it up).
                ctx.count("simplifycfg.skipped-empty")
                return True
        return False

    # -- br i1 true/false ---------------------------------------------------

    def _fold_constant_branches(self, function: Function,
                                ctx: OptContext) -> bool:
        changed = False
        for block in function.blocks:
            terminator = block.terminator()
            if terminator is None:
                continue
            if terminator.KIND == "br" and terminator.is_conditional() \
                    and terminator.condition.KIND == "int":
                taken_index = 1 if terminator.condition.value else 2
                dead_index = 2 if terminator.condition.value else 1
                taken = terminator.operands[taken_index]
                dead = terminator.operands[dead_index]
                terminator.erase_from_parent()
                block.append(BrInst(taken))
                if dead is not taken:
                    for phi in dead.phis():
                        phi.remove_incoming(block)
                ctx.count("simplifycfg.const-br")
                changed = True
            elif terminator.KIND == "switch" \
                    and terminator.value.KIND == "int":
                value = terminator.value.value
                taken = terminator.default
                for case_value, case_block in terminator.cases():
                    if case_value.value == value:
                        taken = case_block
                        break
                dead_targets = {id(b): b for b in terminator.successors()
                                if b is not taken}
                terminator.erase_from_parent()
                block.append(BrInst(taken))
                for dead in dead_targets.values():
                    for phi in dead.phis():
                        phi.remove_incoming(block)
                ctx.count("simplifycfg.const-switch")
                changed = True
        return changed

    # -- br i1 c, %bb, %bb ------------------------------------------------------

    def _fold_same_target_branches(self, function: Function,
                                   ctx: OptContext) -> bool:
        changed = False
        for block in function.blocks:
            terminator = block.terminator()
            if terminator is None:
                continue
            if terminator.KIND == "br" and terminator.is_conditional() \
                    and terminator.operands[1] is terminator.operands[2]:
                target = terminator.operands[1]
                terminator.erase_from_parent()
                block.append(BrInst(target))
                ctx.count("simplifycfg.same-target")
                changed = True
        return changed

    # -- unreachable blocks -------------------------------------------------------

    def _remove_unreachable(self, function: Function, ctx: OptContext) -> bool:
        reachable = reachable_blocks(function)
        dead = [block for block in function.blocks if id(block) not in reachable]
        if not dead:
            return False
        dead_ids = {id(block) for block in dead}
        # Phis in live blocks must drop edges from dying blocks.
        for block in function.blocks:
            if id(block) in dead_ids:
                continue
            for phi in block.phis():
                for _, incoming_block in phi.incoming():
                    if id(incoming_block) in dead_ids:
                        phi.remove_incoming(incoming_block)
        for block in dead:
            for inst in list(block.instructions):
                inst.replace_all_uses_with(_undef_like(inst))
                inst.erase_from_parent()
            function.remove_block(block)
            ctx.count("simplifycfg.unreachable")
        return True

    # -- merge straight-line blocks --------------------------------------------------

    def _merge_straight_line(self, function: Function, ctx: OptContext) -> bool:
        for block in list(function.blocks):
            terminator = block.terminator()
            if terminator is None:
                continue
            if not (terminator.KIND == "br"
                    and not terminator.is_conditional()):
                continue
            successor = terminator.operands[0]
            if successor is block or successor is function.entry_block():
                continue
            if len(successor.predecessors()) != 1:
                continue
            # Resolve phis (single predecessor: the incoming value).
            for phi in list(successor.phis()):
                incoming = phi.incoming_value_for(block)
                phi.replace_all_uses_with(incoming)
                phi.erase_from_parent()
            terminator.erase_from_parent()
            for inst in list(successor.instructions):
                successor.remove(inst)
                block.append(inst)
            successor.replace_all_uses_with(block)
            function.remove_block(successor)
            ctx.count("simplifycfg.merged")
            return True
        return False

    # -- single-entry phis ------------------------------------------------------------

    def _simplify_trivial_phis(self, function: Function,
                               ctx: OptContext) -> bool:
        changed = False
        for block in function.blocks:
            for phi in list(block.phis()):
                incoming = phi.incoming()
                values = {id(v) for v, _ in incoming}
                if len(values) == 1 and incoming[0][0] is not phi:
                    phi.replace_all_uses_with(incoming[0][0])
                    phi.erase_from_parent()
                    ctx.count("simplifycfg.trivial-phi")
                    changed = True
        return changed


def _undef_like(inst):
    from ...ir.values import UndefValue

    return UndefValue(inst.type)
