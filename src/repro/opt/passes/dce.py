"""Dead code elimination passes."""

from __future__ import annotations

from typing import List, Set

from ...ir.function import Function
from ...ir.instructions import Instruction
from ..context import OptContext
from ..pass_manager import FunctionPass, register_pass


def is_trivially_dead(inst: Instruction) -> bool:
    """Unused, side-effect-free, non-terminator instructions are dead."""
    if inst.has_uses() or inst.IS_TERMINATOR:
        return False
    if inst.KIND == "call":
        return inst.is_readnone() and not inst.type.IS_VOID \
            and inst.intrinsic_name() != "llvm.assume"
    return not inst.has_side_effects()


@register_pass("dce")
class DeadCodeElimination(FunctionPass):
    """Iteratively removes trivially-dead instructions."""

    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        worklist = [inst for block in function.blocks
                    for inst in block.instructions]
        changed = False
        while worklist:
            inst = worklist.pop()
            if inst.parent is None or not is_trivially_dead(inst):
                continue
            operands = [op for op in inst.operands if op.IS_INSTRUCTION]
            inst.erase_from_parent()
            ctx.count("dce.removed")
            changed = True
            worklist.extend(operands)
        return changed


@register_pass("adce")
class AggressiveDeadCodeElimination(FunctionPass):
    """Marks live roots and sweeps everything unreached.

    Roots are terminators, stores, and calls that may have side effects;
    liveness propagates through operands.
    """

    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        live: Set[int] = set()
        worklist: List[Instruction] = []

        for block in function.blocks:
            for inst in block.instructions:
                if self._is_root(inst):
                    live.add(id(inst))
                    worklist.append(inst)

        while worklist:
            inst = worklist.pop()
            for operand in inst.operands:
                if operand.IS_INSTRUCTION and id(operand) not in live:
                    live.add(id(operand))
                    worklist.append(operand)

        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if id(inst) not in live:
                    inst.erase_from_parent()
                    ctx.count("adce.removed")
                    changed = True
        return changed

    @staticmethod
    def _is_root(inst: Instruction) -> bool:
        if inst.IS_TERMINATOR:
            return True
        if inst.KIND == "call":
            return not inst.is_readnone() or inst.type.IS_VOID
        return inst.has_side_effects()
