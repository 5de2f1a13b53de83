"""Reassociate: canonicalize chains of commutative operations.

``(x op C1) op C2`` becomes ``x op (C1 op C2)``, and constants sink to the
right of commutative operations.  Wrapping flags must be dropped when
operations are regrouped (regrouping can change which intermediate
overflows), exactly as LLVM's Reassociate does.
"""

from __future__ import annotations

from ...ir.function import Function
from ...ir.instructions import BinaryOperator, COMMUTATIVE_OPCODES
from ..context import OptContext
from ..fold import fold_binary
from ..pass_manager import FunctionPass, register_pass


@register_pass("reassociate")
class Reassociate(FunctionPass):
    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if inst.KIND != "binop":
                    continue
                if inst.opcode not in COMMUTATIVE_OPCODES:
                    continue
                if self._canonicalize_constant_position(inst, ctx):
                    changed = True
                if self._fold_chained_constants(inst, ctx):
                    changed = True
        return changed

    @staticmethod
    def _canonicalize_constant_position(inst: BinaryOperator,
                                        ctx: OptContext) -> bool:
        """Move a constant LHS of a commutative op to the RHS."""
        if inst.operands[0].IS_CONSTANT and not inst.operands[1].IS_CONSTANT:
            lhs, rhs = inst.operands[0], inst.operands[1]
            inst.set_operand(0, rhs)
            inst.set_operand(1, lhs)
            ctx.count("reassociate.swapped")
            return True
        return False

    @staticmethod
    def _fold_chained_constants(inst: BinaryOperator, ctx: OptContext) -> bool:
        """(x op C1) op C2 -> x op (C1 op C2), dropping wrapping flags."""
        inner = inst.operands[0]
        if not (inner.KIND == "binop"
                and inner.opcode == inst.opcode
                and inner.num_uses() == 1
                and inner.operands[1].KIND == "int"
                and inst.operands[1].KIND == "int"):
            return False
        combined = fold_binary(inst.opcode, inner.operands[1],
                               inst.operands[1], inst.type.width)
        if combined is None or combined.KIND != "int":
            return False
        inst.set_operand(0, inner.operands[0])
        inst.set_operand(1, combined)
        # Regrouping invalidates wrapping facts on the surviving op.
        inst.nuw = False
        inst.nsw = False
        if not inner.has_uses():
            inner.erase_from_parent()
        ctx.count("reassociate.folded")
        return True
