"""InstSimplify: rewrite instructions to *existing* values.

Unlike InstCombine, InstSimplify never creates new instructions; every
simplification returns a value that already exists (an operand, a
constant).  It also hosts seeded bug 56968 — a crash in the poison-shift
detection path.
"""

from __future__ import annotations

from typing import Optional

from ...analysis.knownbits import compute_known_bits
from ...ir.function import Function
from ...ir.instructions import (BINARY_OPCODES, BinaryOperator, FreezeInst,
                                ICmpInst, Instruction, SelectInst,
                                opcode_table)
from ...ir.types import I1
from ...ir.values import ConstantInt, PoisonValue, Value
from ..context import OptContext
from ..fold import fold_instruction
from ..scan import ScanPass, SweepState
from ..pass_manager import register_pass, replace_and_erase


def simplify_instruction(inst: Instruction,
                         ctx: Optional[OptContext] = None) -> Optional[Value]:
    """An existing value equivalent to ``inst``, or None."""
    folded = fold_instruction(inst)
    if folded is not None:
        return folded
    simplify = _SIMPLIFIERS[inst.opcode]
    return None if simplify is None else simplify(inst, ctx)


def _simplify_binary(inst: BinaryOperator,
                     ctx: Optional[OptContext]) -> Optional[Value]:
    opcode = inst.opcode
    lhs, rhs = inst.operands
    width = inst.type.width
    # The constant operands' values; None for any other operand.
    rhs_const = rhs.value if rhs.KIND == "int" else None
    lhs_const = lhs.value if lhs.KIND == "int" else None

    if opcode == "add":
        if rhs_const == 0:
            return lhs
        if lhs_const == 0:
            return rhs
    elif opcode == "sub":
        if rhs_const == 0:
            return lhs
        if lhs is rhs:
            # x - x == 0 even with flags (0 never wraps).
            return ConstantInt(inst.type, 0)
    elif opcode == "mul":
        if rhs_const == 1:
            return lhs
        if rhs_const == 0 and not (inst.nuw or inst.nsw):
            return ConstantInt(inst.type, 0)
        if lhs_const == 1:
            return rhs
        if lhs_const == 0 and not (inst.nuw or inst.nsw):
            return ConstantInt(inst.type, 0)
    elif opcode == "and":
        if lhs is rhs:
            return lhs
        mask = inst.type.mask
        if rhs_const == 0:
            return ConstantInt(inst.type, 0)
        if rhs_const == mask:
            return lhs
        if lhs_const == 0:
            return ConstantInt(inst.type, 0)
        if lhs_const == mask:
            return rhs
    elif opcode == "or":
        if lhs is rhs:
            return lhs
        mask = inst.type.mask
        if rhs_const == 0:
            return lhs
        if rhs_const == mask:
            return ConstantInt(inst.type, mask)
        if lhs_const == 0:
            return rhs
        if lhs_const == mask:
            return ConstantInt(inst.type, mask)
    elif opcode == "xor":
        if lhs is rhs:
            return ConstantInt(inst.type, 0)
        if rhs_const == 0:
            return lhs
        if lhs_const == 0:
            return rhs
    elif opcode in ("udiv", "sdiv"):
        if rhs_const == 1:
            return lhs
    elif opcode in ("urem", "srem"):
        if rhs_const == 1:
            return ConstantInt(inst.type, 0)
    elif opcode in ("shl", "lshr", "ashr"):
        if ctx is not None and ctx.bug_enabled("56968") \
                and rhs_const is not None and rhs_const >= width:
            # Bug 56968: the poison-shift detection asserts the shift
            # amount is in range before checking it.
            ctx.crash("56968", "uncovered condition in detecting a poison shift")
        if rhs_const is not None and rhs_const >= width:
            return PoisonValue(inst.type)
        if rhs_const == 0:
            return lhs
        if lhs_const == 0:
            # 0 shifted by an in-range amount is 0; an out-of-range amount
            # gives poison, which 0 refines.
            return ConstantInt(inst.type, 0)
        if opcode == "lshr" and lhs is not rhs and rhs_const is not None:
            known = compute_known_bits(
                lhs, 0, None if ctx is None else ctx.known_bits)
            if known.count_leading_known_zeros() >= width - rhs_const:
                return ConstantInt(inst.type, 0)
    return None


def _simplify_icmp(inst: ICmpInst,
                   ctx: Optional[OptContext]) -> Optional[Value]:
    lhs, rhs = inst.operands
    if lhs is rhs:
        # Same-operand compares fold even for poison (poison refines both).
        result = inst.predicate in ("eq", "uge", "ule", "sge", "sle")
        return ConstantInt(I1, int(result))
    if not lhs.type.IS_INTEGER:
        return None
    if rhs.KIND == "int":
        known = compute_known_bits(
            lhs, 0, None if ctx is None else ctx.known_bits)
        rhs_value = rhs.value
        if inst.predicate == "ult" and known.max_unsigned() < rhs_value:
            return ConstantInt(I1, 1)
        if inst.predicate == "ult" and known.min_unsigned() >= rhs_value:
            return ConstantInt(I1, 0)
        if inst.predicate == "ugt" and known.min_unsigned() > rhs_value:
            return ConstantInt(I1, 1)
        if inst.predicate == "ugt" and known.max_unsigned() <= rhs_value:
            return ConstantInt(I1, 0)
        if inst.predicate in ("eq", "ne") and not known.admits(rhs_value):
            return ConstantInt(I1, int(inst.predicate == "ne"))
    return None


def _simplify_select(inst: SelectInst,
                     ctx: Optional[OptContext]) -> Optional[Value]:
    condition, true_value, false_value = inst.operands
    if true_value is false_value:
        return true_value
    if condition.KIND == "int":
        return true_value if condition.value else false_value
    if condition.KIND == "poison":
        return PoisonValue(inst.type)
    return None


def _simplify_freeze(inst: FreezeInst,
                     ctx: Optional[OptContext]) -> Optional[Value]:
    # freeze of a fully-defined value is that value.
    value = inst.operands[0]
    if value.KIND == "int" or value.KIND == "freeze":
        return value
    return None


# By opcode; None where nothing simplifies beyond constant folding.
_SIMPLIFIERS = opcode_table(None, {
    **dict.fromkeys(BINARY_OPCODES, _simplify_binary),
    "icmp": _simplify_icmp,
    "select": _simplify_select,
    "freeze": _simplify_freeze,
})


@register_pass("instsimplify")
class InstSimplify(ScanPass):
    def _run(self, function: Function, ctx: OptContext,
             sweep: SweepState) -> bool:
        changed = True
        any_change = False
        while changed:
            changed = False
            everything, visit = sweep.everything, sweep.visit
            for block in function.blocks:
                if not everything and id(block) not in sweep.visit_blocks:
                    continue
                for inst in list(block.instructions):
                    if inst.parent is None \
                            or not (everything or inst in visit) \
                            or inst.type.IS_VOID or inst.IS_TERMINATOR:
                        continue
                    sweep.visits += 1
                    simplified = simplify_instruction(inst, ctx)
                    if simplified is not None and simplified is not inst:
                        sweep.note_rewrite(inst)
                        replace_and_erase(inst, simplified)
                        ctx.count("instsimplify.simplified")
                        changed = True
                        any_change = True
            sweep.finish_sweep()
        return any_change
