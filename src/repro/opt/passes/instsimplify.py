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
from ...ir.instructions import (BinaryOperator, FreezeInst, ICmpInst,
                                Instruction, SelectInst)
from ...ir.types import IntType
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
    if isinstance(inst, BinaryOperator):
        return _simplify_binary(inst, ctx)
    if isinstance(inst, ICmpInst):
        return _simplify_icmp(inst, ctx)
    if isinstance(inst, SelectInst):
        return _simplify_select(inst)
    if isinstance(inst, FreezeInst):
        return _simplify_freeze(inst)
    return None


def _simplify_binary(inst: BinaryOperator,
                     ctx: Optional[OptContext]) -> Optional[Value]:
    opcode = inst.opcode
    lhs, rhs = inst.lhs, inst.rhs
    width = inst.type.width
    rhs_const = rhs if isinstance(rhs, ConstantInt) else None
    lhs_const = lhs if isinstance(lhs, ConstantInt) else None

    if opcode == "add":
        if rhs_const is not None and rhs_const.is_zero():
            return lhs
        if lhs_const is not None and lhs_const.is_zero():
            return rhs
    elif opcode == "sub":
        if rhs_const is not None and rhs_const.is_zero():
            return lhs
        if lhs is rhs:
            # x - x == 0 even with flags (0 never wraps).
            return ConstantInt(inst.type, 0)
    elif opcode == "mul":
        if rhs_const is not None:
            if rhs_const.is_one():
                return lhs
            if rhs_const.is_zero() and not (inst.nuw or inst.nsw):
                return ConstantInt(inst.type, 0)
        if lhs_const is not None:
            if lhs_const.is_one():
                return rhs
            if lhs_const.is_zero() and not (inst.nuw or inst.nsw):
                return ConstantInt(inst.type, 0)
    elif opcode == "and":
        if lhs is rhs:
            return lhs
        if rhs_const is not None:
            if rhs_const.is_zero():
                return ConstantInt(inst.type, 0)
            if rhs_const.is_all_ones():
                return lhs
        if lhs_const is not None:
            if lhs_const.is_zero():
                return ConstantInt(inst.type, 0)
            if lhs_const.is_all_ones():
                return rhs
    elif opcode == "or":
        if lhs is rhs:
            return lhs
        if rhs_const is not None:
            if rhs_const.is_zero():
                return lhs
            if rhs_const.is_all_ones():
                return ConstantInt(inst.type, inst.type.mask)
        if lhs_const is not None:
            if lhs_const.is_zero():
                return rhs
            if lhs_const.is_all_ones():
                return ConstantInt(inst.type, inst.type.mask)
    elif opcode == "xor":
        if lhs is rhs:
            return ConstantInt(inst.type, 0)
        if rhs_const is not None and rhs_const.is_zero():
            return lhs
        if lhs_const is not None and lhs_const.is_zero():
            return rhs
    elif opcode in ("udiv", "sdiv"):
        if rhs_const is not None and rhs_const.is_one():
            return lhs
    elif opcode in ("urem", "srem"):
        if rhs_const is not None and rhs_const.is_one():
            return ConstantInt(inst.type, 0)
    elif opcode in ("shl", "lshr", "ashr"):
        if ctx is not None and ctx.bug_enabled("56968") \
                and rhs_const is not None and rhs_const.value >= width:
            # Bug 56968: the poison-shift detection asserts the shift
            # amount is in range before checking it.
            ctx.crash("56968", "uncovered condition in detecting a poison shift")
        if rhs_const is not None and rhs_const.value >= width:
            return PoisonValue(inst.type)
        if rhs_const is not None and rhs_const.is_zero():
            return lhs
        if lhs_const is not None and lhs_const.is_zero():
            # 0 shifted by an in-range amount is 0; an out-of-range amount
            # gives poison, which 0 refines.
            return ConstantInt(inst.type, 0)
        if opcode == "lshr" and lhs is not rhs and rhs_const is not None:
            known = compute_known_bits(
                lhs, 0, None if ctx is None else ctx.known_bits)
            if known.count_leading_known_zeros() >= width - rhs_const.value:
                return ConstantInt(inst.type, 0)
    return None


def _simplify_icmp(inst: ICmpInst,
                   ctx: Optional[OptContext]) -> Optional[Value]:
    if inst.lhs is inst.rhs:
        # Same-operand compares fold even for poison (poison refines both).
        result = inst.predicate in ("eq", "uge", "ule", "sge", "sle")
        return ConstantInt(IntType(1), int(result))
    if not isinstance(inst.lhs.type, IntType):
        return None
    width = inst.lhs.type.width
    if isinstance(inst.rhs, ConstantInt):
        known = compute_known_bits(
            inst.lhs, 0, None if ctx is None else ctx.known_bits)
        rhs_value = inst.rhs.value
        if inst.predicate == "ult" and known.max_unsigned() < rhs_value:
            return ConstantInt(IntType(1), 1)
        if inst.predicate == "ult" and known.min_unsigned() >= rhs_value:
            return ConstantInt(IntType(1), 0)
        if inst.predicate == "ugt" and known.min_unsigned() > rhs_value:
            return ConstantInt(IntType(1), 1)
        if inst.predicate == "ugt" and known.max_unsigned() <= rhs_value:
            return ConstantInt(IntType(1), 0)
        if inst.predicate in ("eq", "ne") and not known.admits(rhs_value):
            return ConstantInt(IntType(1), int(inst.predicate == "ne"))
    return None


def _simplify_select(inst: SelectInst) -> Optional[Value]:
    if inst.true_value is inst.false_value:
        return inst.true_value
    if isinstance(inst.condition, ConstantInt):
        return inst.true_value if inst.condition.value else inst.false_value
    if isinstance(inst.condition, PoisonValue):
        return PoisonValue(inst.type)
    return None


def _simplify_freeze(inst: FreezeInst) -> Optional[Value]:
    # freeze of a fully-defined value is that value.
    value = inst.value
    if isinstance(value, ConstantInt):
        return value
    if isinstance(value, FreezeInst):
        return value
    return None


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
                            or inst.type.is_void() or inst.is_terminator():
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
