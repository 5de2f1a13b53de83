"""InstCombine rules threading binary operations through selects and
folding selects over compared values."""

from __future__ import annotations

from typing import Optional

from ....ir.instructions import BINARY_OPCODES
from ....ir.values import ConstantInt, Value, same_value
from ...matchers import is_one_use
from ...rewrite import rule


def rule_binop_of_select_constants(inst, combine) -> Optional[Value]:
    """op (select c, C1, C2), C3  ->  select c, (C1 op C3), (C2 op C3).

    Folding the op into both constant arms removes an instruction.  The
    folded op must be flagless (constant-folding with flags could differ
    in poison between the arms and the original).
    """
    if inst.KIND != "binop":
        return None
    if inst.nuw or inst.nsw or inst.exact:
        return None
    select = inst.operands[0]
    if not (select.KIND == "select" and is_one_use(select)
            and select.true_value.KIND == "int"
            and select.false_value.KIND == "int"
            and inst.operands[1].KIND == "int"):
        return None
    from ...fold import fold_binary

    constant = inst.operands[1]
    true_folded = fold_binary(inst.opcode, select.true_value, constant,
                              inst.type.width)
    false_folded = fold_binary(inst.opcode, select.false_value, constant,
                               inst.type.width)
    if true_folded is None or false_folded is None \
            or true_folded.KIND != "int" or false_folded.KIND != "int":
        return None
    builder = combine.builder_before(inst)
    return builder.select(select.condition, true_folded, false_folded)


def rule_select_icmp_eq_constant_arm(inst, combine) -> Optional[Value]:
    """select (icmp eq x, C), C, y  ->  select (icmp eq x, C), x, y — and
    then the arms rule can take over.  LLVM canonicalizes the other way
    (constant preferred), so we implement the profitable special case:
    when the true arm equals the compared constant, substituting x makes
    both arms x-derived and often unlocks select-elimination."""
    if inst.KIND != "select":
        return None
    compare = inst.condition
    if not (compare.KIND == "icmp" and compare.predicate == "eq"
            and compare.operands[1].KIND == "int"):
        return None
    if not same_value(inst.true_value, compare.operands[1]):
        return None
    if inst.false_value is compare.operands[0]:
        # select (x == C), C, x  ->  x
        return compare.operands[0]
    return None


def rule_select_of_sub_zero(inst, combine) -> Optional[Value]:
    """select (icmp slt x, 0), (sub 0, x), x  ->  abs-like shape stays,
    but the reversed arms form select (icmp sgt x, -1), x, (sub 0, x)
    canonicalizes to the same order for downstream matching."""
    if inst.KIND != "select":
        return None
    compare = inst.condition
    if not (compare.KIND == "icmp" and compare.predicate == "sgt"
            and compare.operands[1].KIND == "int"
            and compare.operands[1].is_all_ones()
            and is_one_use(compare)):
        return None
    negated = inst.false_value
    if not (negated.KIND == "binop" and negated.opcode == "sub"
            and negated.operands[0].KIND == "int"
            and negated.operands[0].is_zero()
            and negated.operands[1] is compare.operands[0]
            and inst.true_value is compare.operands[0]):
        return None
    # select (x > -1), x, (0 - x)  ->  select (x < 0), (0 - x), x
    builder = combine.builder_before(inst)
    flipped = builder.icmp("slt", compare.operands[0],
                           ConstantInt(compare.operands[0].type, 0))
    return builder.select(flipped, negated, compare.operands[0])


def rule_shared_operand_select(inst, combine) -> Optional[Value]:
    """op (select c, x, y), (select c, a, b) with the same condition
    folds to select c, (op x a), (op y b) when both selects are single-
    use — one select survives instead of two.

    Both arms now execute unconditionally, so the op must not be able to
    raise UB (division by an unselected zero would be a new crash).
    """
    if inst.KIND != "binop":
        return None
    if inst.opcode in ("udiv", "sdiv", "urem", "srem"):
        return None
    lhs, rhs = inst.operands[0], inst.operands[1]
    if not (lhs.KIND == "select" and rhs.KIND == "select"
            and lhs.condition is rhs.condition
            and is_one_use(lhs) and is_one_use(rhs)):
        return None
    builder = combine.builder_before(inst)
    true_op = builder.binop(inst.opcode, lhs.true_value, rhs.true_value,
                            nuw=inst.nuw, nsw=inst.nsw, exact=inst.exact)
    false_op = builder.binop(inst.opcode, lhs.false_value, rhs.false_value,
                             nuw=inst.nuw, nsw=inst.nsw, exact=inst.exact)
    return builder.select(lhs.condition, true_op, false_op)


RULES = [
    rule("binop-select-consts", rule_binop_of_select_constants,
         *BINARY_OPCODES),
    rule("select-eq-const-arm", rule_select_icmp_eq_constant_arm, "select"),
    rule("select-neg-canon", rule_select_of_sub_zero, "select"),
    rule("binop-two-selects", rule_shared_operand_select, *BINARY_OPCODES),
]
