"""InstCombine rules combining boolean logic over comparisons.

The and/or-of-icmp family: range intersection/union over a shared
operand, plus the classic power-of-two bit tests.
"""

from __future__ import annotations

from typing import Optional

from ....ir.types import IntType
from ....ir.values import ConstantInt, Value
from ...matchers import is_one_use
from ...rewrite import rule


def _unsigned_range_pair(inst) -> Optional[tuple]:
    """Match and/or of two one-use unsigned compares of the same value
    against constants; returns (op, x, pred1, c1, pred2, c2)."""
    if not (inst.KIND == "binop"
            and inst.opcode in ("and", "or")):
        return None
    lhs, rhs = inst.operands[0], inst.operands[1]
    if not (lhs.KIND == "icmp" and rhs.KIND == "icmp"
            and is_one_use(lhs) and is_one_use(rhs)):
        return None
    if lhs.operands[0] is not rhs.operands[0]:
        return None
    if not (lhs.operands[1].KIND == "int"
            and rhs.operands[1].KIND == "int"):
        return None
    if lhs.predicate not in ("ult", "ugt") \
            or rhs.predicate not in ("ult", "ugt"):
        return None
    return (inst.opcode, lhs.operands[0], lhs.predicate, lhs.operands[1].value,
            rhs.predicate, rhs.operands[1].value)


def rule_and_or_of_unsigned_range(inst, combine) -> Optional[Value]:
    """Same-direction unsigned compares of one value fold:

        and (icmp ult x, C1), (icmp ult x, C2)  ->  icmp ult x, min
        or  (icmp ult x, C1), (icmp ult x, C2)  ->  icmp ult x, max

    (and the dual for ugt with max/min swapped).
    """
    matched = _unsigned_range_pair(inst)
    if matched is None:
        return None
    opcode, x, pred1, c1, pred2, c2 = matched
    if pred1 != pred2:
        return None
    if pred1 == "ult":
        chosen = min(c1, c2) if opcode == "and" else max(c1, c2)
    else:  # ugt
        chosen = max(c1, c2) if opcode == "and" else min(c1, c2)
    builder = combine.builder_before(inst)
    return builder.icmp(pred1, x, ConstantInt(x.type, chosen))


def rule_and_of_empty_range(inst, combine) -> Optional[Value]:
    """and (icmp ult x, C1), (icmp ugt x, C2) -> false when C2 >= C1 - 1
    (the interval (C2, C1) is empty)."""
    matched = _unsigned_range_pair(inst)
    if matched is None:
        return None
    opcode, x, pred1, c1, pred2, c2 = matched
    if opcode != "and" or pred1 == pred2:
        return None
    if pred1 == "ugt":
        pred1, c1, pred2, c2 = pred2, c2, pred1, c1
    # Now pred1 == ult (x < c1) and pred2 == ugt (x > c2).
    if c2 >= c1 - 1:
        return ConstantInt(IntType(1), 0)
    return None


def rule_or_of_full_range(inst, combine) -> Optional[Value]:
    """or (icmp ult x, C1), (icmp ugt x, C2) -> true when C2 < C1
    (every value is below C1 or above C2)."""
    matched = _unsigned_range_pair(inst)
    if matched is None:
        return None
    opcode, x, pred1, c1, pred2, c2 = matched
    if opcode != "or" or pred1 == pred2:
        return None
    if pred1 == "ugt":
        pred1, c1, pred2, c2 = pred2, c2, pred1, c1
    if c2 < c1:
        return ConstantInt(IntType(1), 1)
    return None


def rule_power_of_two_bit_test(inst, combine) -> Optional[Value]:
    """icmp eq (and x, Pow2), 0  ->  stays canonical, but the inverted
    form icmp ne (and x, Pow2), Pow2 folds to the eq-0 test."""
    if not (inst.KIND == "icmp" and inst.predicate == "ne"):
        return None
    mask_inst = inst.operands[0]
    if not (mask_inst.KIND == "binop"
            and mask_inst.opcode == "and"
            and mask_inst.operands[1].KIND == "int"):
        return None
    mask = mask_inst.operands[1].value
    if mask == 0 or mask & (mask - 1):
        return None  # not a single bit
    if not (inst.operands[1].KIND == "int"
            and inst.operands[1].value == mask):
        return None
    # (x & bit) != bit  <=>  (x & bit) == 0
    builder = combine.builder_before(inst)
    return builder.icmp("eq", mask_inst, ConstantInt(mask_inst.type, 0))


def rule_and_icmp_eq_zero_pair(inst, combine) -> Optional[Value]:
    """and (icmp eq (and x, M1), 0), (icmp eq (and x, M2), 0)
       -> icmp eq (and x, M1|M2), 0  (both bit groups clear)."""
    if not (inst.KIND == "binop" and inst.opcode == "and"):
        return None
    parts = []
    for side in (inst.operands[0], inst.operands[1]):
        if not (side.KIND == "icmp" and side.predicate == "eq"
                and is_one_use(side)
                and side.operands[1].KIND == "int"
                and side.operands[1].is_zero()):
            return None
        masked = side.operands[0]
        if not (masked.KIND == "binop"
                and masked.opcode == "and" and is_one_use(masked)
                and masked.operands[1].KIND == "int"):
            return None
        parts.append((masked.operands[0], masked.operands[1].value))
    (x1, m1), (x2, m2) = parts
    if x1 is not x2:
        return None
    builder = combine.builder_before(inst)
    combined = builder.and_(x1, ConstantInt(x1.type, m1 | m2))
    return builder.icmp("eq", combined, ConstantInt(x1.type, 0))


RULES = [
    rule("andor-unsigned-range", rule_and_or_of_unsigned_range, "and", "or"),
    rule("and-empty-range", rule_and_of_empty_range, "and"),
    rule("or-full-range", rule_or_of_full_range, "or"),
    # Matches an icmp-ne whose operand chain is the bit test.
    rule("pow2-bit-test", rule_power_of_two_bit_test, "icmp"),
    rule("and-eqzero-pair", rule_and_icmp_eq_zero_pair, "and"),
]
