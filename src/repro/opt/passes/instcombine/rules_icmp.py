"""InstCombine rules for integer comparisons."""

from __future__ import annotations

from typing import Optional

from ....ir.types import IntType
from ....ir.values import ConstantInt, Value
from ...matchers import is_one_use
from ...rewrite import rule

_NONSTRICT_TO_STRICT = {
    # pred -> (strict pred, constant delta, boundary constant to skip)
    "uge": ("ugt", -1, 0),
    "ule": ("ult", +1, None),   # boundary: all-ones
    "sge": ("sgt", -1, None),   # boundary: signed min
    "sle": ("slt", +1, None),   # boundary: signed max
}


def rule_canonicalize_strict(inst, combine) -> Optional[Value]:
    """icmp uge x, C  ->  icmp ugt x, C-1 (and the other non-strict
    predicates), keeping compares in strict canonical form."""
    if inst.KIND != "icmp":
        return None
    mapping = _NONSTRICT_TO_STRICT.get(inst.predicate)
    if mapping is None or inst.operands[1].KIND != "int":
        return None
    if not inst.operands[0].type.IS_INTEGER:
        return None
    strict, delta, _ = mapping
    width = inst.operands[0].type.width
    value = inst.operands[1].value
    # Skip boundary constants where the shifted compare would wrap.
    if inst.predicate == "uge" and value == 0:
        return None
    if inst.predicate == "ule" and value == inst.operands[1].type.mask:
        return None
    if inst.predicate == "sge" and value == 1 << (width - 1):
        return None
    if inst.predicate == "sle" and value == (1 << (width - 1)) - 1:
        return None
    builder = combine.builder_before(inst)
    return builder.icmp(strict, inst.operands[0],
                        ConstantInt(inst.operands[1].type, value + delta))


def rule_icmp_eq_add_const(inst, combine) -> Optional[Value]:
    """icmp eq/ne (add x, C1), C2  ->  icmp eq/ne x, C2-C1.

    Sound for plain and flagged adds: if the add was poison the original
    compare was poison, which any result refines.
    """
    if not (inst.KIND == "icmp" and inst.is_equality()):
        return None
    add = inst.operands[0]
    if not (add.KIND == "binop" and add.opcode == "add"
            and is_one_use(add)
            and add.operands[1].KIND == "int"
            and inst.operands[1].KIND == "int"):
        return None
    builder = combine.builder_before(inst)
    adjusted = (inst.operands[1].value - add.operands[1].value) & add.type.mask
    return builder.icmp(inst.predicate, add.operands[0],
                        ConstantInt(add.type, adjusted))


def rule_icmp_ult_add_nuw(inst, combine) -> Optional[Value]:
    """icmp ult (add nuw x, C1), C2  ->  icmp ult x, C2-C1 (when C2 >= C1).

    With nuw the addition cannot wrap, so the range check shifts directly.
    When C2 < C1 the compare is always false.
    """
    if not (inst.KIND == "icmp" and inst.predicate == "ult"):
        return None
    add = inst.operands[0]
    if not (add.KIND == "binop" and add.opcode == "add"
            and add.nuw and is_one_use(add)
            and add.operands[1].KIND == "int"
            and inst.operands[1].KIND == "int"):
        return None
    c1, c2 = add.operands[1].value, inst.operands[1].value
    if c2 < c1:
        return ConstantInt(IntType(1), 0)
    builder = combine.builder_before(inst)
    return builder.icmp("ult", add.operands[0], ConstantInt(add.type, c2 - c1))


def rule_icmp_of_zext(inst, combine) -> Optional[Value]:
    """Compares of zext fold into the narrow domain."""
    if inst.KIND != "icmp":
        return None
    zext = inst.operands[0]
    if not (zext.KIND == "cast" and zext.opcode == "zext"
            and inst.operands[1].KIND == "int"):
        return None
    src_width = zext.src_type.width
    value = inst.operands[1].value
    narrow_max = (1 << src_width) - 1
    builder = combine.builder_before(inst)
    if inst.is_equality():
        if value > narrow_max:
            return ConstantInt(IntType(1), int(inst.predicate == "ne"))
        return builder.icmp(inst.predicate, zext.value,
                            ConstantInt(zext.src_type, value))
    if inst.predicate == "ult":
        if value > narrow_max:
            return ConstantInt(IntType(1), 1)
        return builder.icmp("ult", zext.value,
                            ConstantInt(zext.src_type, value))
    if inst.predicate == "ugt":
        if value >= narrow_max:
            return ConstantInt(IntType(1), 0)
        return builder.icmp("ugt", zext.value,
                            ConstantInt(zext.src_type, value))
    return None


def rule_icmp_signed_of_zext(inst, combine) -> Optional[Value]:
    """Signed compares of zext values are unsigned compares (zext output
    is always non-negative when the source is narrower)."""
    if inst.KIND != "icmp" or not inst.is_signed():
        return None
    zext = inst.operands[0]
    if not (zext.KIND == "cast" and zext.opcode == "zext"
            and inst.operands[1].KIND == "int"):
        return None
    rhs_signed = inst.operands[1].signed_value()
    builder = combine.builder_before(inst)
    if rhs_signed < 0:
        # zext value is >= 0 > rhs.
        result = inst.predicate in ("sgt", "sge")
        return ConstantInt(IntType(1), int(result))
    unsigned = {"sgt": "ugt", "sge": "uge", "slt": "ult", "sle": "ule"}
    return builder.icmp(unsigned[inst.predicate], zext, inst.operands[1])


RULES = [
    rule("icmp-strict-canonical", rule_canonicalize_strict, "icmp"),
    rule("icmp-eq-add-const", rule_icmp_eq_add_const, "icmp"),
    rule("icmp-ult-add-nuw", rule_icmp_ult_add_nuw, "icmp"),
    rule("icmp-of-zext", rule_icmp_of_zext, "icmp"),
    rule("icmp-signed-of-zext", rule_icmp_signed_of_zext, "icmp"),
]
