"""InstCombine rules for select.

Hosts seeded bug 53252 (miscompilation): "didn't update predicate in
function 'canonicalizeClampLike'" — the clamp-to-min/max canonicalization
emits a *signed* min/max even when the guarding compare was unsigned.
"""

from __future__ import annotations

from typing import Optional

from ....ir.intrinsics import declare_intrinsic, supports_width
from ....ir.types import IntType
from ....ir.values import ConstantInt, Value, same_value
from ...matchers import is_one_use
from ...rewrite import rule


def rule_select_inverted_condition(inst, combine) -> Optional[Value]:
    """select (xor c, true), x, y  ->  select c, y, x."""
    if inst.KIND != "select":
        return None
    condition = inst.condition
    if not (condition.KIND == "binop" and condition.opcode == "xor"
            and is_one_use(condition)
            and condition.operands[1].KIND == "int"
            and condition.operands[1].is_one()
            and condition.type.width == 1):
        return None
    builder = combine.builder_before(inst)
    return builder.select(condition.operands[0], inst.false_value,
                          inst.true_value)


def rule_select_bool_constant_arms(inst, combine) -> Optional[Value]:
    """select c, true, C  ->  or c, C  /  select c, C, false  ->  and c, C.

    Only with a *constant* other arm: with an arbitrary value the or/and
    form would let poison flow where select blocked it.
    """
    if inst.KIND != "select":
        return None
    if not (inst.type.IS_INTEGER and inst.type.width == 1):
        return None
    builder = combine.builder_before(inst)
    if inst.true_value.KIND == "int" and inst.true_value.is_one() \
            and inst.false_value.KIND == "int":
        return builder.or_(inst.condition, inst.false_value)
    if inst.false_value.KIND == "int" and inst.false_value.is_zero() \
            and inst.true_value.KIND == "int":
        return builder.and_(inst.condition, inst.true_value)
    return None


_MINMAX_FOR_PREDICATE = {
    # select (x PRED C) ? x : C  canonicalizes to this intrinsic.
    "slt": "llvm.smin",
    "sgt": "llvm.smax",
    "ult": "llvm.umin",
    "ugt": "llvm.umax",
}


def rule_canonicalize_clamp_like(inst, combine) -> Optional[Value]:
    """Clamp patterns become min/max intrinsics:

        select (icmp slt x, C), x, C  ->  smin(x, C)
        select (icmp slt x, C), C, x  ->  smax(x, C)

    Bug 53252: the buggy version keeps the *signed* intrinsic even when
    the predicate was unsigned — "didn't update the predicate".
    """
    if inst.KIND != "select":
        return None
    if not inst.type.IS_INTEGER or inst.type.width == 1:
        return None
    compare = inst.condition
    if not (compare.KIND == "icmp" and is_one_use(compare)
            and compare.operands[1].KIND == "int"):
        return None
    base = _MINMAX_FOR_PREDICATE.get(compare.predicate)
    if base is None:
        return None
    x, c = compare.operands[0], compare.operands[1]
    if inst.true_value is x and same_value(inst.false_value, c):
        chosen = base
    elif same_value(inst.true_value, c) and inst.false_value is x:
        chosen = {"llvm.smin": "llvm.smax", "llvm.smax": "llvm.smin",
                  "llvm.umin": "llvm.umax", "llvm.umax": "llvm.umin"}[base]
    else:
        return None
    if combine.ctx.bug_enabled("53252") and chosen.startswith("llvm.u"):
        combine.ctx.note_bug_trigger("53252")
        chosen = chosen.replace("llvm.u", "llvm.s")
    module = combine.module
    if module is None or not supports_width(chosen, inst.type.width):
        return None
    callee = declare_intrinsic(module, chosen, inst.type.width)
    builder = combine.builder_before(inst)
    return builder.call(callee, [x, c])


def rule_select_same_compare_operands(inst, combine) -> Optional[Value]:
    """select (icmp eq a, b), a, b  ->  b  (equal when taken, b otherwise)."""
    if inst.KIND != "select":
        return None
    compare = inst.condition
    if not (compare.KIND == "icmp" and compare.predicate == "eq"):
        return None
    lhs, rhs = compare.operands
    if inst.true_value is lhs and inst.false_value is rhs:
        return inst.false_value
    if inst.true_value is rhs and inst.false_value is lhs:
        return inst.false_value
    return None


def rule_select_of_selects(inst, combine) -> Optional[Value]:
    """select c, (select c, x, y), z  ->  select c, x, z (same condition)."""
    if inst.KIND != "select":
        return None
    condition = inst.condition
    true_value = inst.true_value
    false_value = inst.false_value
    builder = combine.builder_before(inst)
    if true_value.KIND == "select" and true_value.condition is condition:
        return builder.select(condition, true_value.true_value, false_value)
    if false_value.KIND == "select" and false_value.condition is condition:
        return builder.select(condition, true_value, false_value.false_value)
    return None


def rule_select_zext_arms(inst, combine) -> Optional[Value]:
    """select c, 1, 0  ->  zext c (and select c, 0, 1 -> zext (xor c))."""
    if inst.KIND != "select":
        return None
    if not inst.type.IS_INTEGER or inst.type.width <= 1:
        return None
    t, f = inst.true_value, inst.false_value
    if not (t.KIND == "int" and f.KIND == "int"):
        return None
    builder = combine.builder_before(inst)
    if t.is_one() and f.is_zero():
        return builder.zext(inst.condition, inst.type)
    if t.is_zero() and f.is_one():
        inverted = builder.xor(inst.condition, ConstantInt(IntType(1), 1))
        return builder.zext(inverted, inst.type)
    return None


RULES = [
    rule("select-inverted-cond", rule_select_inverted_condition, "select"),
    rule("select-bool-const-arms", rule_select_bool_constant_arms, "select"),
    rule("canonicalize-clamp-like", rule_canonicalize_clamp_like, "select"),
    rule("select-eq-operands", rule_select_same_compare_operands, "select"),
    rule("select-of-selects", rule_select_of_selects, "select"),
    rule("select-zext-arms", rule_select_zext_arms, "select"),
]
