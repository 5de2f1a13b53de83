"""InstCombine rules for add/sub."""

from __future__ import annotations

from typing import Optional

from ....ir.values import ConstantInt, Value
from ...matchers import Capture, is_one_use, m_any, m_neg, m_not
from ...rewrite import rule


def rule_add_self_to_shl(inst, combine) -> Optional[Value]:
    """add x, x  ->  shl x, 1 (flags carry over: both compute 2*x)."""
    if not (inst.KIND == "binop" and inst.opcode == "add"):
        return None
    if inst.operands[0] is not inst.operands[1]:
        return None
    if inst.type.width == 1:
        return None  # shl i1 x, 1 would be poison
    builder = combine.builder_before(inst)
    return builder.shl(inst.operands[0], ConstantInt(inst.type, 1),
                       nuw=inst.nuw, nsw=inst.nsw)


def rule_add_of_not_is_neg_like(inst, combine) -> Optional[Value]:
    """add (xor x, -1), 1  ->  sub 0, x  (i.e. ~x + 1 == -x)."""
    if not (inst.KIND == "binop" and inst.opcode == "add"):
        return None
    inner = Capture()
    matched = None
    lhs, rhs = inst.operands
    if m_not(m_any(inner))(lhs) and rhs.KIND == "int" and rhs.is_one():
        matched = inner.value
    elif m_not(m_any(inner))(rhs) and lhs.KIND == "int" and lhs.is_one():
        matched = inner.value
    if matched is None:
        return None
    builder = combine.builder_before(inst)
    return builder.sub(ConstantInt(inst.type, 0), matched)


def rule_sub_of_sub_constant(inst, combine) -> Optional[Value]:
    """sub C1, (sub C2, x)  ->  add x, (C1 - C2); flags dropped."""
    if not (inst.KIND == "binop" and inst.opcode == "sub"):
        return None
    if inst.operands[0].KIND != "int":
        return None
    inner = inst.operands[1]
    if not (inner.KIND == "binop" and inner.opcode == "sub"
            and is_one_use(inner) and inner.operands[0].KIND == "int"):
        return None
    difference = ((inst.operands[0].value - inner.operands[0].value)
                  & inst.type.mask)
    builder = combine.builder_before(inst)
    return builder.add(inner.operands[1], ConstantInt(inst.type, difference))


def rule_sub_neg_to_add(inst, combine) -> Optional[Value]:
    """sub a, (sub 0, b)  ->  add a, b (flags dropped: -b may be poisoned
    differently)."""
    if not (inst.KIND == "binop" and inst.opcode == "sub"):
        return None
    negated = Capture()
    if not m_neg(m_any(negated))(inst.operands[1]):
        return None
    if not (inst.operands[1].KIND == "binop" and is_one_use(inst.operands[1])):
        return None
    builder = combine.builder_before(inst)
    return builder.add(inst.operands[0], negated.value)


def rule_add_sub_cancel(inst, combine) -> Optional[Value]:
    """add (sub a, b), b  ->  a   (also the commuted form).

    Flags on the sub do not matter: when the sub does not overflow both
    sides equal a; when it does, the sub was poison and a refines poison.
    """
    if not (inst.KIND == "binop" and inst.opcode == "add"):
        return None
    for first, second in (inst.operands, inst.operands[::-1]):
        if first.KIND == "binop" and first.opcode == "sub" \
                and first.operands[1] is second:
            return first.operands[0]
    return None


def rule_sub_add_cancel(inst, combine) -> Optional[Value]:
    """sub (add a, b), a  ->  b (either position of a)."""
    if not (inst.KIND == "binop" and inst.opcode == "sub"):
        return None
    inner = inst.operands[0]
    if inner.KIND == "binop" and inner.opcode == "add":
        if inner.operands[0] is inst.operands[1]:
            return inner.operands[1]
        if inner.operands[1] is inst.operands[1]:
            return inner.operands[0]
    return None


def rule_sub_constant_to_add(inst, combine) -> Optional[Value]:
    """sub x, C  ->  add x, -C (canonicalization; nsw is dropped because
    negating C can overflow at the type's minimum)."""
    if not (inst.KIND == "binop" and inst.opcode == "sub"):
        return None
    if inst.operands[1].KIND != "int" or inst.operands[0].KIND == "int":
        return None
    if inst.operands[1].is_zero():
        return None
    builder = combine.builder_before(inst)
    negated = (-inst.operands[1].value) & inst.type.mask
    return builder.add(inst.operands[0], ConstantInt(inst.type, negated))


RULES = [
    rule("add-self-to-shl", rule_add_self_to_shl, "add"),
    rule("add-not-one-to-neg", rule_add_of_not_is_neg_like, "add"),
    rule("sub-of-sub-const", rule_sub_of_sub_constant, "sub"),
    rule("sub-neg-to-add", rule_sub_neg_to_add, "sub"),
    rule("add-sub-cancel", rule_add_sub_cancel, "add"),
    rule("sub-add-cancel", rule_sub_add_cancel, "sub"),
    rule("sub-const-to-add", rule_sub_constant_to_add, "sub"),
]
