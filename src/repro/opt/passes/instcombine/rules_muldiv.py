"""InstCombine rules for mul/div/rem.

Hosts seeded bug 59836 (miscompilation): "precondition of a peephole
optimization is too weak" — a mul of two zero-extended values is marked
``nuw``, but the buggy precondition also accepts operands that were
*truncated after* the zero-extension, which can reintroduce high bits
(the paper's Listing 17 shape).
"""

from __future__ import annotations

from typing import Optional

from ....ir.values import ConstantInt, Value
from ...rewrite import rule


def _log2_exact(value: int) -> Optional[int]:
    if value <= 0 or value & (value - 1):
        return None
    return value.bit_length() - 1


def rule_mul_pow2_to_shl(inst, combine) -> Optional[Value]:
    """mul x, 2**C  ->  shl x, C (flags carry over)."""
    if not (inst.KIND == "binop" and inst.opcode == "mul"):
        return None
    if inst.operands[1].KIND != "int":
        return None
    shift = _log2_exact(inst.operands[1].value)
    if shift is None or shift == 0:
        return None
    if shift >= inst.type.width:
        return None
    # nsw only transfers when the constant is a *positive* signed power of
    # two; 2**(w-1) is the signed minimum, where `mul nsw x, INT_MIN` and
    # `shl nsw x, w-1` poison on different inputs.
    keep_nsw = inst.nsw and shift < inst.type.width - 1
    builder = combine.builder_before(inst)
    return builder.shl(inst.operands[0], ConstantInt(inst.type, shift),
                       nuw=inst.nuw, nsw=keep_nsw)


def rule_mul_allones_to_neg(inst, combine) -> Optional[Value]:
    """mul x, -1  ->  sub 0, x (drops nuw/nsw: x*-1 nsw poisons only at
    INT_MIN, exactly like 0-x nsw, so nsw could be kept — we keep it)."""
    if not (inst.KIND == "binop" and inst.opcode == "mul"):
        return None
    if not (inst.operands[1].KIND == "int" and inst.operands[1].is_all_ones()):
        return None
    if inst.type.width == 1:
        return None
    builder = combine.builder_before(inst)
    return builder.sub(ConstantInt(inst.type, 0), inst.operands[0],
                       nsw=inst.nsw)


def _zext_source_width(value: Value, look_through_trunc: bool) -> Optional[int]:
    """Effective value-range width if ``value`` is (trunc of) a zext.

    The sound version refuses to look through trunc; the buggy version
    (59836) accepts it and reports the *original* zext source width even
    though the trunc may have reintroduced high bits.
    """
    if value.KIND == "cast" and value.opcode == "zext":
        return value.src_type.width
    if look_through_trunc and value.KIND == "cast" \
            and value.opcode == "trunc":
        inner = value.value
        if inner.KIND == "cast" and inner.opcode == "zext":
            return inner.src_type.width
    return None


def rule_mul_of_zexts_is_nuw(inst, combine) -> Optional[Value]:
    """mul (zext a), (zext b) cannot overflow when the source widths fit:
    mark it nuw (and nsw when there is also a spare sign bit)."""
    if not (inst.KIND == "binop" and inst.opcode == "mul"):
        return None
    if inst.nuw:
        return None
    buggy = combine.ctx.bug_enabled("59836")
    lhs_width = _zext_source_width(inst.operands[0], look_through_trunc=buggy)
    rhs_width = _zext_source_width(inst.operands[1], look_through_trunc=buggy)
    if lhs_width is None or rhs_width is None:
        return None
    if lhs_width + rhs_width > inst.type.width:
        # The sound precondition: the product of values below 2**lhs_width
        # and 2**rhs_width fits. The buggy version trusts "both operands
        # come from zext" alone, exactly like PR59836.
        if not buggy:
            return None
        combine.ctx.note_bug_trigger("59836")
    inst.nuw = True
    if lhs_width + rhs_width < inst.type.width:
        inst.nsw = True
    return inst


def rule_udiv_pow2_to_lshr(inst, combine) -> Optional[Value]:
    """udiv x, 2**C  ->  lshr x, C (exact carries over)."""
    if not (inst.KIND == "binop" and inst.opcode == "udiv"):
        return None
    if inst.operands[1].KIND != "int":
        return None
    shift = _log2_exact(inst.operands[1].value)
    if shift is None:
        return None
    if shift == 0:
        return inst.operands[0]
    builder = combine.builder_before(inst)
    return builder.lshr(inst.operands[0], ConstantInt(inst.type, shift),
                        exact=inst.exact)


def rule_urem_pow2_to_and(inst, combine) -> Optional[Value]:
    """urem x, 2**C  ->  and x, 2**C - 1."""
    if not (inst.KIND == "binop" and inst.opcode == "urem"):
        return None
    if inst.operands[1].KIND != "int":
        return None
    if _log2_exact(inst.operands[1].value) is None:
        return None
    builder = combine.builder_before(inst)
    return builder.and_(inst.operands[0],
                        ConstantInt(inst.type, inst.operands[1].value - 1))


def rule_mul_shl_operand(inst, combine) -> Optional[Value]:
    """mul (shl x, C), y  ->  shl (mul x, y), C — only with one use and no
    flags (the regrouping changes intermediate overflow)."""
    if not (inst.KIND == "binop" and inst.opcode == "mul"):
        return None
    if inst.nuw or inst.nsw:
        return None
    for first, second in (inst.operands, inst.operands[::-1]):
        if first.KIND == "binop" and first.opcode == "shl" \
                and first.num_uses() == 1 \
                and first.operands[1].KIND == "int" \
                and not (first.nuw or first.nsw):
            builder = combine.builder_before(inst)
            product = builder.mul(first.operands[0], second)
            return builder.shl(product, first.operands[1])
    return None


RULES = [
    rule("mul-pow2-to-shl", rule_mul_pow2_to_shl, "mul"),
    rule("mul-allones-to-neg", rule_mul_allones_to_neg, "mul"),
    rule("mul-zext-zext-nuw", rule_mul_of_zexts_is_nuw, "mul"),
    rule("udiv-pow2-to-lshr", rule_udiv_pow2_to_lshr, "udiv"),
    rule("urem-pow2-to-and", rule_urem_pow2_to_and, "urem"),
    rule("mul-shl-regroup", rule_mul_shl_operand, "mul"),
]
