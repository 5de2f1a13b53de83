"""InstCombine rules for shifts.

Hosts seeded bug 50693 (miscompilation): the "opposite shifts of -1"
simplification.  ``lshr (shl -1, x), x`` equals ``lshr -1, x`` (a low-bit
mask); the buggy version folds it to ``-1`` outright.
"""

from __future__ import annotations

from typing import Optional

from ....ir.values import ConstantInt, Value
from ...rewrite import rule


def rule_shl_shl_combine(inst, combine) -> Optional[Value]:
    """shl (shl x, C1), C2  ->  shl x, C1+C2 (or 0 when C1+C2 >= width).

    Flags are dropped: the combined shift has different overflow behavior.
    """
    if not (inst.KIND == "binop" and inst.opcode == "shl"):
        return None
    inner = inst.operands[0]
    if not (inner.KIND == "binop" and inner.opcode == "shl"
            and inner.operands[1].KIND == "int"
            and inst.operands[1].KIND == "int"):
        return None
    width = inst.type.width
    c1, c2 = inner.operands[1].value, inst.operands[1].value
    if c1 >= width or c2 >= width:
        return None  # already poison; leave it visible
    total = c1 + c2
    if total >= width:
        return ConstantInt(inst.type, 0)
    builder = combine.builder_before(inst)
    return builder.shl(inner.operands[0], ConstantInt(inst.type, total))


def rule_lshr_lshr_combine(inst, combine) -> Optional[Value]:
    """lshr (lshr x, C1), C2  ->  lshr x, C1+C2 (or 0)."""
    if not (inst.KIND == "binop" and inst.opcode == "lshr"):
        return None
    inner = inst.operands[0]
    if not (inner.KIND == "binop" and inner.opcode == "lshr"
            and inner.operands[1].KIND == "int"
            and inst.operands[1].KIND == "int"):
        return None
    width = inst.type.width
    c1, c2 = inner.operands[1].value, inst.operands[1].value
    if c1 >= width or c2 >= width:
        return None
    total = c1 + c2
    if total >= width:
        return ConstantInt(inst.type, 0)
    builder = combine.builder_before(inst)
    return builder.lshr(inner.operands[0], ConstantInt(inst.type, total))


def rule_shl_then_lshr_to_and(inst, combine) -> Optional[Value]:
    """lshr (shl x, C), C  ->  and x, (-1 >> C) — masks the top C bits."""
    if not (inst.KIND == "binop" and inst.opcode == "lshr"):
        return None
    inner = inst.operands[0]
    if not (inner.KIND == "binop" and inner.opcode == "shl"
            and inner.operands[1].KIND == "int"
            and inst.operands[1].KIND == "int"
            and inner.operands[1].value == inst.operands[1].value
            and inner.num_uses() == 1):
        return None
    width = inst.type.width
    shift = inst.operands[1].value
    if shift >= width:
        return None
    mask = inst.type.mask >> shift
    builder = combine.builder_before(inst)
    return builder.and_(inner.operands[0], ConstantInt(inst.type, mask))


def rule_opposite_shifts_of_allones(inst, combine) -> Optional[Value]:
    """lshr (shl -1, x), x  ->  lshr -1, x.

    Bug 50693: the buggy version returns -1, which is wrong for any
    nonzero x.
    """
    if not (inst.KIND == "binop" and inst.opcode == "lshr"):
        return None
    inner = inst.operands[0]
    if not (inner.KIND == "binop" and inner.opcode == "shl"
            and inner.operands[0].KIND == "int"
            and inner.operands[0].is_all_ones()
            and inner.operands[1] is inst.operands[1]):
        return None
    if combine.ctx.bug_enabled("50693"):
        combine.ctx.note_bug_trigger("50693")
        return ConstantInt(inst.type, inst.type.mask)
    builder = combine.builder_before(inst)
    return builder.lshr(ConstantInt(inst.type, inst.type.mask),
                        inst.operands[1])


def rule_ashr_of_nonnegative_to_lshr(inst, combine) -> Optional[Value]:
    """ashr (zext x), C  ->  lshr (zext x), C — the sign bit is zero."""
    if not (inst.KIND == "binop" and inst.opcode == "ashr"):
        return None
    lhs = inst.operands[0]
    if not (lhs.KIND == "cast" and lhs.opcode == "zext"
            and lhs.src_type.width < inst.type.width):
        return None
    builder = combine.builder_before(inst)
    return builder.lshr(lhs, inst.operands[1], exact=inst.exact)


RULES = [
    rule("shl-shl", rule_shl_shl_combine, "shl"),
    rule("lshr-lshr", rule_lshr_lshr_combine, "lshr"),
    rule("shl-lshr-to-and", rule_shl_then_lshr_to_and, "lshr"),
    rule("opposite-shifts-allones", rule_opposite_shifts_of_allones, "lshr"),
    rule("ashr-nonneg-to-lshr", rule_ashr_of_nonnegative_to_lshr, "ashr"),
]
