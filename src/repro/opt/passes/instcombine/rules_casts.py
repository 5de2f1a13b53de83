"""InstCombine rules for integer casts."""

from __future__ import annotations

from typing import Optional

from ....analysis.knownbits import is_known_non_negative
from ....ir.values import ConstantInt, Value
from ...matchers import is_one_use
from ...rewrite import rule


def rule_trunc_of_ext(inst, combine) -> Optional[Value]:
    """trunc (zext/sext x to M) to N folds by comparing N to x's width."""
    if not (inst.KIND == "cast" and inst.opcode == "trunc"):
        return None
    inner = inst.value
    if not (inner.KIND == "cast" and inner.opcode in ("zext", "sext")):
        return None
    src_width = inner.src_type.width
    dst_width = inst.type.width
    if dst_width == src_width:
        return inner.value
    builder = combine.builder_before(inst)
    if dst_width < src_width:
        return builder.trunc(inner.value, inst.type)
    return builder.cast(inner.opcode, inner.value, inst.type)


def rule_ext_of_ext(inst, combine) -> Optional[Value]:
    """zext(zext x) -> zext x; sext(sext x) -> sext x; sext(zext x) -> zext."""
    if not (inst.KIND == "cast" and inst.opcode in ("zext", "sext")):
        return None
    inner = inst.value
    if not (inner.KIND == "cast" and inner.opcode in ("zext", "sext")):
        return None
    builder = combine.builder_before(inst)
    if inner.opcode == "zext":
        # The middle value is non-negative, so the outer extension kind
        # does not matter: extend zero-style from the original source.
        return builder.zext(inner.value, inst.type)
    if inst.opcode == "sext":
        return builder.sext(inner.value, inst.type)
    return None


def rule_zext_of_trunc_same_width(inst, combine) -> Optional[Value]:
    """zext (trunc x to M) to N where N == width(x)  ->  and x, (2**M - 1)."""
    if not (inst.KIND == "cast" and inst.opcode == "zext"):
        return None
    inner = inst.value
    if not (inner.KIND == "cast" and inner.opcode == "trunc"
            and is_one_use(inner)):
        return None
    if inner.src_type is not inst.type:
        return None
    mask = (1 << inner.type.width) - 1
    builder = combine.builder_before(inst)
    return builder.and_(inner.value, ConstantInt(inst.type, mask))


def rule_sext_of_nonnegative(inst, combine) -> Optional[Value]:
    """sext x  ->  zext x when the sign bit of x is known zero."""
    if not (inst.KIND == "cast" and inst.opcode == "sext"):
        return None
    if not is_known_non_negative(inst.value, 0, combine.known_bits):
        return None
    builder = combine.builder_before(inst)
    return builder.zext(inst.value, inst.type)


RULES = [
    rule("trunc-of-ext", rule_trunc_of_ext, "trunc"),
    rule("ext-of-ext", rule_ext_of_ext, "zext", "sext"),
    rule("zext-trunc-to-and", rule_zext_of_trunc_same_width, "zext"),
    rule("sext-nonneg-to-zext", rule_sext_of_nonnegative, "sext"),
]
