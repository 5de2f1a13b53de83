"""InstCombine rules for and/or/xor."""

from __future__ import annotations

from typing import Optional

from ....analysis.knownbits import compute_known_bits
from ....ir.types import IntType
from ....ir.values import ConstantInt, Value
from ...matchers import is_one_use
from ...rewrite import rule


def rule_xor_of_icmp_inverts(inst, combine) -> Optional[Value]:
    """xor (icmp pred a, b), true  ->  icmp !pred a, b.

    This is the canonicalization that turns the paper's Listing 2
    ``xor %t2, true`` into an inverted compare during optimization.
    """
    if not (inst.KIND == "binop" and inst.opcode == "xor"):
        return None
    if not (inst.type.IS_INTEGER and inst.type.width == 1):
        return None
    for compare, other in (inst.operands, inst.operands[::-1]):
        if compare.KIND == "icmp" and is_one_use(compare) \
                and other.KIND == "int" and other.is_one():
            builder = combine.builder_before(inst)
            return builder.icmp(compare.inverted_predicate(),
                                compare.operands[0], compare.operands[1])
    return None


def rule_demorgan(inst, combine) -> Optional[Value]:
    """and (xor a, -1), (xor b, -1)  ->  xor (or a, b), -1 (and dual)."""
    if not (inst.KIND == "binop"
            and inst.opcode in ("and", "or")):
        return None
    lhs, rhs = inst.operands[0], inst.operands[1]

    def inverted(value):
        if value.KIND == "binop" and value.opcode == "xor" \
                and value.operands[1].KIND == "int" \
                and value.operands[1].is_all_ones() and is_one_use(value):
            return value.operands[0]
        return None

    a = inverted(lhs)
    b = inverted(rhs)
    if a is None or b is None:
        return None
    builder = combine.builder_before(inst)
    dual = "or" if inst.opcode == "and" else "and"
    combined = builder.binop(dual, a, b)
    return builder.xor(combined, ConstantInt(inst.type, inst.type.mask))


def rule_and_or_absorb(inst, combine) -> Optional[Value]:
    """and x, (or x, y)  ->  x   and   or x, (and x, y)  ->  x."""
    if not (inst.KIND == "binop"
            and inst.opcode in ("and", "or")):
        return None
    dual = "or" if inst.opcode == "and" else "and"
    for first, second in (inst.operands, inst.operands[::-1]):
        if second.KIND == "binop" and second.opcode == dual:
            if second.operands[0] is first or second.operands[1] is first:
                return first
    return None


def rule_and_with_known_mask(inst, combine) -> Optional[Value]:
    """and x, C  ->  x when known bits prove C covers every possibly-set
    bit of x."""
    if not (inst.KIND == "binop" and inst.opcode == "and"):
        return None
    if inst.operands[1].KIND != "int":
        return None
    known = compute_known_bits(inst.operands[0], 0, combine.known_bits)
    possibly_set = known.mask & ~known.zero
    if possibly_set & ~inst.operands[1].value:
        return None
    if inst.operands[1].is_all_ones():
        return None  # instsimplify handles it
    return inst.operands[0]


def rule_or_disjoint_to_add(inst, combine) -> Optional[Value]:
    """add x, y  ->  or x, y when their set bits are provably disjoint.

    (The canonical LLVM direction; `or` exposes more bitwise facts.)
    """
    if not (inst.KIND == "binop" and inst.opcode == "add"):
        return None
    if inst.nuw or inst.nsw:
        return None  # keep flag-carrying adds for other rules
    lhs_known = compute_known_bits(inst.operands[0], 0, combine.known_bits)
    rhs_known = compute_known_bits(inst.operands[1], 0, combine.known_bits)
    lhs_possible = lhs_known.mask & ~lhs_known.zero
    rhs_possible = rhs_known.mask & ~rhs_known.zero
    if lhs_possible & rhs_possible:
        return None
    if inst.operands[0].KIND == "int" or inst.operands[1].KIND == "int":
        if lhs_possible == 0 or rhs_possible == 0:
            return None  # add x, 0 is instsimplify's job
    builder = combine.builder_before(inst)
    return builder.or_(inst.operands[0], inst.operands[1])


def rule_xor_icmp_pair(inst, combine) -> Optional[Value]:
    """xor (icmp eq a, b), (icmp ne a, b)  ->  true."""
    if not (inst.KIND == "binop" and inst.opcode == "xor"):
        return None
    lhs, rhs = inst.operands[0], inst.operands[1]
    if not (lhs.KIND == "icmp" and rhs.KIND == "icmp"):
        return None
    if lhs.operands[0] is rhs.operands[0] \
            and lhs.operands[1] is rhs.operands[1] \
            and lhs.inverted_predicate() == rhs.predicate:
        return ConstantInt(IntType(1), 1)
    return None


RULES = [
    rule("xor-icmp-invert", rule_xor_of_icmp_inverts, "xor"),
    rule("demorgan", rule_demorgan, "and", "or"),
    rule("and-or-absorb", rule_and_or_absorb, "and", "or"),
    rule("and-known-mask", rule_and_with_known_mask, "and"),
    # Anchored at an *add* of disjoint bits (rewritten to or), despite
    # living in the bitwise module.
    rule("or-disjoint-add", rule_or_disjoint_to_add, "add"),
    rule("xor-icmp-pair", rule_xor_icmp_pair, "xor"),
]
