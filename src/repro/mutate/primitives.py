"""The dominating-value primitive (paper §IV-F).

    "for a given program point, randomly generate a dominating SSA value
     with compatible type"

These conditions are necessary and sufficient for replacing an arbitrary
SSA use without breaking SSA invariants.  The value produced is one of:

* an existing dominating value of the right type (argument or instruction),
* a fresh literal constant (very rarely ``undef``),
* a fresh randomly-generated instruction whose operands are chosen by
  recursively invoking this same primitive, or
* a fresh function parameter (as in the paper's Listing 11).

The program point is an *anchor instruction*: fresh instructions are
inserted immediately before it, and availability is judged at its slot.
Anchoring (rather than passing numeric slots) keeps positions stable while
recursive invocations insert operands.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.overlay import MutantOverlay
from ..ir.builder import IRBuilder
from ..ir.instructions import BINARY_OPCODES, ICMP_PREDICATES, Instruction
from ..ir.intrinsics import (GENERATABLE_BINARY_INTRINSICS, declare_intrinsic,
                             supports_width)
from ..ir.types import IntType, Type
from ..ir.values import (ConstantInt, ConstantPointerNull, PoisonValue,
                         UndefValue, Value)
from .rng import MutationRNG

MAX_RECURSION = 2
UNDEF_PROBABILITY = 0.03


def random_dominating_value(overlay: MutantOverlay, anchor: Instruction,
                            type: Type, rng: MutationRNG,
                            depth: int = 0,
                            allow_undef: bool = True) -> Value:
    """A type-compatible SSA value available just before ``anchor``.

    May insert fresh instructions before ``anchor`` and may append fresh
    function parameters.
    """
    block = anchor.parent
    roll = rng.random()
    existing = overlay.dominating_values_at(block, block.index_of(anchor), type)
    if existing and roll < 0.55:
        return rng.choice(existing)
    if type.IS_INTEGER:
        if roll < 0.75 or depth >= MAX_RECURSION:
            return random_constant(type, overlay, rng, allow_undef)
        fresh = _random_instruction(overlay, anchor, type, rng, depth)
        if fresh is not None:
            return fresh
        return random_constant(type, overlay, rng, allow_undef)
    if type.IS_POINTER:
        if allow_undef and rng.chance(UNDEF_PROBABILITY):
            return UndefValue(type)
        if roll < 0.8 and not overlay.signature_is_frozen():
            return _fresh_parameter(overlay, type)
        return ConstantPointerNull()
    if not overlay.signature_is_frozen():
        return _fresh_parameter(overlay, type)
    if existing:
        return rng.choice(existing)
    if type.IS_INTEGER:
        return random_constant(type, overlay, rng, allow_undef)
    return ConstantPointerNull()


def random_constant(type: IntType, overlay: MutantOverlay, rng: MutationRNG,
                    allow_undef: bool = True) -> Value:
    if allow_undef and rng.chance(UNDEF_PROBABILITY):
        # LLVM's own test suite uses undef and poison literals; both are
        # valid inputs to the optimizer, so the mutator produces them too.
        if rng.chance(0.4):
            return PoisonValue(type)
        return UndefValue(type)
    pool = overlay.constant_pool.values_for_width(type.width)
    return ConstantInt(type, rng.random_int_value(type.width, pool))


def _fresh_parameter(overlay: MutantOverlay, type: Type) -> Value:
    function = overlay.mutant
    return function.add_argument(type, function.next_temp_name())


def _random_instruction(overlay: MutantOverlay, anchor: Instruction,
                        type: IntType, rng: MutationRNG,
                        depth: int) -> Optional[Value]:
    """Insert a fresh instruction computing ``type`` just before ``anchor``."""

    def operand(of_type: Type = type) -> Value:
        return random_dominating_value(overlay, anchor, of_type, rng,
                                       depth + 1)

    def builder() -> IRBuilder:
        b = IRBuilder()
        b.set_insert_before(anchor)
        return b

    kind = rng.choice(["binop", "binop", "cmp-or-ext", "intrinsic", "select"])
    if kind == "binop":
        opcode = rng.choice(BINARY_OPCODES)
        lhs, rhs = operand(), operand()
        flags = {}
        if opcode in ("add", "sub", "mul", "shl"):
            flags = {"nuw": rng.chance(0.25), "nsw": rng.chance(0.25)}
        elif opcode in ("udiv", "sdiv", "lshr", "ashr"):
            flags = {"exact": rng.chance(0.2)}
        return builder().binop(opcode, lhs, rhs, **flags)
    if kind == "intrinsic":
        eligible = [name for name in GENERATABLE_BINARY_INTRINSICS
                    if supports_width(name, type.width)]
        module = overlay.mutant.parent
        if not eligible or module is None:
            return None
        callee = declare_intrinsic(module, rng.choice(eligible), type.width)
        lhs, rhs = operand(), operand()
        return builder().call(callee, [lhs, rhs])
    if kind == "select" and type.width > 1:
        condition = operand(IntType(1))
        true_value, false_value = operand(), operand()
        return builder().select(condition, true_value, false_value)
    # Fall-through ("cmp-or-ext", or select at i1): an icmp for i1 results,
    # otherwise a zext of a fresh i1.
    if type.width == 1:
        lhs = operand()
        rhs = operand()
        return builder().icmp(rng.choice(ICMP_PREDICATES), lhs, rhs)
    condition = operand(IntType(1))
    return builder().zext(condition, type)


def replace_operand_with_dominating(overlay: MutantOverlay,
                                    inst: Instruction, operand_index: int,
                                    rng: MutationRNG) -> bool:
    """Replace one operand of ``inst`` using the primitive (the §IV-F
    use mutation)."""

    if inst.parent is None:
        return False
    operand = inst.operands[operand_index]
    if not operand.type.IS_FIRST_CLASS:
        return False
    anchor: Instruction = inst
    if inst.KIND == "phi":
        if operand_index % 2 == 1:
            return False  # the block operand of an incoming edge
        # A phi value must dominate the END of its incoming block, and
        # nothing may be inserted before a phi: anchor at the incoming
        # block's terminator instead.
        incoming_block = inst.operands[operand_index + 1]
        terminator = incoming_block.terminator()
        if terminator is None:
            return False
        anchor = terminator
    replacement = random_dominating_value(overlay, anchor, operand.type, rng)
    inst.set_operand(operand_index, replacement)
    return True
