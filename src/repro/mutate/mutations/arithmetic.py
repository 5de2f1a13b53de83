"""Arithmetic mutations (paper §IV-E).

Randomly: changes the operation (e.g. add -> shl), swaps the two operands
of binary instructions, toggles poison flags (nuw/nsw/exact), and replaces
literal constants with values drawn from the function's constant pool or
fresh random values.  GEP is treated as arithmetic (its indices mutate like
constants); icmp predicates also rotate here.
"""

from __future__ import annotations

from typing import List, Tuple

from ...analysis.overlay import MutantOverlay
from ...ir.instructions import (BINARY_OPCODES, BinaryOperator,
                                EXACT_FLAG_OPCODES, ICMP_PREDICATES,
                                Instruction, WRAPPING_FLAG_OPCODES)
from ..primitives import random_constant
from ..rng import MutationRNG


def apply(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    action = rng.choice(["opcode", "swap", "flags", "constant", "constant",
                         "predicate"])
    if action == "opcode":
        return change_opcode(overlay, rng)
    if action == "swap":
        return swap_operands(overlay, rng)
    if action == "flags":
        return toggle_flags(overlay, rng)
    if action == "predicate":
        return change_predicate(overlay, rng)
    return replace_constant(overlay, rng)


def _binop_scan(function) -> List[tuple]:
    return [(bi, ii)
            for bi, block in enumerate(function.blocks)
            for ii, inst in enumerate(block.instructions)
            if inst.KIND == "binop"]


def _icmp_scan(function) -> List[tuple]:
    return [(bi, ii)
            for bi, block in enumerate(function.blocks)
            for ii, inst in enumerate(block.instructions)
            if inst.KIND == "icmp"]


def _binops(overlay: MutantOverlay) -> List[BinaryOperator]:
    return overlay.enumerate_sites("binops", _binop_scan)


def change_opcode(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    """Turn one binary operation into a random different one."""
    victim = rng.maybe_choice(_binops(overlay))
    if victim is None:
        return False
    others = [op for op in BINARY_OPCODES if op != victim.opcode]
    victim.opcode = rng.choice(others)
    # Drop flags the new opcode cannot carry.
    if victim.opcode not in WRAPPING_FLAG_OPCODES:
        victim.nuw = victim.nsw = False
    if victim.opcode not in EXACT_FLAG_OPCODES:
        victim.exact = False
    return True


def swap_operands(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    candidates: List[Instruction] = list(_binops(overlay))
    candidates.extend(overlay.enumerate_sites("icmps", _icmp_scan))
    victim = rng.maybe_choice(candidates)
    if victim is None:
        return False
    lhs, rhs = victim.operands[0], victim.operands[1]
    victim.set_operand(0, rhs)
    victim.set_operand(1, lhs)
    return True


def toggle_flags(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    candidates = [inst for inst in _binops(overlay)
                  if inst.supports_wrapping_flags()
                  or inst.supports_exact_flag()]
    victim = rng.maybe_choice(candidates)
    if victim is None:
        return False
    if victim.supports_wrapping_flags():
        which = rng.choice(["nuw", "nsw", "both"])
        if which in ("nuw", "both"):
            victim.nuw = not victim.nuw
        if which in ("nsw", "both"):
            victim.nsw = not victim.nsw
    else:
        victim.exact = not victim.exact
    return True


def change_predicate(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    candidates = overlay.enumerate_sites("icmps", _icmp_scan)
    victim = rng.maybe_choice(candidates)
    if victim is None:
        return False
    others = [p for p in ICMP_PREDICATES if p != victim.predicate]
    victim.predicate = rng.choice(others)
    return True


def _constant_scan(function) -> List[tuple]:
    """(block, instruction, operand) descriptors holding a mutable literal.

    Switch case values are excluded (uniqueness constraint); everything
    else — including intrinsic flag arguments and assume-bundle operands,
    which is how the campaign reaches the alignment bug — is fair game.
    """
    sites: List[tuple] = []
    for bi, block in enumerate(function.blocks):
        for ii, inst in enumerate(block.instructions):
            if inst.KIND == "switch":
                continue
            for index, operand in enumerate(inst.operands):
                if operand.KIND == "int":
                    sites.append((bi, ii, index))
    return sites


def _constant_sites(overlay: MutantOverlay) -> List[Tuple[Instruction, int]]:
    return overlay.enumerate_sites("constants", _constant_scan)


def replace_constant(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    site = rng.maybe_choice(_constant_sites(overlay))
    if site is None:
        return False
    inst, index = site
    old = inst.operands[index]
    replacement = random_constant(old.type, overlay, rng,
                                  allow_undef=rng.chance(0.5))
    inst.set_operand(index, replacement)
    return True
