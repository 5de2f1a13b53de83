"""Instruction motion (paper §IV-G, Listing 12).

Moving an instruction breaks two kinds of SSA edges, both repaired with
the dominating-value primitive:

* moving UP past a definition it uses — the use is replaced with a fresh
  dominating value;
* moving DOWN past one of its users — that user's use of the moved
  instruction is replaced.
"""

from __future__ import annotations

from typing import List

from ...analysis.overlay import MutantOverlay
from ...ir.instructions import Instruction
from ..primitives import replace_operand_with_dominating
from ..rng import MutationRNG


def _movable_scan(function) -> List[tuple]:
    movable: List[tuple] = []
    for bi, block in enumerate(function.blocks):
        lo = block.first_non_phi_index()
        hi = len(block.instructions)
        if block.terminator() is not None:
            hi -= 1
        if hi - lo >= 2:
            movable.extend((bi, ii) for ii in range(lo, hi))
    return movable


def _movable(overlay: MutantOverlay) -> List[Instruction]:
    return overlay.enumerate_sites("movable", _movable_scan)


def apply(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    victim = rng.maybe_choice(_movable(overlay))
    if victim is None:
        return False
    block = victim.parent
    lo = block.first_non_phi_index()
    hi = len(block.instructions)
    if block.terminator() is not None:
        hi -= 1
    old_index = block.index_of(victim)
    choices = [i for i in range(lo, hi) if i != old_index]
    if not choices:
        return False
    new_index = rng.choice(choices)

    block.remove(victim)
    block.insert(new_index, victim)

    if new_index < old_index:
        # Moved up: operands now defined after the new position must be
        # replaced (the Listing 12 case: %c moves above %a and %b).
        crossed = {id(inst) for inst in block.instructions
                   if inst is not victim
                   and new_index < block.index_of(inst) <= old_index}
        for index, operand in enumerate(list(victim.operands)):
            if operand.IS_INSTRUCTION and id(operand) in crossed:
                replace_operand_with_dominating(overlay, victim, index, rng)
    else:
        # Moved down: users between the old and new position lose their
        # dominating definition.
        for use in victim.uses:
            user = use.user
            if user.KIND == "phi" or user.parent is not block:
                continue
            user_index = block.index_of(user)
            if old_index <= user_index < block.index_of(victim):
                replace_operand_with_dominating(overlay, user, use.index, rng)
    overlay.invalidate_positions()
    return True
