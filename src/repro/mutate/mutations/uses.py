"""Use mutation (paper §IV-F, Listings 10 and 11).

Replaces a randomly-chosen SSA use with a value produced by the
dominating-value primitive: an existing in-scope value, a fresh constant,
a fresh random instruction, or a fresh function parameter.
"""

from __future__ import annotations

from typing import List, Tuple

from ...analysis.overlay import MutantOverlay
from ...ir.instructions import Instruction
from ..primitives import replace_operand_with_dominating
from ..rng import MutationRNG


def _use_scan(function) -> List[tuple]:
    sites: List[tuple] = []
    for bi, block in enumerate(function.blocks):
        for ii, inst in enumerate(block.instructions):
            kind = inst.KIND
            if kind == "switch":
                continue  # case constants / labels: structural constraints
            for index, operand in enumerate(inst.operands):
                if operand.KIND == "block":
                    continue
                if kind == "phi" and index % 2 == 1:
                    continue
                if kind == "br" and index > 0:
                    continue
                if not operand.type.IS_FIRST_CLASS:
                    continue
                sites.append((bi, ii, index))
    return sites


def _use_sites(overlay: MutantOverlay) -> List[Tuple[Instruction, int]]:
    return overlay.enumerate_sites("uses", _use_scan)


def apply(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    sites = _use_sites(overlay)
    if not sites:
        return False
    inst, index = rng.choice(sites)
    return replace_operand_with_dominating(overlay, inst, index, rng)
