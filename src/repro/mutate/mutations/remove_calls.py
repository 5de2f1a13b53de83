"""Void-call removal (paper §IV-C, Listing 7).

Dropping a call to a void function changes the program's memory behavior
(the callee may have clobbered memory) but never breaks SSA — the call
has no result to have users.
"""

from __future__ import annotations

from typing import List

from ...analysis.overlay import MutantOverlay
from ..rng import MutationRNG


def _void_call_scan(function) -> List[tuple]:
    return [(bi, ii)
            for bi, block in enumerate(function.blocks)
            for ii, inst in enumerate(block.instructions)
            if inst.KIND == "call" and inst.type.IS_VOID
            and inst.intrinsic_name() != "llvm.assume"]


def _any_void_call_scan(function) -> List[tuple]:
    return [(bi, ii)
            for bi, block in enumerate(function.blocks)
            for ii, inst in enumerate(block.instructions)
            if inst.KIND == "call" and inst.type.IS_VOID]


def apply(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    candidates = overlay.enumerate_sites("void-calls", _void_call_scan)
    victim = rng.maybe_choice(candidates)
    if victim is None:
        return False
    victim.erase_from_parent()
    return True


def apply_including_assumes(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    """Variant that may also drop llvm.assume calls (strictly weakening)."""
    candidates = overlay.enumerate_sites("void-calls-all", _any_void_call_scan)
    victim = rng.maybe_choice(candidates)
    if victim is None:
        return False
    victim.erase_from_parent()
    return True
