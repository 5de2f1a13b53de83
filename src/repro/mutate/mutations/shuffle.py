"""Instruction shuffling (paper §IV-D, Listing 8).

Consecutive instructions with no mutual def-use dependencies can be
permuted without breaking SSA.  The maximal ranges are precomputed on the
*original* function (§III-A) and read through the two-level overlay; each
is re-validated against the mutant (a prior mutation may have rewritten
operands inside the range) before permuting.
"""

from __future__ import annotations

from ...analysis.overlay import MutantOverlay
from ...analysis.shuffle_ranges import range_is_still_valid
from ..rng import MutationRNG


def apply(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    ranges = overlay.shuffle_ranges
    if not ranges:
        return False
    for shuffle_range in rng.shuffled(ranges):
        block = overlay.mutant.block_named(shuffle_range.block_name)
        if block is None:
            continue
        if not range_is_still_valid(block, shuffle_range):
            continue
        start, end = shuffle_range.start, shuffle_range.end
        selected = block.instructions[start:end]
        permuted = rng.shuffled(selected)
        if all(a is b for a, b in zip(selected, permuted)):
            # Identity permutation: rotate instead so something changes.
            permuted = selected[1:] + selected[:1]
        block.instructions[start:end] = permuted
        overlay.invalidate_positions()
        return True
    return False
