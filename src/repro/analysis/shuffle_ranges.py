"""Maximal shufflable instruction ranges (paper §IV-D).

A run of consecutive instructions can be permuted freely — without breaking
SSA — when no instruction in the run uses the result of another instruction
in the run.  Semantics may well change (a load may move across a clobbering
call, as in the paper's Listing 8); that is the point of the mutation.
Phis must stay at the block head and terminators at the tail, so they never
participate.

Ranges are precomputed during initialization so the mutation itself is a
cheap permutation (the paper computes these "during its initialization phase
so that this mutation can be performed rapidly").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..ir.basicblock import BasicBlock
from ..ir.function import Function


@dataclass(frozen=True)
class ShuffleRange:
    """A maximal shufflable run: instruction slots [start, end) of a block."""

    block_name: str
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start


def shufflable_ranges_in_block(block: BasicBlock) -> List[ShuffleRange]:
    """Maximal runs of length >= 2 with no intra-run def-use edges."""
    instructions = block.instructions
    lo = block.first_non_phi_index()
    hi = len(instructions)
    if instructions and instructions[-1].IS_TERMINATOR:
        hi -= 1

    ranges: List[ShuffleRange] = []
    start = lo
    while start < hi:
        # Greedily extend [start, end) while independence holds.
        end = start + 1
        defined = {id(instructions[start])}
        while end < hi:
            candidate = instructions[end]
            if any(id(op) in defined for op in candidate.operands):
                break
            defined.add(id(candidate))
            end += 1
        if end - start >= 2:
            ranges.append(ShuffleRange(block.name, start, end))
        # Maximality: the next run may start anywhere after this run's start;
        # advancing to `end` keeps ranges disjoint, which is what the
        # mutation needs (a permutation target).
        start = end
    return ranges


def shufflable_ranges(function: Function) -> List[ShuffleRange]:
    ranges: List[ShuffleRange] = []
    for block in function.blocks:
        ranges.extend(shufflable_ranges_in_block(block))
    return ranges


def range_is_still_valid(block: BasicBlock, shuffle_range: ShuffleRange) -> bool:
    """Re-check a precomputed range against the (possibly mutated) block."""
    instructions = block.instructions
    if shuffle_range.end > len(instructions):
        return False
    selected = instructions[shuffle_range.start:shuffle_range.end]
    if any(inst.KIND == "phi" or inst.IS_TERMINATOR
           for inst in selected):
        return False
    defined = {id(inst) for inst in selected}
    for inst in selected:
        for operand in inst.operands:
            if id(operand) in defined and operand is not inst:
                return False
    return True
