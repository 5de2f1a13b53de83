"""Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

The mutation engine's central primitive — "pick a dominating, type-compatible
SSA value for this program point" (paper §IV-F) — and the verifier's SSA
check are both built on this analysis.

Blocks are numbered once, by reverse-postorder position, and the tree is
kept as a list of those numbers: every query after construction is
integer comparison and list indexing.  A dominator precedes the blocks
it dominates in reverse postorder, so walking up the tree only ever
moves to smaller numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .basicblock import BasicBlock
from .cfg import reverse_postorder
from .function import Function
from .instructions import Instruction
from .values import Value


class DominatorTree:
    """Immediate-dominator tree for the reachable part of a function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        order = reverse_postorder(function)
        self._blocks: List[BasicBlock] = order
        # Reverse-postorder position of each reachable block.
        self._index: Dict[BasicBlock, int] = {
            block: i for i, block in enumerate(order)}
        # _idom[i]: position of block i's immediate dominator (the
        # entry, position 0, names itself).
        self._idom: List[int] = self._compute()
        self._children: List[List[BasicBlock]] = [[] for _ in order]
        for i in range(1, len(order)):
            self._children[self._idom[i]].append(order[i])

    def _compute(self) -> List[int]:
        order, index = self._blocks, self._index
        if not order:
            return []
        preds: List[List[int]] = [[] for _ in order]
        for i, block in enumerate(order):
            for successor in block.successors():
                if successor in index:
                    preds[index[successor]].append(i)
        idom = [-1] * len(order)  # -1: not processed yet
        idom[0] = 0
        changed = True
        while changed:
            changed = False
            for b in range(1, len(order)):
                new_idom = -1
                for p in preds[b]:
                    if idom[p] == -1:
                        continue
                    if new_idom == -1:
                        new_idom = p
                        continue
                    # Intersect: climb from the later block until the
                    # two fingers meet.
                    while p != new_idom:
                        while p > new_idom:
                            p = idom[p]
                        while new_idom > p:
                            new_idom = idom[new_idom]
                if new_idom != -1 and idom[b] != new_idom:
                    idom[b] = new_idom
                    changed = True
        return idom

    # -- queries ---------------------------------------------------------------

    def is_reachable(self, block: BasicBlock) -> bool:
        return block in self._index

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        index = self._index
        if block not in index or index[block] == 0:
            return None
        return self._blocks[self._idom[index[block]]]

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does block ``a`` dominate block ``b``?  (Reflexive.)"""
        index = self._index
        if a not in index or b not in index:
            return False
        target, runner = index[a], index[b]
        idom = self._idom
        while runner > target:
            runner = idom[runner]
        return runner == target

    def strictly_dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates_block(a, b)

    def dominates(self, definition: Value, point_block: BasicBlock,
                  point_index: int) -> bool:
        """Is ``definition`` available at instruction slot ``point_index`` of
        ``point_block``?

        Constants and arguments dominate everything.  An instruction
        dominates points strictly after it in its own block, and every point
        in blocks its block strictly dominates.
        """
        if definition.IS_CONSTANT or definition.KIND == "argument":
            return True
        if definition.IS_INSTRUCTION:
            def_block = definition.parent
            if def_block is None:
                return False
            if def_block is point_block:
                return def_block.index_of(definition) < point_index
            return self.strictly_dominates_block(def_block, point_block)
        return False

    def dominates_use(self, definition: Value, user: Instruction,
                      operand_index: int) -> bool:
        """SSA validity for one use: does the def dominate the use?

        Phi uses are checked at the end of the corresponding incoming block.
        """
        use_block = user.parent
        if use_block is None:
            return False
        if user.KIND == "phi" and operand_index % 2 == 0:
            incoming_block = user.operands[operand_index + 1]
            if incoming_block.KIND != "block":
                return False
            return self.dominates(definition, incoming_block,
                                  len(incoming_block.instructions))
        return self.dominates(definition, use_block, use_block.index_of(user))

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        """Blocks ``block`` immediately dominates, in reverse postorder."""
        index = self._index
        if block not in index:
            return []
        return self._children[index[block]][:]

    def dominance_depth(self, block: BasicBlock) -> int:
        index = self._index
        if block not in index:
            return 0
        runner, depth = index[block], 0
        idom = self._idom
        while runner:
            runner = idom[runner]
            depth += 1
        return depth

    def blocks_in_rpo(self) -> List[BasicBlock]:
        return list(self._blocks)
