"""Natural-loop detection (LoopInfo).

Back edges are CFG edges whose target dominates their source; each back
edge ``latch -> header`` defines a natural loop: the header plus every
block that can reach the latch without passing through the header.
Loops sharing a header are merged, like LLVM's LoopInfo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir.basicblock import BasicBlock
from ..ir.domtree import DominatorTree
from ..ir.function import Function


@dataclass
class Loop:
    header: BasicBlock
    blocks: List[BasicBlock] = field(default_factory=list)
    latches: List[BasicBlock] = field(default_factory=list)

    def contains(self, block: BasicBlock) -> bool:
        return any(b is block for b in self.blocks)

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if its only
        successor is the header (LLVM's canonical preheader condition)."""
        outside = [p for p in self.header.predecessors()
                   if not self.contains(p)]
        if len(outside) != 1:
            return None
        candidate = outside[0]
        if candidate.successors() == [self.header]:
            return candidate
        return None

    def exits(self) -> List[BasicBlock]:
        """Blocks outside the loop reachable directly from inside it."""
        seen: Set[int] = set()
        result: List[BasicBlock] = []
        for block in self.blocks:
            for successor in block.successors():
                if not self.contains(successor) \
                        and id(successor) not in seen:
                    seen.add(id(successor))
                    result.append(successor)
        return result

    def __repr__(self) -> str:
        return (f"Loop(header=%{self.header.name}, "
                f"{len(self.blocks)} blocks)")


class LoopInfo:
    """All natural loops of a function."""

    def __init__(self, function: Function,
                 domtree: Optional[DominatorTree] = None) -> None:
        self.function = function
        self.domtree = domtree or DominatorTree(function)
        self.loops: List[Loop] = []
        self._find_loops()

    def _find_loops(self) -> None:
        by_header: Dict[int, Loop] = {}
        for block in self.function.blocks:
            if not self.domtree.is_reachable(block):
                continue
            for successor in block.successors():
                if self.domtree.dominates_block(successor, block):
                    # block -> successor is a back edge.
                    loop = by_header.get(id(successor))
                    if loop is None:
                        loop = Loop(header=successor, blocks=[successor])
                        by_header[id(successor)] = loop
                        self.loops.append(loop)
                    loop.latches.append(block)
                    self._collect_body(loop, block)
        # Deterministic order: by header position in the function.
        order = {id(b): i for i, b in enumerate(self.function.blocks)}
        self.loops.sort(key=lambda lp: order[id(lp.header)])

    def _collect_body(self, loop: Loop, latch: BasicBlock) -> None:
        """Blocks reaching the latch without passing through the header."""
        worklist = [latch]
        while worklist:
            block = worklist.pop()
            if loop.contains(block):
                continue
            loop.blocks.append(block)
            for predecessor in block.predecessors():
                if predecessor is not loop.header:
                    worklist.append(predecessor)

    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block`` (smallest body)."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if loop.contains(block):
                if best is None or len(loop.blocks) < len(best.blocks):
                    best = loop
        return best

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)
