"""Control-flow-graph utilities: traversal orders and reachability."""

from __future__ import annotations

from typing import Dict, List, Set

from .basicblock import BasicBlock
from .function import Function


def successors(block: BasicBlock) -> List[BasicBlock]:
    return block.successors()


def predecessors(block: BasicBlock) -> List[BasicBlock]:
    return block.predecessors()


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Blocks in reverse postorder from the entry (unreachable blocks omitted)."""
    entry = function.entry_block()
    if entry is None:
        return []
    visited: Set[BasicBlock] = {entry}
    order: List[BasicBlock] = []
    # Iterative DFS computing postorder.
    stack: List[tuple] = [(entry, iter(entry.successors()))]
    while stack:
        block, successor_iter = stack[-1]
        advanced = False
        for successor in successor_iter:
            if successor not in visited:
                visited.add(successor)
                stack.append((successor, iter(successor.successors())))
                advanced = True
                break
        if not advanced:
            order.append(block)
            stack.pop()
    order.reverse()
    return order


def postorder(function: Function) -> List[BasicBlock]:
    order = reverse_postorder(function)
    order.reverse()
    return order


def reachable_blocks(function: Function) -> Set[int]:
    """ids of blocks reachable from the entry."""
    return {id(block) for block in reverse_postorder(function)}


def predecessor_map(function: Function) -> Dict[int, List[BasicBlock]]:
    """Map block id -> predecessor blocks, computed in one pass."""
    preds: Dict[int, List[BasicBlock]] = {id(b): [] for b in function.blocks}
    for block in function.blocks:
        for successor in block.successors():
            entry = preds.get(id(successor))
            if entry is not None and block not in entry:
                entry.append(block)
    return preds


def has_single_predecessor(block: BasicBlock) -> bool:
    return len(block.predecessors()) == 1
