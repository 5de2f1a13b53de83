"""SSA use trees and root-to-leaf paths (paper §IV-H, Figures 4 and 5).

The bitwidth-change mutation picks a *path* through a value's use tree —
rather than the whole tree — and re-creates just the instructions on that
path at a new width, truncating/extending at the frontier.  Only fully
bitwidth-polymorphic instructions are eligible to be on a path.
"""

from __future__ import annotations

from typing import List

from ..ir.function import Function
from ..ir.instructions import BITWIDTH_POLYMORPHIC_OPCODES, Instruction
from ..ir.values import Value


def is_width_polymorphic(inst: Instruction) -> bool:
    """Can this instruction be re-created at any integer width?"""
    return (inst.KIND == "binop"
            and inst.opcode in BITWIDTH_POLYMORPHIC_OPCODES
            and inst.type.IS_INTEGER)


def polymorphic_users(value: Value) -> List[Instruction]:
    """Width-polymorphic instructions that use ``value`` directly."""
    result = []
    seen = set()
    for use in value.uses:
        user = use.user
        if user.IS_INSTRUCTION and is_width_polymorphic(user):
            if id(user) not in seen:
                seen.add(id(user))
                result.append(user)
    return result


def use_path_from(root: Instruction, choose) -> List[Instruction]:
    """A root-to-leaf path through width-polymorphic users.

    ``choose(candidates)`` picks the next hop (injected so the mutation
    engine can drive it from its seeded PRNG).  The path starts at ``root``
    and extends while some user of the current node is width-polymorphic,
    stopping at a leaf (a node none of whose users are eligible).
    """
    if not is_width_polymorphic(root):
        return []
    path = [root]
    on_path = {id(root)}
    current: Instruction = root
    while True:
        candidates = [user for user in polymorphic_users(current)
                      if id(user) not in on_path]
        if not candidates:
            return path
        nxt = choose(candidates)
        path.append(nxt)
        on_path.add(id(nxt))
        current = nxt


def width_change_roots(function: Function) -> List[Instruction]:
    """All instructions eligible as roots of a bitwidth-change path."""
    return [inst for block in function.blocks for inst in block.instructions
            if is_width_polymorphic(inst)]
