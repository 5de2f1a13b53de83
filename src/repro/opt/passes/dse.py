"""DSE: dead store elimination (block-local).

A store is dead when the same pointer is overwritten by a later store in
the same block with no intervening read or escape of that memory: no
load, no call that may read, and no other store through a possibly-
aliasing pointer being read later.  The analysis is conservative: only
stores through the *same SSA pointer* with identical value sizes are
paired, and any may-read instruction in between keeps the earlier store
alive.
"""

from __future__ import annotations

from typing import Dict

from ...ir.function import Function
from ...ir.instructions import StoreInst
from ..context import OptContext
from ..pass_manager import FunctionPass, register_pass


@register_pass("dse")
class DeadStoreElimination(FunctionPass):
    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        changed = False
        for block in function.blocks:
            # pointer id -> the last store through it with nothing
            # reading memory since.
            pending: Dict[int, StoreInst] = {}
            for inst in list(block.instructions):
                if inst.KIND == "store":
                    value, pointer = inst.operands
                    earlier = pending.get(id(pointer))
                    if earlier is not None and earlier.parent is not None \
                            and earlier.operands[0].type is value.type:
                        earlier.erase_from_parent()
                        ctx.count("dse.removed")
                        changed = True
                    pending[id(pointer)] = inst
                elif inst.may_read_memory():
                    pending.clear()
        return changed
