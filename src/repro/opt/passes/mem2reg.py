"""Mem2Reg / SROA-lite: promote allocas to SSA registers.

Two promotions are performed:

* single-block allocas — store-to-load forwarding in program order;
* single-store allocas whose store dominates every load.

Hosts seeded crash bugs for SROA (72035) and MoveAutoInit (64661).
"""

from __future__ import annotations

from typing import List, Optional

from ...ir.domtree import DominatorTree
from ...ir.function import Function
from ...ir.instructions import AllocaInst, Instruction
from ...ir.values import UndefValue, Value
from ..context import OptContext
from ..pass_manager import FunctionPass, register_pass


def _promotable_uses(alloca: AllocaInst) -> Optional[List[Instruction]]:
    """Loads/stores using the alloca directly, or None if it escapes."""
    uses: List[Instruction] = []
    for use in alloca.uses:
        user = use.user
        if user.KIND == "load" and user.pointer is alloca:
            uses.append(user)
        elif user.KIND == "store" and user.pointer is alloca \
                and user.value is not alloca:
            uses.append(user)
        else:
            return None
    return uses


@register_pass("mem2reg")
class Mem2Reg(FunctionPass):
    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        changed = False
        allocas = [inst for block in function.blocks
                   for inst in block.instructions if inst.KIND == "alloca"]
        if not allocas:
            return False
        domtree = DominatorTree(function)
        for alloca in allocas:
            if alloca.parent is None:
                continue
            uses = _promotable_uses(alloca)
            if uses is None:
                continue
            if ctx.bug_enabled("72035") and any(
                    u.KIND == "load" and u.type is not alloca.allocated_type
                    for u in uses):
                ctx.crash("72035", "SROA AllocaSliceRewriter mis-sizes a "
                                   "type-punned slice")
            if any(u.KIND == "load" and u.type is not alloca.allocated_type
                   for u in uses) or any(
                    u.KIND == "store"
                    and u.value.type is not alloca.allocated_type
                    for u in uses):
                continue  # type-punned access; leave to the interpreter
            if self._promote_single_block(alloca, uses, ctx):
                changed = True
            elif self._promote_single_store(alloca, uses, domtree, ctx):
                changed = True
        return changed

    def _promote_single_block(self, alloca: AllocaInst,
                              uses: List[Instruction],
                              ctx: OptContext) -> bool:
        blocks = {id(u.parent) for u in uses}
        if len(blocks) > 1:
            return False
        if not uses:
            alloca.erase_from_parent()
            return True
        block = uses[0].parent
        current: Optional[Value] = None
        for inst in list(block.instructions):
            if inst.KIND == "store" and inst.pointer is alloca:
                current = inst.value
                inst.erase_from_parent()
            elif inst.KIND == "load" and inst.pointer is alloca:
                if current is None:
                    # Load before any store: uninitialized -> undef.
                    if ctx.bug_enabled("64661"):
                        ctx.crash("64661", "MoveAutoInit: assertion that "
                                           "auto-init dominates all loads "
                                           "is too strong")
                    current = UndefValue(inst.type)
                inst.replace_all_uses_with(current)
                inst.erase_from_parent()
        alloca.erase_from_parent()
        ctx.count("mem2reg.single-block")
        return True

    def _promote_single_store(self, alloca: AllocaInst,
                              uses: List[Instruction],
                              domtree: DominatorTree,
                              ctx: OptContext) -> bool:
        stores = [u for u in uses if u.KIND == "store"]
        loads = [u for u in uses if u.KIND == "load"]
        if len(stores) != 1:
            return False
        store = stores[0]
        for load in loads:
            block = load.parent
            if not domtree.dominates(store, block, block.index_of(load)):
                return False
        for load in loads:
            load.replace_all_uses_with(store.value)
            load.erase_from_parent()
        store.erase_from_parent()
        alloca.erase_from_parent()
        ctx.count("mem2reg.single-store")
        return True
