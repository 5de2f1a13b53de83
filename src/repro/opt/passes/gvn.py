"""GVN: value numbering over the dominator tree.

A simplified NewGVN analog: expressions get value numbers; an instruction
whose expression already has a *dominating* leader is replaced by it.
Hosts two seeded Table-I bugs:

* 53218 (miscompilation) — "need to merge IR flags of the removed
  instruction into the leader": with the bug enabled the leader keeps its
  own (possibly stronger) poison flags instead of intersecting.
* 51618 (crash) — "PHI nodes with undef input": with the bug enabled,
  value-numbering a phi that has an undef incoming value trips an
  assertion, as NewGVN did.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...ir.domtree import DominatorTree
from ...ir.function import Function
from ...ir.instructions import Instruction, PhiNode
from ..context import OptContext
from ..pass_manager import FunctionPass, register_pass, replace_and_erase
from .early_cse import expression_key, intersect_flags, _operand_key


@register_pass("gvn")
class GlobalValueNumbering(FunctionPass):
    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        domtree = DominatorTree(function)
        leaders: Dict[Tuple, Instruction] = {}
        changed = False
        for block in domtree.blocks_in_rpo():
            for inst in list(block.instructions):
                if inst.parent is None:
                    continue
                if inst.KIND == "phi":
                    if ctx.bug_enabled("51618") and any(
                            value.KIND == "undef"
                            for value, _ in inst.incoming()):
                        ctx.crash("51618", "NewGVN: phi with undef input "
                                           "hits wrong congruence assert")
                    phi_key = self._phi_key(inst)
                    if phi_key is not None:
                        leader = leaders.get(phi_key)
                        if leader is not None and leader.parent is not None \
                                and leader.parent is block:
                            replace_and_erase(inst, leader)
                            ctx.count("gvn.phi")
                            changed = True
                            continue
                        leaders[phi_key] = inst
                    continue
                key = expression_key(inst)
                if key is None:
                    continue
                leader = leaders.get(key)
                if leader is not None and leader.parent is not None \
                        and self._dominates(domtree, leader, inst):
                    if ctx.bug_enabled("53218"):
                        # Bug: skip flag intersection; the surviving leader
                        # keeps nsw/nuw the duplicate never promised.
                        ctx.note_bug_trigger("53218")
                    else:
                        intersect_flags(leader, inst)
                    replace_and_erase(inst, leader)
                    ctx.count("gvn.cse")
                    changed = True
                else:
                    leaders[key] = inst
        return changed

    @staticmethod
    def _phi_key(phi: PhiNode) -> Optional[Tuple]:
        pairs = tuple(sorted(
            (_operand_key(value), id(block)) for value, block in phi.incoming()
        ))
        return ("phi", id(phi.parent), str(phi.type), pairs)

    @staticmethod
    def _dominates(domtree: DominatorTree, leader: Instruction,
                   inst: Instruction) -> bool:
        block = inst.parent
        return domtree.dominates(leader, block, block.index_of(inst))
