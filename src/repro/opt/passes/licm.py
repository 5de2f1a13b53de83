"""LICM: loop-invariant code motion.

Hoists pure, loop-invariant instructions into the loop preheader.
Hoisting must be poison/UB-aware:

* instructions that can raise UB (divisions, remainders) are never
  hoisted — the loop body might not execute on some inputs, and hoisting
  would introduce UB on those paths;
* poison-producing instructions (flagged arithmetic, shifts) *are*
  hoistable: executing them speculatively only produces a poison value,
  which is benign unless used — and its uses stay inside the loop.
"""

from __future__ import annotations

from typing import Set

from ...analysis.loops import Loop, LoopInfo
from ...ir.domtree import DominatorTree
from ...ir.function import Function
from ...ir.instructions import (CastInst, FreezeInst, GEPInst, ICmpInst,
                                Instruction, SelectInst)
from ..context import OptContext
from ..pass_manager import FunctionPass, register_pass

_UB_CAPABLE_OPCODES = frozenset({"udiv", "sdiv", "urem", "srem"})


def _is_hoistable_kind(inst: Instruction) -> bool:
    if inst.KIND == "binop":
        return inst.opcode not in _UB_CAPABLE_OPCODES
    if isinstance(inst, (ICmpInst, SelectInst, CastInst, FreezeInst,
                         GEPInst)):
        return True
    if inst.KIND == "call":
        # Only speculatable pure intrinsics; calls that can trap or
        # observe memory stay put.
        return inst.is_readnone() and inst.intrinsic_name() not in (
            "", "llvm.assume")
    return False


@register_pass("licm")
class LoopInvariantCodeMotion(FunctionPass):
    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        domtree = DominatorTree(function)
        loop_info = LoopInfo(function, domtree)
        changed = False
        for loop in loop_info:
            preheader = loop.preheader()
            if preheader is None:
                continue
            if self._hoist_loop(loop, preheader, ctx):
                changed = True
        return changed

    def _hoist_loop(self, loop: Loop, preheader, ctx: OptContext) -> bool:
        changed = False
        loop_defs: Set[int] = set()
        for block in loop.blocks:
            for inst in block.instructions:
                loop_defs.add(id(inst))

        def is_invariant(inst: Instruction) -> bool:
            return all(id(op) not in loop_defs for op in inst.operands)

        progress = True
        while progress:
            progress = False
            for block in loop.blocks:
                for inst in list(block.instructions):
                    if inst.parent is None or inst.IS_TERMINATOR \
                            or inst.KIND == "phi":
                        continue
                    if not _is_hoistable_kind(inst):
                        continue
                    if not is_invariant(inst):
                        continue
                    # Hoist: move before the preheader's terminator.
                    block.remove(inst)
                    terminator_index = len(preheader.instructions) - 1
                    preheader.insert(terminator_index, inst)
                    loop_defs.discard(id(inst))
                    ctx.count("licm.hoisted")
                    changed = True
                    progress = True
        return changed
