"""EarlyCSE: dominator-scoped common subexpression elimination.

Walks the dominator tree depth-first with a scoped hash table, replacing
repeated pure computations with their first (dominating) occurrence.  When
two instructions differ only in poison flags, the *intersection* of the
flags must be kept on the surviving leader — dropping the stronger flags —
or the leader may be poison where the replaced instruction was not.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...ir.basicblock import BasicBlock
from ...ir.domtree import DominatorTree
from ...ir.function import Function
from ...ir.instructions import (BinaryOperator, CallInst, CastInst,
                                COMMUTATIVE_OPCODES, GEPInst, ICmpInst,
                                Instruction, LoadInst, SelectInst, StoreInst)
from ...ir.values import constant_to_key, Constant, Value
from ..context import OptContext
from ..pass_manager import FunctionPass, register_pass, replace_and_erase


def _operand_key(value: Value):
    if isinstance(value, Constant):
        return constant_to_key(value)
    return ("val", id(value))


def expression_key(inst: Instruction) -> Optional[Tuple]:
    """Structural hash key; flags are deliberately excluded so that
    flag-differing duplicates unify (with flag intersection applied)."""
    if isinstance(inst, BinaryOperator):
        operands = [_operand_key(inst.lhs), _operand_key(inst.rhs)]
        if inst.opcode in COMMUTATIVE_OPCODES:
            operands.sort()
        return ("bin", inst.opcode, tuple(operands))
    if isinstance(inst, ICmpInst):
        return ("icmp", inst.predicate, _operand_key(inst.lhs),
                _operand_key(inst.rhs))
    if isinstance(inst, SelectInst):
        return ("select", _operand_key(inst.condition),
                _operand_key(inst.true_value), _operand_key(inst.false_value))
    if isinstance(inst, CastInst):
        return ("cast", inst.opcode, str(inst.type), _operand_key(inst.value))
    if isinstance(inst, GEPInst):
        return ("gep", str(inst.source_type), inst.inbounds,
                tuple(_operand_key(op) for op in inst.operands))
    if isinstance(inst, CallInst) and inst.is_readnone() and not inst.bundles:
        return ("call", inst.callee.name,
                tuple(_operand_key(a) for a in inst.args))
    return None


def _same_flags(a: Instruction, b: Instruction) -> bool:
    if isinstance(a, BinaryOperator) and isinstance(b, BinaryOperator):
        return (a.nuw == b.nuw and a.nsw == b.nsw and a.exact == b.exact)
    if isinstance(a, GEPInst) and isinstance(b, GEPInst):
        return a.inbounds == b.inbounds
    return True


def intersect_flags(leader: Instruction, duplicate: Instruction) -> None:
    """Keep only flags present on both (LLVM's ``andIRFlags``)."""
    if isinstance(leader, BinaryOperator) and isinstance(duplicate, BinaryOperator):
        leader.nuw = leader.nuw and duplicate.nuw
        leader.nsw = leader.nsw and duplicate.nsw
        leader.exact = leader.exact and duplicate.exact
    if isinstance(leader, GEPInst) and isinstance(duplicate, GEPInst):
        leader.inbounds = leader.inbounds and duplicate.inbounds


@register_pass("early-cse")
class EarlyCSE(FunctionPass):
    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        domtree = DominatorTree(function)
        entry = function.entry_block()
        if entry is None:
            return False
        self._changed = False
        self._ctx = ctx
        self._process(entry, {}, {}, domtree)
        return self._changed

    def _process(self, block: BasicBlock, available: Dict[Tuple, Instruction],
                 loads: Dict[Tuple, Value], domtree: DominatorTree) -> None:
        available = dict(available)
        loads = dict(loads)
        for inst in list(block.instructions):
            if inst.parent is None:
                continue
            if isinstance(inst, LoadInst):
                load_key = ("load", str(inst.type), _operand_key(inst.pointer))
                known = loads.get(load_key)
                if known is not None:
                    replace_and_erase(inst, known)
                    self._ctx.count("early-cse.load")
                    self._changed = True
                else:
                    loads[load_key] = inst
                continue
            if isinstance(inst, StoreInst):
                # A store makes its own value the known content, and kills
                # every other tracked load (conservative aliasing).
                loads.clear()
                loads[("load", str(inst.value.type),
                       _operand_key(inst.pointer))] = inst.value
                continue
            if inst.may_write_memory():
                loads.clear()
                continue
            key = expression_key(inst)
            if key is None:
                continue
            leader = available.get(key)
            if leader is not None and leader.parent is not None:
                if not _same_flags(leader, inst):
                    # Flag-differing duplicates are left for GVN, which
                    # owns the flag-merging logic (and its seeded bug).
                    continue
                replace_and_erase(inst, leader)
                self._ctx.count("early-cse.cse")
                self._changed = True
            else:
                available[key] = inst
        for child in domtree.children(block):
            # Memory facts are path-sensitive; only pass them down along a
            # straight edge (sole successor AND sole predecessor).
            straight_edge = (block.successors() == [child]
                             and child.predecessors() == [block])
            self._process(child, available, loads if straight_edge else {},
                          domtree)
