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
from ...ir.instructions import (BINARY_OPCODES, CAST_OPCODES,
                                COMMUTATIVE_OPCODES, BinaryOperator,
                                CallInst, CastInst, GEPInst, ICmpInst,
                                Instruction, SelectInst, opcode_table)
from ...ir.values import constant_to_key, Value
from ..context import OptContext
from ..pass_manager import FunctionPass, register_pass, replace_and_erase


def _operand_key(value: Value):
    if value.IS_CONSTANT:
        return constant_to_key(value)
    return ("val", id(value))


def expression_key(inst: Instruction) -> Optional[Tuple]:
    """Structural hash key; flags are deliberately excluded so that
    flag-differing duplicates unify (with flag intersection applied)."""
    key = _EXPRESSION_KEYS[inst.opcode]
    return None if key is None else key(inst)


def _binary_key(inst: BinaryOperator) -> Tuple:
    lhs, rhs = inst.operands
    first, second = _operand_key(lhs), _operand_key(rhs)
    if inst.opcode in COMMUTATIVE_OPCODES and second < first:
        first, second = second, first
    return ("bin", inst.opcode, (first, second))


def _icmp_key(inst: ICmpInst) -> Tuple:
    lhs, rhs = inst.operands
    return ("icmp", inst.predicate, _operand_key(lhs), _operand_key(rhs))


def _select_key(inst: SelectInst) -> Tuple:
    condition, true_value, false_value = inst.operands
    return ("select", _operand_key(condition), _operand_key(true_value),
            _operand_key(false_value))


def _cast_key(inst: CastInst) -> Tuple:
    return ("cast", inst.opcode, str(inst.type),
            _operand_key(inst.operands[0]))


def _gep_key(inst: GEPInst) -> Tuple:
    return ("gep", str(inst.source_type), inst.inbounds,
            tuple([_operand_key(op) for op in inst.operands]))


def _call_key(inst: CallInst) -> Optional[Tuple]:
    if inst.is_readnone() and not inst.bundles:
        return ("call", inst.callee.name,
                tuple([_operand_key(a) for a in inst.args]))
    return None


# By opcode; None for instructions that are never CSE candidates.
_EXPRESSION_KEYS = opcode_table(None, {
    **dict.fromkeys(BINARY_OPCODES, _binary_key),
    "icmp": _icmp_key,
    "select": _select_key,
    **dict.fromkeys(CAST_OPCODES, _cast_key),
    "getelementptr": _gep_key,
    "call": _call_key,
})


def _same_flags(a: Instruction, b: Instruction) -> bool:
    kind = a.KIND
    if kind != b.KIND:
        return True
    if kind == "binop":
        return (a.nuw == b.nuw and a.nsw == b.nsw and a.exact == b.exact)
    if kind == "gep":
        return a.inbounds == b.inbounds
    return True


def intersect_flags(leader: Instruction, duplicate: Instruction) -> None:
    """Keep only flags present on both (LLVM's ``andIRFlags``)."""
    kind = leader.KIND
    if kind != duplicate.KIND:
        return
    if kind == "binop":
        leader.nuw = leader.nuw and duplicate.nuw
        leader.nsw = leader.nsw and duplicate.nsw
        leader.exact = leader.exact and duplicate.exact
    elif kind == "gep":
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
            kind = inst.KIND
            if kind == "load":
                load_key = ("load", str(inst.type),
                            _operand_key(inst.operands[0]))
                known = loads.get(load_key)
                if known is not None:
                    replace_and_erase(inst, known)
                    self._ctx.count("early-cse.load")
                    self._changed = True
                else:
                    loads[load_key] = inst
                continue
            if kind == "store":
                # A store makes its own value the known content, and kills
                # every other tracked load (conservative aliasing).
                value, pointer = inst.operands
                loads.clear()
                loads[("load", str(value.type),
                       _operand_key(pointer))] = value
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
