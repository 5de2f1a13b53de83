"""IRBuilder: convenience API for constructing instructions in a block."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .basicblock import BasicBlock
from .function import Function
from .instructions import (AllocaInst, BinaryOperator, BrInst, CallInst,
                           CastInst, FreezeInst, GEPInst, ICmpInst,
                           Instruction, LoadInst, OperandBundle, PhiNode,
                           RetInst, SelectInst, StoreInst, SwitchInst,
                           UnreachableInst)
from .types import IntType, Type
from .values import ConstantInt, Value


class IRBuilder:
    """Inserts instructions at a movable insertion point.

    The insertion point is (block, index); ``index is None`` means append.
    """

    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self._block = block
        self._index: Optional[int] = None

    # -- insertion point ----------------------------------------------------

    def set_insert_point(self, block: BasicBlock,
                         index: Optional[int] = None) -> None:
        self._block = block
        self._index = index

    def set_insert_before(self, inst: Instruction) -> None:
        self._block = inst.parent
        self._index = inst.parent.index_of(inst)

    def set_insert_after(self, inst: Instruction) -> None:
        self._block = inst.parent
        self._index = inst.parent.index_of(inst) + 1

    @property
    def block(self) -> Optional[BasicBlock]:
        return self._block

    def _insert(self, inst: Instruction) -> Instruction:
        if self._block is None:
            raise ValueError("IRBuilder has no insertion point")
        if self._index is None:
            self._block.append(inst)
        else:
            self._block.insert(self._index, inst)
            self._index += 1
        if not inst.name and inst.type.IS_FIRST_CLASS:
            function = self._block.parent
            if function is not None:
                inst.name = function.next_temp_name()
        return inst

    # -- constants -----------------------------------------------------------

    def int_const(self, type: IntType, value: int) -> ConstantInt:
        return ConstantInt(type, value)

    # -- arithmetic ------------------------------------------------------------

    def binop(self, opcode: str, lhs: Value, rhs: Value, name: str = "",
              nuw: bool = False, nsw: bool = False,
              exact: bool = False) -> BinaryOperator:
        return self._insert(BinaryOperator(opcode, lhs, rhs, name,
                                           nuw=nuw, nsw=nsw, exact=exact))

    def add(self, lhs: Value, rhs: Value, name: str = "", **flags) -> BinaryOperator:
        return self.binop("add", lhs, rhs, name, **flags)

    def sub(self, lhs: Value, rhs: Value, name: str = "", **flags) -> BinaryOperator:
        return self.binop("sub", lhs, rhs, name, **flags)

    def mul(self, lhs: Value, rhs: Value, name: str = "", **flags) -> BinaryOperator:
        return self.binop("mul", lhs, rhs, name, **flags)

    def udiv(self, lhs: Value, rhs: Value, name: str = "", **flags) -> BinaryOperator:
        return self.binop("udiv", lhs, rhs, name, **flags)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "", **flags) -> BinaryOperator:
        return self.binop("sdiv", lhs, rhs, name, **flags)

    def urem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOperator:
        return self.binop("urem", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOperator:
        return self.binop("srem", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "", **flags) -> BinaryOperator:
        return self.binop("shl", lhs, rhs, name, **flags)

    def lshr(self, lhs: Value, rhs: Value, name: str = "", **flags) -> BinaryOperator:
        return self.binop("lshr", lhs, rhs, name, **flags)

    def ashr(self, lhs: Value, rhs: Value, name: str = "", **flags) -> BinaryOperator:
        return self.binop("ashr", lhs, rhs, name, **flags)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOperator:
        return self.binop("and", lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOperator:
        return self.binop("or", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOperator:
        return self.binop("xor", lhs, rhs, name)

    def not_(self, value: Value, name: str = "") -> BinaryOperator:
        all_ones = ConstantInt(value.type, value.type.mask)
        return self.binop("xor", value, all_ones, name)

    def neg(self, value: Value, name: str = "") -> BinaryOperator:
        zero = ConstantInt(value.type, 0)
        return self.binop("sub", zero, value, name)

    # -- comparisons / select -----------------------------------------------

    def icmp(self, predicate: str, lhs: Value, rhs: Value,
             name: str = "") -> ICmpInst:
        return self._insert(ICmpInst(predicate, lhs, rhs, name))

    def select(self, condition: Value, true_value: Value, false_value: Value,
               name: str = "") -> SelectInst:
        return self._insert(SelectInst(condition, true_value, false_value, name))

    # -- casts ------------------------------------------------------------------

    def cast(self, opcode: str, value: Value, dest_type: Type,
             name: str = "") -> CastInst:
        return self._insert(CastInst(opcode, value, dest_type, name))

    def trunc(self, value: Value, dest_type: Type, name: str = "") -> CastInst:
        return self.cast("trunc", value, dest_type, name)

    def zext(self, value: Value, dest_type: Type, name: str = "") -> CastInst:
        return self.cast("zext", value, dest_type, name)

    def sext(self, value: Value, dest_type: Type, name: str = "") -> CastInst:
        return self.cast("sext", value, dest_type, name)

    def freeze(self, value: Value, name: str = "") -> FreezeInst:
        return self._insert(FreezeInst(value, name))

    # -- memory --------------------------------------------------------------------

    def alloca(self, allocated_type: Type, name: str = "",
               align: int = 0) -> AllocaInst:
        return self._insert(AllocaInst(allocated_type, name, align))

    def load(self, loaded_type: Type, pointer: Value, name: str = "",
             align: int = 0) -> LoadInst:
        return self._insert(LoadInst(loaded_type, pointer, name, align))

    def store(self, value: Value, pointer: Value, align: int = 0) -> StoreInst:
        return self._insert(StoreInst(value, pointer, align))

    def gep(self, source_type: Type, pointer: Value, indices: Sequence[Value],
            name: str = "", inbounds: bool = False) -> GEPInst:
        return self._insert(GEPInst(source_type, pointer, indices, name,
                                    inbounds=inbounds))

    # -- calls / control flow ---------------------------------------------------

    def call(self, callee: Function, args: Sequence[Value], name: str = "",
             bundles: Sequence[OperandBundle] = ()) -> CallInst:
        return self._insert(CallInst(callee, args, name, bundles))

    def ret(self, value: Optional[Value] = None) -> RetInst:
        return self._insert(RetInst(value))

    def br(self, dest: BasicBlock) -> BrInst:
        return self._insert(BrInst(dest))

    def cond_br(self, condition: Value, true_block: BasicBlock,
                false_block: BasicBlock) -> BrInst:
        return self._insert(BrInst(condition, true_block, false_block))

    def switch(self, value: Value, default: BasicBlock,
               cases: Sequence[Tuple[ConstantInt, BasicBlock]] = ()) -> SwitchInst:
        return self._insert(SwitchInst(value, default, cases))

    def unreachable(self) -> UnreachableInst:
        return self._insert(UnreachableInst())

    def phi(self, type: Type, name: str = "") -> PhiNode:
        return self._insert(PhiNode(type, (), name))
