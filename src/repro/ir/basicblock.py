"""Basic blocks: ordered instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional, TYPE_CHECKING

from .instructions import Instruction, PhiNode
from .types import LabelType
from .values import Value

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


class BasicBlock(Value):
    """A basic block.  Blocks are label-typed values so branches and phis
    can reference them through ordinary use lists."""

    __slots__ = ("parent", "instructions")

    KIND = "block"

    def __init__(self, name: str = "", parent: Optional["Function"] = None) -> None:
        super().__init__(LabelType(), name)
        self.parent = parent
        self.instructions: List[Instruction] = []
        if parent is not None:
            parent.append_block(self)

    # -- structure ----------------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.append(inst)
        function = self.parent
        if function is not None and function._names is not None:
            function._names.add(inst.name)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        function = self.parent
        if function is not None and function._names is not None:
            function._names.add(inst.name)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert(self.index_of(anchor), inst)

    def insert_after(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert(self.index_of(anchor) + 1, inst)

    def remove(self, inst: Instruction) -> None:
        for i, existing in enumerate(self.instructions):
            if existing is inst:
                del self.instructions[i]
                inst.parent = None
                return
        raise ValueError("instruction not in block")

    def index_of(self, inst: Instruction) -> int:
        for i, existing in enumerate(self.instructions):
            if existing is inst:
                return i
        raise ValueError("instruction not in block")

    # -- queries -------------------------------------------------------------

    def terminator(self) -> Optional[Instruction]:
        instructions = self.instructions
        if instructions and instructions[-1].IS_TERMINATOR:
            return instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        instructions = self.instructions
        if instructions and instructions[-1].IS_TERMINATOR:
            return instructions[-1].successors()
        return []

    def predecessors(self) -> List["BasicBlock"]:
        """Blocks that branch here, via this block's label use list."""
        preds = []
        seen = set()
        for use in self._uses:
            user = use.user
            if user.IS_TERMINATOR:
                block = user.parent
                if block is not None and id(block) not in seen:
                    seen.add(id(block))
                    preds.append(block)
        return preds

    def phis(self) -> List[PhiNode]:
        result = []
        for inst in self.instructions:
            if inst.KIND == "phi":
                result.append(inst)
            else:
                break
        return result

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if inst.KIND != "phi":
                return i
        return len(self.instructions)

    def is_entry(self) -> bool:
        return self.parent is not None and self.parent.entry_block() is self

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"BasicBlock(%{self.name}, {len(self.instructions)} insts)"
