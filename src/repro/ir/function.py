"""Functions: arguments, attribute sets, and a list of basic blocks."""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, TYPE_CHECKING

from .attributes import AttributeSet
from .basicblock import BasicBlock
from .instructions import Instruction
from .types import FunctionType, PtrType, Type
from .values import Argument, Constant

if TYPE_CHECKING:  # pragma: no cover
    from .module import Module


class Function(Constant):
    """A function definition or declaration.

    Functions are pointer-typed constants (so they can appear as call
    targets and, in principle, as operands); their signature lives in
    ``function_type``.
    """

    __slots__ = ("function_type", "arguments", "blocks", "attributes",
                 "parent", "_next_temp", "_names", "__weakref__")

    KIND = "function"

    def __init__(self, function_type: FunctionType, name: str,
                 module: Optional["Module"] = None,
                 arg_names: Optional[List[str]] = None) -> None:
        super().__init__(PtrType())
        self.name = name
        self.function_type = function_type
        self.parent = module
        self.attributes = AttributeSet()
        self.blocks: List[BasicBlock] = []
        self.arguments: List[Argument] = []
        self._next_temp = 0
        # A superset of the value names in use, built by the first
        # next_temp_name() call (None until then); see there.
        self._names: Optional[Set[str]] = None
        for index, param_type in enumerate(function_type.param_types):
            arg_name = arg_names[index] if arg_names else ""
            self.arguments.append(Argument(param_type, arg_name, self, index))
        if module is not None:
            module.add_function(self)

    # -- signature -----------------------------------------------------------

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    def is_declaration(self) -> bool:
        return not self.blocks

    def num_args(self) -> int:
        return len(self.arguments)

    def add_argument(self, type: Type, name: str = "") -> Argument:
        """Append a fresh parameter (used by the use-mutation primitive)."""
        argument = Argument(type, name, self, len(self.arguments))
        self.arguments.append(argument)
        if self._names is not None:
            self._names.add(name)
        self.function_type = FunctionType(
            self.function_type.return_type,
            tuple(arg.type for arg in self.arguments),
            self.function_type.is_vararg,
        )
        return argument

    # -- blocks ---------------------------------------------------------------

    def append_block(self, block: BasicBlock) -> BasicBlock:
        block.parent = self
        self.blocks.append(block)
        if self._names is not None:
            self._names.add(block.name)
            self._names.update([inst.name for inst in block.instructions])
        return block

    def remove_block(self, block: BasicBlock) -> None:
        for i, existing in enumerate(self.blocks):
            if existing is block:
                del self.blocks[i]
                block.parent = None
                return
        raise ValueError("block not in function")

    def entry_block(self) -> Optional[BasicBlock]:
        return self.blocks[0] if self.blocks else None

    def block_named(self, name: str) -> Optional[BasicBlock]:
        for block in self.blocks:
            if block.name == name:
                return block
        return None

    # -- traversal -------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        """Every instruction in layout order.  Each item is a generator
        resume, so hot loops walk ``block.instructions`` directly."""
        for block in self.blocks:
            yield from block.instructions

    def num_instructions(self) -> int:
        return sum(len(block) for block in self.blocks)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def fingerprint(self) -> str:
        """Canonical structural hash (see :mod:`repro.ir.fingerprint`)."""
        from .fingerprint import fingerprint_function

        return fingerprint_function(self)

    # -- naming ------------------------------------------------------------------

    def next_temp_name(self) -> str:
        """A fresh numeric name distinct from any existing value name.

        ``_names`` holds every name the last scan saw and every name
        placed since (``BasicBlock.append`` / ``insert``,
        :meth:`append_block` and :meth:`add_argument` add theirs), so it
        can only over-approximate the names in use: erasing a value
        leaves its name behind.  A candidate the set lacks is therefore
        free.  On a hit the set is rebuilt exactly, once, before the
        search goes on, so the answer is always the first free counter
        value, as a scan on every call would give.  (Names handed out
        here need no entry: the counter never comes back to them.)
        """
        names = self._names
        exact = names is None
        if exact:
            names = self._names = self._scan_names()
        while True:
            candidate = str(self._next_temp)
            if not exact and candidate in names:
                names = self._names = self._scan_names()
                exact = True
            self._next_temp += 1
            if candidate not in names:
                return candidate

    def _scan_names(self) -> Set[str]:
        """The names of every argument, block and instruction."""
        names = {argument.name for argument in self.arguments}
        for block in self.blocks:
            names.add(block.name)
            names.update([inst.name for inst in block.instructions])
        return names

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration() else "define"
        return f"<Function {kind} @{self.name}>"
