"""Core SSA value classes: values, uses, constants, and arguments.

Every operand edge in the IR is a :class:`Use` that is registered on the
used value, so ``replace_all_uses_with`` and the mutation engine's
"who uses this value" queries are O(uses), like LLVM's use lists.
Constants are the exception: they keep no use list (see :class:`Constant`).

Every value class carries its classification as class constants
(:attr:`Value.KIND` and the ``IS_*`` flags), so hot code classifies a
value by reading an attribute, the way LLVM's ``isa<>`` tests a per-class
ID, instead of calling ``isinstance`` (DESIGN §3, "IR classification and
dispatch").
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .types import IntType, PtrType, Type


class Use:
    """One operand slot of a user pointing at a used value."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int) -> None:
        self.user = user
        self.index = index

    def get(self) -> "Value":
        return self.user.operands[self.index]

    def set(self, value: "Value") -> None:
        self.user.set_operand(self.index, value)

    def __repr__(self) -> str:
        return f"Use({self.user!r}[{self.index}])"


class Value:
    """Base class of everything that can be used as an operand.

    Class constants, set by each subclass and never per instance:

    * ``KIND`` names the concrete class: ``"int"`` for
      :class:`ConstantInt`, ``"poison"``, ``"undef"``, ``"null"``,
      ``"function"``, ``"argument"``, ``"block"``, and one kind per
      instruction class (``"binop"``, ``"icmp"``, ``"phi"``, ...).
      ``value.KIND == "int"`` is ``isinstance(value, ConstantInt)``.
    * ``IS_CONSTANT``, ``IS_INSTRUCTION`` and ``IS_TERMINATOR`` test
      membership of a group of classes.
    """

    __slots__ = ("type", "name", "_uses")

    KIND = "value"
    IS_CONSTANT = False
    IS_INSTRUCTION = False
    IS_TERMINATOR = False

    def __init__(self, type: Type, name: str = "") -> None:
        self.type = type
        self.name = name
        self._uses: List[Use] = []

    @property
    def uses(self) -> List[Use]:
        return list(self._uses)

    def users(self) -> List["User"]:
        return [use.user for use in self._uses]

    def num_uses(self) -> int:
        return len(self._uses)

    def has_uses(self) -> bool:
        return bool(self._uses)

    def _add_use(self, use: Use) -> None:
        if self._uses is not NO_USES:
            self._uses.append(use)

    def _remove_use(self, use: Use) -> None:
        uses = self._uses
        if uses is NO_USES:
            return
        for i, existing in enumerate(uses):
            if existing is use:
                del uses[i]
                return
        raise ValueError("use not found on value")

    def replace_all_uses_with(self, new_value: "Value") -> None:
        """Redirect every use of this value to ``new_value``."""
        if new_value is self:
            return
        for use in list(self._uses):
            use.set(new_value)

    def short_name(self) -> str:
        """A human-readable handle for diagnostics."""
        return f"%{self.name}" if self.name else f"<{type(self).__name__}>"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.type}, {self.short_name()})"


class User(Value):
    """A value that has operands (instructions, mostly)."""

    __slots__ = ("operands", "_operand_uses")

    def __init__(self, type: Type, name: str = "") -> None:
        super().__init__(type, name)
        self.operands: List[Value] = []
        self._operand_uses: List[Use] = []

    def _append_operand(self, value: Value) -> None:
        operands = self.operands
        use = Use(self, len(operands))
        operands.append(value)
        self._operand_uses.append(use)
        if value._uses is not NO_USES:
            value._uses.append(use)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        use = self._operand_uses[index]
        if old is value:
            return
        old._remove_use(use)
        self.operands[index] = value
        value._add_use(use)

    def get_operand(self, index: int) -> Value:
        return self.operands[index]

    def num_operands(self) -> int:
        return len(self.operands)

    def drop_all_references(self) -> None:
        """Detach this user from all of its operands' use lists."""
        for operand, use in zip(self.operands, self._operand_uses):
            operand._remove_use(use)
        self.operands.clear()
        self._operand_uses.clear()

    def operand_values(self) -> Iterator[Value]:
        return iter(self.operands)


#: The use list of every constant: always empty, never appended to.
NO_USES: Tuple[Use, ...] = ()


class Constant(Value):
    """Base class for constants (which have no defining instruction).

    Constants keep no use list.  Cloning shares them between the source
    and every copy (copy-on-write views, cached optimized bodies), so a
    use list on a constant would collect the users of every clone ever
    made, keep those discarded clones alive, and make the shared source
    mutable.  No pass asks who uses a constant; use queries on one answer
    "no uses".
    """

    __slots__ = ()

    IS_CONSTANT = True

    def __init__(self, type: Type, name: str = "") -> None:
        self.type = type
        self.name = name
        self._uses = NO_USES


class ConstantInt(Constant):
    """An integer constant, stored canonically as an unsigned value.

    ``value`` is always in ``[0, 2**width)``; use :meth:`signed_value` for
    the two's-complement interpretation.
    """

    __slots__ = ("value",)

    KIND = "int"

    def __init__(self, type: IntType, value: int) -> None:
        if not type.IS_INTEGER:
            raise TypeError(f"ConstantInt requires an integer type, got {type}")
        super().__init__(type)
        self.value = value & type.mask

    @classmethod
    def get(cls, type: IntType, value: int) -> "ConstantInt":
        return cls(type, value)

    @classmethod
    def true(cls) -> "ConstantInt":
        return cls(IntType(1), 1)

    @classmethod
    def false(cls) -> "ConstantInt":
        return cls(IntType(1), 0)

    def signed_value(self) -> int:
        width = self.type.width
        if self.value >= (1 << (width - 1)):
            return self.value - (1 << width)
        return self.value

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def is_all_ones(self) -> bool:
        return self.value == self.type.mask

    def __repr__(self) -> str:
        return f"ConstantInt({self.type}, {self.signed_value()})"


class UndefValue(Constant):
    """``undef``: an unspecified-but-fixed-per-use bit pattern."""

    __slots__ = ()

    KIND = "undef"

    def __repr__(self) -> str:
        return f"UndefValue({self.type})"


class PoisonValue(Constant):
    """``poison``: the result of a violated operation precondition."""

    __slots__ = ()

    KIND = "poison"

    def __repr__(self) -> str:
        return f"PoisonValue({self.type})"


class ConstantPointerNull(Constant):
    """The ``null`` pointer constant."""

    __slots__ = ()

    KIND = "null"

    def __init__(self) -> None:
        super().__init__(PtrType())

    def __repr__(self) -> str:
        return "ConstantPointerNull()"


class Argument(Value):
    """A formal function parameter."""

    __slots__ = ("parent", "index", "attributes")

    KIND = "argument"

    def __init__(self, type: Type, name: str = "", parent=None, index: int = -1) -> None:
        from .attributes import AttributeSet

        super().__init__(type, name)
        self.parent = parent
        self.index = index
        self.attributes = AttributeSet()

    def __repr__(self) -> str:
        return f"Argument({self.type}, %{self.name})"


def same_value(a: "Value", b: "Value") -> bool:
    """Identity, or structural equality for constants.

    Constants are not interned, so pattern matchers must treat two
    ``ConstantInt`` objects with the same type and value as the same value.
    """
    if a is b:
        return True
    kind = a.KIND
    if kind != b.KIND:
        return False
    if kind == "int":
        return a.type is b.type and a.value == b.value
    return kind == "null"


def constant_to_key(value: Constant):
    """A hashable structural key for a constant (used by GVN/CSE)."""
    return _CONSTANT_KEYS[value.KIND](value)


# By constant kind; any other constant (a function) is keyed by identity.
_CONSTANT_KEYS = {
    "int": lambda value: ("int", value.type.width, value.value),
    "undef": lambda value: ("undef", str(value.type)),
    "poison": lambda value: ("poison", str(value.type)),
    "null": lambda value: ("null",),
    "function": lambda value: ("const", id(value)),
}
