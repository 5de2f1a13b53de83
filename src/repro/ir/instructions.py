"""Instruction classes for the LLVM-like IR.

The instruction set covers what the paper's mutations and optimizations
exercise: integer arithmetic with poison-generating flags, comparisons,
selects, casts, memory operations, calls (including intrinsics and
``llvm.assume`` operand bundles), control flow, phis, and ``freeze``.

Each instruction class names its kind (``KIND``) and whether it is a
terminator (``IS_TERMINATOR``) as class constants, and every opcode names
exactly one class (:data:`OPCODE_CLASSES`), so code that switches on
the instruction in hand reads ``inst.opcode`` or ``inst.KIND`` and
dispatches through a table built by :func:`opcode_table`.
"""

from __future__ import annotations

from typing import (Dict, List, Mapping, Optional, Sequence, Tuple,
                    TYPE_CHECKING, TypeVar)

from .attributes import AttributeSet
from .types import IntType, PtrType, Type, VoidType
from .values import ConstantInt, User, Value

if TYPE_CHECKING:  # pragma: no cover
    from .basicblock import BasicBlock
    from .function import Function


# ---------------------------------------------------------------------------
# Opcode metadata tables (consumed by the mutation engine and the verifier).
# ---------------------------------------------------------------------------

BINARY_OPCODES: Tuple[str, ...] = (
    "add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
    "shl", "lshr", "ashr", "and", "or", "xor",
)

COMMUTATIVE_OPCODES = frozenset({"add", "mul", "and", "or", "xor"})

# Opcodes that accept nsw/nuw flags.
WRAPPING_FLAG_OPCODES = frozenset({"add", "sub", "mul", "shl"})

# Opcodes that accept the `exact` flag.
EXACT_FLAG_OPCODES = frozenset({"udiv", "sdiv", "lshr", "ashr"})

# Opcodes whose semantics are uniform across every integer bit width; only
# these participate in the bitwidth-change mutation (paper §IV-H).
BITWIDTH_POLYMORPHIC_OPCODES = frozenset(BINARY_OPCODES)

ICMP_PREDICATES: Tuple[str, ...] = (
    "eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle",
)

SIGNED_PREDICATES = frozenset({"sgt", "sge", "slt", "sle"})
UNSIGNED_PREDICATES = frozenset({"ugt", "uge", "ult", "ule"})

CAST_OPCODES: Tuple[str, ...] = ("trunc", "zext", "sext")

SWAPPED_PREDICATE: Dict[str, str] = {
    "eq": "eq", "ne": "ne",
    "ugt": "ult", "uge": "ule", "ult": "ugt", "ule": "uge",
    "sgt": "slt", "sge": "sle", "slt": "sgt", "sle": "sge",
}

INVERTED_PREDICATE: Dict[str, str] = {
    "eq": "ne", "ne": "eq",
    "ugt": "ule", "uge": "ult", "ult": "uge", "ule": "ugt",
    "sgt": "sle", "sge": "slt", "slt": "sge", "sle": "sgt",
}


class Instruction(User):
    """Base class of all instructions."""

    __slots__ = ("opcode", "parent")

    KIND = "instruction"
    IS_INSTRUCTION = True

    def __init__(self, opcode: str, type: Type, operands: Sequence[Value],
                 name: str = "") -> None:
        super().__init__(type, name)
        self.opcode = opcode
        self.parent: Optional["BasicBlock"] = None
        for operand in operands:
            self._append_operand(operand)

    # -- placement ---------------------------------------------------------

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    def erase_from_parent(self) -> None:
        """Remove from the containing block and drop operand references."""
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_all_references()

    def remove_from_parent(self) -> None:
        """Detach from the block but keep operand references intact."""
        if self.parent is not None:
            self.parent.remove(self)

    def index_in_block(self) -> int:
        if self.parent is None:
            raise ValueError("instruction has no parent block")
        return self.parent.index_of(self)

    # -- memory effects (loads, stores, allocas and calls override) ---------

    def may_read_memory(self) -> bool:
        return False

    def may_write_memory(self) -> bool:
        return False

    def has_side_effects(self) -> bool:
        return self.IS_TERMINATOR or self.may_write_memory()

    def flags_repr(self) -> str:
        """Printable flag string (``"nuw nsw "`` etc.); empty by default."""
        return ""

    def clone(self) -> "Instruction":
        """A detached, unnamed copy over the same operands."""
        return self.copy_with(self.operands)

    def copy_with(self, operands: Sequence[Value]) -> "Instruction":
        """A detached, unnamed copy over ``operands``, one per slot."""
        new = self._bare_copy()
        for value in operands:
            new._append_operand(value)
        return new

    def _bare_copy(self) -> "Instruction":
        """A detached, unnamed copy with no operands yet.

        It carries the opcode, the result type and whatever the subclass
        adds (flags, predicate, alignment, callee ...); the caller fills
        the operand slots.  Bypassing ``__init__`` is what lets
        :meth:`Module.clone` register each operand once, on the copy's
        values only.
        """
        cls = self.__class__
        new = cls.__new__(cls)
        new.type = self.type
        new.name = ""
        new._uses = []
        new.operands = []
        new._operand_uses = []
        new.opcode = self.opcode
        new.parent = None
        return new

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.opcode} {self.short_name()}>"


class BinaryOperator(Instruction):
    """Integer binary arithmetic: ``add``, ``sub``, ``mul``, shifts, etc."""

    __slots__ = ("nuw", "nsw", "exact")

    KIND = "binop"

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = "",
                 nuw: bool = False, nsw: bool = False, exact: bool = False) -> None:
        if opcode not in BINARY_OPCODES:
            raise ValueError(f"unknown binary opcode: {opcode}")
        super().__init__(opcode, lhs.type, [lhs, rhs], name)
        self.nuw = nuw
        self.nsw = nsw
        self.exact = exact

    # Public accessors for tests and tools; code in the package reads
    # ``operands[0]`` / ``operands[1]`` (a property is a call).
    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPCODES

    def supports_wrapping_flags(self) -> bool:
        return self.opcode in WRAPPING_FLAG_OPCODES

    def supports_exact_flag(self) -> bool:
        return self.opcode in EXACT_FLAG_OPCODES

    def flags_repr(self) -> str:
        parts = []
        if self.nuw:
            parts.append("nuw")
        if self.nsw:
            parts.append("nsw")
        if self.exact:
            parts.append("exact")
        return "".join(part + " " for part in parts)

    def _bare_copy(self) -> "BinaryOperator":
        new = Instruction._bare_copy(self)
        new.nuw = self.nuw
        new.nsw = self.nsw
        new.exact = self.exact
        return new


class ICmpInst(Instruction):
    """Integer/pointer comparison producing an ``i1``."""

    __slots__ = ("predicate",)

    KIND = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate: {predicate}")
        super().__init__("icmp", IntType(1), [lhs, rhs], name)
        self.predicate = predicate

    # Public accessors; see BinaryOperator.lhs.
    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def swapped_predicate(self) -> str:
        return SWAPPED_PREDICATE[self.predicate]

    def inverted_predicate(self) -> str:
        return INVERTED_PREDICATE[self.predicate]

    def is_signed(self) -> bool:
        return self.predicate in SIGNED_PREDICATES

    def is_unsigned(self) -> bool:
        return self.predicate in UNSIGNED_PREDICATES

    def is_equality(self) -> bool:
        return self.predicate in ("eq", "ne")

    def _bare_copy(self) -> "ICmpInst":
        new = Instruction._bare_copy(self)
        new.predicate = self.predicate
        return new


class SelectInst(Instruction):
    """``select i1 %c, T %a, T %b``."""

    __slots__ = ()

    KIND = "select"

    def __init__(self, condition: Value, true_value: Value, false_value: Value,
                 name: str = "") -> None:
        super().__init__("select", true_value.type,
                         [condition, true_value, false_value], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


class CastInst(Instruction):
    """Integer casts: ``trunc``, ``zext``, ``sext``."""

    __slots__ = ()

    KIND = "cast"

    def __init__(self, opcode: str, value: Value, dest_type: Type, name: str = "") -> None:
        if opcode not in CAST_OPCODES:
            raise ValueError(f"unknown cast opcode: {opcode}")
        super().__init__(opcode, dest_type, [value], name)

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def src_type(self) -> Type:
        return self.value.type


class FreezeInst(Instruction):
    """``freeze`` stops poison/undef propagation by picking an arbitrary value."""

    __slots__ = ()

    KIND = "freeze"

    def __init__(self, value: Value, name: str = "") -> None:
        super().__init__("freeze", value.type, [value], name)

    @property
    def value(self) -> Value:
        return self.operands[0]


class AllocaInst(Instruction):
    """Stack allocation of one element of ``allocated_type``."""

    __slots__ = ("allocated_type", "align")

    KIND = "alloca"

    def __init__(self, allocated_type: Type, name: str = "", align: int = 0) -> None:
        super().__init__("alloca", PtrType(), [], name)
        self.allocated_type = allocated_type
        self.align = align

    def has_side_effects(self) -> bool:
        return True

    def _bare_copy(self) -> "AllocaInst":
        new = Instruction._bare_copy(self)
        new.allocated_type = self.allocated_type
        new.align = self.align
        return new


class LoadInst(Instruction):
    """``load T, ptr %p``."""

    __slots__ = ("align",)

    KIND = "load"

    def __init__(self, loaded_type: Type, pointer: Value, name: str = "",
                 align: int = 0) -> None:
        super().__init__("load", loaded_type, [pointer], name)
        self.align = align

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    def may_read_memory(self) -> bool:
        return True

    def _bare_copy(self) -> "LoadInst":
        new = Instruction._bare_copy(self)
        new.align = self.align
        return new


class StoreInst(Instruction):
    """``store T %v, ptr %p``."""

    __slots__ = ("align",)

    KIND = "store"

    def __init__(self, value: Value, pointer: Value, align: int = 0) -> None:
        super().__init__("store", VoidType(), [value, pointer], "")
        self.align = align

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    def may_write_memory(self) -> bool:
        return True

    def _bare_copy(self) -> "StoreInst":
        new = Instruction._bare_copy(self)
        new.align = self.align
        return new


class GEPInst(Instruction):
    """Simplified ``getelementptr``: byte-style pointer arithmetic.

    ``getelementptr T, ptr %p, iN %idx`` computes ``p + idx * sizeof(T)``.
    The paper treats GEP as arithmetic for mutation purposes (§IV-E).
    """

    __slots__ = ("source_type", "inbounds")

    KIND = "gep"

    def __init__(self, source_type: Type, pointer: Value, indices: Sequence[Value],
                 name: str = "", inbounds: bool = False) -> None:
        super().__init__("getelementptr", PtrType(), [pointer, *indices], name)
        self.source_type = source_type
        self.inbounds = inbounds

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]

    def flags_repr(self) -> str:
        return "inbounds " if self.inbounds else ""

    def _bare_copy(self) -> "GEPInst":
        new = Instruction._bare_copy(self)
        new.source_type = self.source_type
        new.inbounds = self.inbounds
        return new


class OperandBundle:
    """An operand bundle on a call, e.g. ``[ "align"(ptr %p, i64 123) ]``."""

    __slots__ = ("tag", "inputs", "_range")

    def __init__(self, tag: str, inputs: Sequence[Value]) -> None:
        self.tag = tag
        self.inputs = list(inputs)
        self._range: Optional[Tuple[int, int]] = None

    def __repr__(self) -> str:
        return f'OperandBundle("{self.tag}", {len(self.inputs)} inputs)'


class CallInst(Instruction):
    """A direct call. The callee is a :class:`~repro.ir.function.Function`.

    Operand layout: ``[arg0, arg1, ..., bundle inputs...]`` — keeping bundle
    inputs as real operands keeps use lists correct when mutations rewrite
    them.  ``bundle_slices`` records which operand ranges belong to which
    bundle.
    """

    __slots__ = ("callee", "bundles", "attributes")

    KIND = "call"

    def __init__(self, callee, args: Sequence[Value], name: str = "",
                 bundles: Sequence[OperandBundle] = ()) -> None:
        return_type = callee.return_type
        super().__init__("call", return_type, list(args), name)
        self.callee = callee
        self.attributes = AttributeSet()
        self.bundles: List[OperandBundle] = []
        for bundle in bundles:
            self.add_bundle(bundle)

    def add_bundle(self, bundle: OperandBundle) -> None:
        # Register bundle inputs as operands so use lists stay correct.
        registered = []
        for value in bundle.inputs:
            self._append_operand(value)
            registered.append(value)
        recorded = OperandBundle(bundle.tag, [])
        recorded.inputs = registered
        start = self.num_operands() - len(registered)
        recorded._range = (start, self.num_operands())  # type: ignore[attr-defined]
        self.bundles.append(recorded)

    @property
    def args(self) -> List[Value]:
        if not self.bundles:
            return self.operands[:]
        num_bundle_inputs = sum(len(b.inputs) for b in self.bundles)
        end = len(self.operands) - num_bundle_inputs
        return self.operands[:end]

    def bundle_operands(self, bundle: OperandBundle) -> List[Value]:
        start, end = bundle._range  # type: ignore[attr-defined]
        return self.operands[start:end]

    def is_intrinsic(self) -> bool:
        return self.callee.name.startswith("llvm.")

    def intrinsic_name(self) -> str:
        """Base intrinsic name without the type suffix (``llvm.smax``)."""
        name = self.callee.name
        if not name.startswith("llvm."):
            return ""
        parts = name.split(".")
        while parts and (parts[-1].startswith("i") and parts[-1][1:].isdigit()):
            parts.pop()
        return ".".join(parts)

    def is_readnone(self) -> bool:
        return self.callee.attributes.has("readnone")

    def is_readonly(self) -> bool:
        return self.callee.attributes.has("readonly")

    def may_read_memory(self) -> bool:
        return not self.is_readnone()

    def may_write_memory(self) -> bool:
        return not (self.is_readnone() or self.is_readonly())

    def copy_with(self, operands: Sequence[Value]) -> "CallInst":
        new = Instruction.copy_with(self, operands)
        new._bind_bundle_inputs()
        return new

    def _bare_copy(self) -> "CallInst":
        new = Instruction._bare_copy(self)
        new.callee = self.callee
        new.attributes = self.attributes.copy()
        new.bundles = []
        for bundle in self.bundles:
            copy = OperandBundle(bundle.tag, ())
            copy._range = bundle._range
            new.bundles.append(copy)
        return new

    def _bind_bundle_inputs(self) -> None:
        """Point each bundle's ``inputs`` at its slice of the operands."""
        for bundle in self.bundles:
            start, end = bundle._range  # type: ignore[misc]
            bundle.inputs = self.operands[start:end]


class RetInst(Instruction):
    """``ret void`` or ``ret T %v``."""

    __slots__ = ()

    KIND = "ret"
    IS_TERMINATOR = True

    def __init__(self, value: Optional[Value] = None) -> None:
        operands = [] if value is None else [value]
        super().__init__("ret", VoidType(), operands, "")

    @property
    def return_value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def successors(self) -> List["BasicBlock"]:
        return []


class BrInst(Instruction):
    """Unconditional (``br label %bb``) or conditional branch."""

    __slots__ = ()

    KIND = "br"
    IS_TERMINATOR = True

    def __init__(self, *args) -> None:
        if len(args) == 1:
            super().__init__("br", VoidType(), [args[0]], "")
        elif len(args) == 3:
            condition, true_block, false_block = args
            super().__init__("br", VoidType(),
                             [condition, true_block, false_block], "")
        else:
            raise ValueError("BrInst takes 1 (dest) or 3 (cond, t, f) operands")

    def is_conditional(self) -> bool:
        return len(self.operands) == 3

    @property
    def condition(self) -> Optional[Value]:
        operands = self.operands
        return operands[0] if len(operands) == 3 else None

    def successors(self) -> List["BasicBlock"]:
        operands = self.operands
        if len(operands) == 3:
            return [operands[1], operands[2]]
        return [operands[0]]


class SwitchInst(Instruction):
    """``switch iN %v, label %default [ iN C0, label %bb0 ... ]``.

    Operand layout: ``[value, default, case_val0, case_block0, ...]``.
    """

    __slots__ = ()

    KIND = "switch"
    IS_TERMINATOR = True

    def __init__(self, value: Value, default: "BasicBlock",
                 cases: Sequence[Tuple[ConstantInt, "BasicBlock"]] = ()) -> None:
        operands: List[Value] = [value, default]
        for case_value, case_block in cases:
            operands.append(case_value)
            operands.append(case_block)
        super().__init__("switch", VoidType(), operands, "")

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def default(self) -> "BasicBlock":
        return self.operands[1]

    def cases(self) -> List[Tuple[ConstantInt, "BasicBlock"]]:
        operands = self.operands
        return list(zip(operands[2::2], operands[3::2]))

    def successors(self) -> List["BasicBlock"]:
        return self.operands[1::2]


class UnreachableInst(Instruction):
    """Executing ``unreachable`` is immediate undefined behavior."""

    __slots__ = ()

    KIND = "unreachable"
    IS_TERMINATOR = True

    def __init__(self) -> None:
        super().__init__("unreachable", VoidType(), [], "")

    def successors(self) -> List["BasicBlock"]:
        return []


class PhiNode(Instruction):
    """SSA phi. Operand layout: ``[v0, bb0, v1, bb1, ...]``."""

    __slots__ = ()

    KIND = "phi"

    def __init__(self, type: Type,
                 incoming: Sequence[Tuple[Value, "BasicBlock"]] = (),
                 name: str = "") -> None:
        operands: List[Value] = []
        for value, block in incoming:
            operands.append(value)
            operands.append(block)
        super().__init__("phi", type, operands, name)

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self._append_operand(value)
        self._append_operand(block)

    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        operands = self.operands
        return list(zip(operands[::2], operands[1::2]))

    def incoming_value_for(self, block: "BasicBlock") -> Optional[Value]:
        operands = self.operands
        for i in range(1, len(operands), 2):
            if operands[i] is block:
                return operands[i - 1]
        return None

    def remove_incoming(self, block: "BasicBlock") -> None:
        """Drop the incoming edge from ``block`` (all occurrences)."""
        pairs = [(v, b) for v, b in self.incoming() if b is not block]
        self.drop_all_references()
        for value, incoming_block in pairs:
            self._append_operand(value)
            self._append_operand(incoming_block)

    def set_incoming_value_for(self, block: "BasicBlock", value: Value) -> None:
        for i in range(1, len(self.operands), 2):
            if self.operands[i] is block:
                self.set_operand(i - 1, value)
                return
        raise ValueError(f"phi has no incoming edge from {block}")


# -- opcodes -----------------------------------------------------------------

#: The class of every opcode the parser reads; each opcode names exactly
#: one class, so ``inst.opcode`` alone decides what ``inst`` is.
OPCODE_CLASSES: Dict[str, type] = {
    **dict.fromkeys(BINARY_OPCODES, BinaryOperator),
    "icmp": ICmpInst,
    "select": SelectInst,
    **dict.fromkeys(CAST_OPCODES, CastInst),
    "freeze": FreezeInst,
    "alloca": AllocaInst,
    "load": LoadInst,
    "store": StoreInst,
    "getelementptr": GEPInst,
    "call": CallInst,
    "ret": RetInst,
    "br": BrInst,
    "switch": SwitchInst,
    "unreachable": UnreachableInst,
    "phi": PhiNode,
}

OPCODES: Tuple[str, ...] = tuple(OPCODE_CLASSES)

_T = TypeVar("_T")


def opcode_table(default: _T, entries: Mapping[str, _T]) -> Dict[str, _T]:
    """A dispatch table with an entry for every opcode.

    ``entries`` where it has one, ``default`` everywhere else, so a
    lookup is a subscription that cannot miss: ``table[inst.opcode]``.
    """
    unknown = set(entries) - set(OPCODE_CLASSES)
    if unknown:
        raise ValueError(f"not opcodes: {sorted(unknown)}")
    table = dict.fromkeys(OPCODES, default)
    table.update(entries)
    return table
