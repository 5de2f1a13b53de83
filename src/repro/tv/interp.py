"""Concrete interpreter with full poison/undef semantics.

The reference tree-walker of the translation validator: it executes one
function on concrete inputs, tracking poison values, resolving undef and
frozen-poison through the nondeterminism oracle, modeling byte-granular
memory, and raising :class:`UBError` on undefined behavior.  The
value-level rules come from :mod:`repro.tv.semantics`; what needs a
run's state (memory, oracle, call counters) is written here, once, as
methods the batch engine also calls through each lane's interpreter.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import semantic
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    BinaryOperator,
    BrInst,
    CallInst,
    CastInst,
    FreezeInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiNode,
    RetInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from ..ir.types import Type
from ..ir.values import (
    ConstantInt,
    ConstantPointerNull,
    PoisonValue,
    UndefValue,
    Value,
)
from .domain import (
    NULL_POINTER,
    POISON,
    Pointer,
    RuntimeValue,
    choice_domain,
    interesting_values,
    is_poison,
    to_signed,
)
from .memory import (
    Byte,
    Memory,
    MemoryFault,
    UNDEF_BYTE,
    byte_size_of_width,
    bytes_to_int,
)
from .oracle import DeterministicOracle, Oracle
from .semantics import (
    UBError,
    assume,
    binary_op,
    block_address,
    cast_op,
    evaluate_intrinsic,
    icmp_op,
)

POINTER_SIZE = 8

_UNDEF_BYTE_CHOICES = (0, 0xFF, 0x5A)


class StepLimitExceeded(Exception):
    """Execution exceeded the instruction budget (bounded TV timeout)."""


@dataclass
class ExecutionLimits:
    max_steps: int = semantic(4096)
    max_call_depth: int = semantic(8)


@lru_cache(maxsize=256)
def byte_size_of_type(type: Type) -> int:
    """Bytes a value of ``type`` occupies in memory.  Memoized (types are
    interned): the memory rules ask once per lane."""
    if type.IS_INTEGER:
        return byte_size_of_width(type.width)
    if type.IS_POINTER:
        return POINTER_SIZE
    raise ValueError(f"no memory size for type {type}")


@dataclass
class _Frame:
    values: Dict[int, RuntimeValue] = field(default_factory=dict)

    def get(self, value: Value, interp: "Interpreter") -> RuntimeValue:
        return interp._evaluate_operand(value, self)

    def set(self, inst: Instruction, result: RuntimeValue) -> None:
        self.values[id(inst)] = result


class Interpreter:
    """Executes functions of one module under an oracle and step budget.

    This tree-walker is the reference semantics of the validator: every
    run one input at a time goes through it, and the batch engine
    (:mod:`repro.tv.batch`) is tested lane by lane against it.
    """

    def __init__(
        self,
        module,
        oracle: Optional[Oracle] = None,
        limits: Optional[ExecutionLimits] = None,
    ) -> None:
        self.module = module
        self.oracle = oracle or DeterministicOracle()
        self.limits = limits or ExecutionLimits()
        self.memory = Memory()
        self._steps = 0
        self._alloca_counter = 0
        self._call_counter = 0

    # -- entry point -----------------------------------------------------------

    def run(self, function: Function, args: Sequence[RuntimeValue]) -> RuntimeValue:
        """Execute ``function``; returns its value or raises UBError /
        StepLimitExceeded / MemoryFault-as-UB."""
        try:
            return self._call(function, list(args), depth=0)
        except MemoryFault as fault:
            raise UBError(str(fault)) from fault
        except (ZeroDivisionError, RecursionError) as exc:  # defensive
            raise UBError(str(exc)) from exc

    def reset(
        self,
        oracle: Optional[Oracle] = None,
        blocks: Iterable[Tuple[str, int, Sequence[Byte]]] = (),
    ) -> None:
        """Rewind this interpreter for a fresh run of the same module.

        Clears memory and the step/alloca/call counters exactly as a new
        instance would, then installs ``blocks`` (see
        :meth:`Memory.reset`) — this is the arena the refinement checker
        reuses across inputs and nondeterminism paths instead of
        reallocating per run.
        """
        if oracle is not None:
            self.oracle = oracle
        self.memory.reset(blocks)
        self._steps = 0
        self._alloca_counter = 0
        self._call_counter = 0

    # -- function execution -------------------------------------------------------

    def _call(
        self, function: Function, args: List[RuntimeValue], depth: int
    ) -> RuntimeValue:
        if depth > self.limits.max_call_depth:
            raise StepLimitExceeded("call depth exceeded")
        self._check_argument_attributes(function, args)
        if function.is_declaration():
            return self._call_external(function, args)
        frame = _Frame()
        for argument, value in zip(function.arguments, args):
            frame.values[id(argument)] = value

        block = function.entry_block()
        previous_block: Optional[BasicBlock] = None
        while True:
            # Phis read their inputs atomically w.r.t. the edge taken.
            phi_results: List[Tuple[PhiNode, RuntimeValue]] = []
            for phi in block.phis():
                incoming = phi.incoming_value_for(previous_block)
                if incoming is None:
                    raise UBError("phi has no incoming value for edge")
                phi_results.append((phi, frame.get(incoming, self)))
            for phi, result in phi_results:
                frame.set(phi, result)

            for inst in block.instructions[block.first_non_phi_index():]:
                self._steps += 1
                if self._steps > self.limits.max_steps:
                    raise StepLimitExceeded("step limit exceeded")
                control = self._execute(inst, frame, depth)
                if control is None:
                    continue
                kind, payload = control
                if kind == "return":
                    return payload
                if kind == "branch":
                    previous_block = block
                    block = payload
                    break
            else:
                raise UBError("fell off the end of a block")

    # -- instruction dispatch -----------------------------------------------------

    def _execute(self, inst: Instruction, frame: _Frame, depth: int):
        if isinstance(inst, BinaryOperator):
            lhs = frame.get(inst.operands[0], self)
            rhs = frame.get(inst.operands[1], self)
            op = binary_op(inst.opcode, inst.type.width, inst.nuw, inst.nsw, inst.exact)
            frame.set(inst, op(lhs, rhs))
            return None
        if isinstance(inst, ICmpInst):
            lhs_value, rhs_value = inst.operands
            lhs = frame.get(lhs_value, self)
            rhs = frame.get(rhs_value, self)
            op = icmp_op(inst.predicate, lhs_value.type, rhs_value.type)
            frame.set(inst, op(lhs, rhs))
            return None
        if isinstance(inst, SelectInst):
            condition = frame.get(inst.condition, self)
            if is_poison(condition):
                frame.set(inst, POISON)
            elif condition == 1:
                frame.set(inst, frame.get(inst.true_value, self))
            else:
                frame.set(inst, frame.get(inst.false_value, self))
            return None
        if isinstance(inst, CastInst):
            value = frame.get(inst.value, self)
            op = cast_op(inst.opcode, inst.src_type.width, inst.type.width)
            frame.set(inst, op(value))
            return None
        if isinstance(inst, FreezeInst):
            value = frame.get(inst.value, self)
            if is_poison(value):
                # freeze of poison picks an arbitrary-but-fixed value,
                # resolved through the nondeterminism oracle like undef.
                value = self._choose_value(inst.type, f"freeze:{id(inst)}")
            frame.set(inst, value)
            return None
        if isinstance(inst, AllocaInst):
            self._alloca_counter += 1
            block_id = f"alloca:{self._alloca_counter}"
            pointer = self.memory.add_block(
                block_id, byte_size_of_type(inst.allocated_type)
            )
            frame.set(inst, pointer)
            return None
        if isinstance(inst, LoadInst):
            pointer = frame.get(inst.pointer, self)
            frame.set(inst, self.load(pointer, inst.type, id(inst)))
            return None
        if isinstance(inst, StoreInst):
            pointer = frame.get(inst.pointer, self)
            self.store(pointer, inst.value.type, frame.get, inst.value, self)
            return None
        if isinstance(inst, GEPInst):
            pointer = frame.get(inst.pointer, self)
            indices = (
                (frame.get(index, self), index.type.width) for index in inst.indices
            )
            result = self.gep(pointer, inst.source_type, indices, inst.inbounds)
            frame.set(inst, result)
            return None
        if isinstance(inst, CallInst):
            result = self._eval_call(inst, frame, depth)
            if not inst.type.IS_VOID:
                frame.set(inst, result)
            return None
        if isinstance(inst, RetInst):
            if inst.return_value is None:
                return ("return", None)
            return ("return", frame.get(inst.return_value, self))
        if isinstance(inst, BrInst):
            if not inst.is_conditional():
                return ("branch", inst.operands[0])
            condition = frame.get(inst.condition, self)
            if is_poison(condition):
                raise UBError("branch on poison")
            taken = inst.operands[1] if condition == 1 else inst.operands[2]
            return ("branch", taken)
        if isinstance(inst, SwitchInst):
            value = frame.get(inst.value, self)
            if is_poison(value):
                raise UBError("switch on poison")
            for case_value, case_block in inst.cases():
                if case_value.value == value:
                    return ("branch", case_block)
            return ("branch", inst.default)
        if isinstance(inst, UnreachableInst):
            raise UBError("reached unreachable")
        raise UBError(f"unsupported instruction {inst.opcode}")

    # -- operands ---------------------------------------------------------------

    def _evaluate_operand(self, value: Value, frame: _Frame) -> RuntimeValue:
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, PoisonValue):
            return POISON
        if isinstance(value, UndefValue):
            # Each use of undef is an independent choice.
            return self._choose_value(value.type, f"undef:{id(value)}")
        if isinstance(value, ConstantPointerNull):
            return NULL_POINTER
        if isinstance(value, Function):
            return Pointer(f"func:{value.name}", 0)
        stored = frame.values.get(id(value))
        if stored is None and id(value) not in frame.values:
            raise UBError(f"use of unevaluated value %{value.name or '?'}")
        return stored

    def _choose_value(self, type: Type, label: str) -> RuntimeValue:
        if type.IS_INTEGER:
            if type.width <= 3:
                options: Sequence = choice_domain(type.width)
            else:
                # A sample, not the full 2**width domain: tell the oracle
                # so the refinement checker treats the source's behavior
                # set as under-approximated.
                options = interesting_values(type.width)
                self._note_truncated_domain()
            return self.oracle.choose(label, options)
        if type.IS_POINTER:
            self._note_truncated_domain()
            return self.oracle.choose(label, [NULL_POINTER])
        raise UBError(f"cannot choose a value of type {type}")

    def _note_truncated_domain(self) -> None:
        note = getattr(self.oracle, "note_truncated_domain", None)
        if note is not None:
            note()

    # -- memory: value-level rules both engines call ------------------------------

    def load(self, pointer: RuntimeValue, loaded_type: Type, site: int) -> RuntimeValue:
        """Read a ``loaded_type`` through ``pointer``; ``site`` (the
        load's id) labels the oracle choices for uninitialized bytes."""
        if pointer is POISON:
            raise UBError("load from poison pointer")
        if not isinstance(pointer, Pointer):
            raise UBError("load from non-pointer value")
        data = self.memory.load_bytes(pointer, byte_size_of_type(loaded_type))
        if not loaded_type.IS_INTEGER:
            return self._bytes_to_pointer(data)
        for byte in data:
            if byte is POISON:
                return POISON
        concrete: List[int] = []
        for index, byte in enumerate(data):
            if byte is UNDEF_BYTE:
                self._note_truncated_domain()
                label = f"loadundef:{site}:{index}"
                concrete.append(self.oracle.choose(label, _UNDEF_BYTE_CHOICES))
            elif isinstance(byte, tuple):  # pointer byte read as integer
                concrete.append(self._pointer_byte_as_int(byte))
            else:
                concrete.append(byte)
        return bytes_to_int(concrete) & loaded_type.mask

    def store(
        self, pointer: RuntimeValue, stored_type: Type, resolve, *operand
    ) -> None:
        """Write a ``stored_type`` value through ``pointer``.  The value
        is ``resolve(*operand)``, called only once the pointer passed its
        check: a bad pointer is UB before the stored operand can make an
        oracle choice or fail."""
        if pointer is POISON:
            raise UBError("store to poison pointer")
        if not isinstance(pointer, Pointer):
            raise UBError("store to non-pointer value")
        value = resolve(*operand)
        size = byte_size_of_type(stored_type)
        if value is POISON:
            data: Sequence[Byte] = [POISON] * size
        elif isinstance(value, Pointer):
            data = [("ptr", value.block, value.offset, i) for i in range(size)]
        else:  # integer values are unsigned and fit their width
            data = value.to_bytes(size, "little")
        self.memory.store_bytes(pointer, data)

    def gep(
        self,
        pointer: RuntimeValue,
        element_type: Type,
        indices: Iterable[Tuple[RuntimeValue, int]],
        inbounds: bool,
    ) -> RuntimeValue:
        """``getelementptr`` from ``pointer``.  ``indices`` yields each
        index value with its width and is consumed lazily: a poison
        pointer returns before any index is resolved, and the first
        poison index stops the walk."""
        if pointer is POISON:
            return POISON
        if not isinstance(pointer, Pointer):
            raise UBError("gep on non-pointer value")
        element_size = byte_size_of_type(element_type)
        offset = pointer.offset
        for value, width in indices:
            if value is POISON:
                return POISON
            offset += to_signed(value, width) * element_size
        result = Pointer(pointer.block, offset)
        if inbounds and not pointer.is_null():
            if not self.memory.has_block(pointer.block):
                return result
            size = self.memory.block_size(pointer.block)
            if offset < 0 or offset > size:
                return POISON
        return result

    def _bytes_to_pointer(self, data: List[Byte]) -> RuntimeValue:
        if any(b is POISON for b in data):
            return POISON
        first = data[0]
        if isinstance(first, tuple) and first[0] == "ptr":
            _, block, offset, start = first
            consistent = all(
                isinstance(b, tuple)
                and b[0] == "ptr"
                and b[1] == block
                and b[2] == offset
                and b[3] == start + i
                for i, b in enumerate(data)
            )
            if consistent and start == 0:
                return Pointer(block, offset)
        if all(isinstance(b, int) for b in data):
            raw = bytes_to_int([b for b in data])
            if raw == 0:
                return NULL_POINTER
            return Pointer(f"raw:{raw}", 0)
        # Mixed/undef bytes: unusable pointer.
        return Pointer("invalid", 0)

    def _pointer_byte_as_int(self, byte: tuple) -> int:
        _, block, offset, index = byte
        address = block_address(block) + offset
        return (address >> (8 * index)) & 0xFF

    # -- calls -----------------------------------------------------------------------

    def _check_argument_attributes(
        self, function: Function, args: List[RuntimeValue]
    ) -> None:
        for argument, value in zip(function.arguments, args):
            if argument.attributes.has("noundef") and is_poison(value):
                raise UBError(f"poison passed to noundef arg %{argument.name}")
            dereferenceable = argument.attributes.get_int("dereferenceable")
            if dereferenceable and isinstance(value, Pointer):
                if value.is_null() or not self.memory.has_block(value.block):
                    raise UBError(
                        "non-dereferenceable pointer passed to "
                        f"dereferenceable({dereferenceable}) arg"
                    )
                available = self.memory.block_size(value.block) - value.offset
                if available < dereferenceable:
                    raise UBError(
                        f"pointer does not cover dereferenceable({dereferenceable})"
                    )

    def _eval_call(self, inst: CallInst, frame: _Frame, depth: int) -> RuntimeValue:
        callee = inst.callee
        args = [frame.get(a, self) for a in inst.args]
        if not callee.name.startswith("llvm."):
            return self.call(callee, args, depth)
        base = inst.intrinsic_name()
        if base == "llvm.assume":
            bundles = (
                (bundle.tag, [frame.get(v, self) for v in inst.bundle_operands(bundle)])
                for bundle in inst.bundles
            )
            return assume(args[0], bundles)
        width = inst.type.width if inst.type.IS_INTEGER else 0
        return evaluate_intrinsic(base, callee.name, width, args)

    def call(
        self, callee: Function, args: List[RuntimeValue], depth: int
    ) -> RuntimeValue:
        """Call ``callee`` from a call site at ``depth``.  A null passed
        to a ``nonnull`` parameter becomes poison, or is UB when the
        parameter is also ``noundef``."""
        for index, (argument, value) in enumerate(zip(callee.arguments, args)):
            if (
                argument.attributes.has("nonnull")
                and isinstance(value, Pointer)
                and value.is_null()
            ):
                if argument.attributes.has("noundef"):
                    raise UBError("null passed to nonnull noundef argument")
                args[index] = POISON
        return self._call(callee, args, depth + 1)

    # -- external (opaque) functions -----------------------------------------------

    def _call_external(
        self, function: Function, args: List[RuntimeValue]
    ) -> RuntimeValue:
        """Deterministic model of an unknown external function.

        The function's behavior is a pure function of its name, the call
        sequence number (unless readnone/readonly), its arguments, and the
        bytes its pointer arguments point to.  Because it is deterministic,
        matching call sequences in source and target produce matching
        effects — while any illegal reordering, duplication, or removal by
        the optimizer perturbs downstream state and is caught.
        """
        readnone = function.attributes.has("readnone")
        readonly = function.attributes.has("readonly")
        seed_parts = [function.name]
        if not (readnone or readonly):
            self._call_counter += 1
            seed_parts.append(str(self._call_counter))
        pointer_args: List[Pointer] = []
        for value in args:
            if is_poison(value):
                seed_parts.append("poison")
            elif isinstance(value, Pointer):
                seed_parts.append(f"{value.block}+{value.offset}")
                if not value.is_null() and self.memory.has_block(value.block):
                    pointer_args.append(value)
            else:
                seed_parts.append(str(value))
        if not readnone:
            for pointer in pointer_args:
                data = self.memory.observable_digest(pointer.block)
                seed_parts.append(_digest_bytes(data))
        seed = zlib.crc32("|".join(seed_parts).encode())

        if not (readnone or readonly):
            # Clobber memory reachable through pointer args deterministically.
            for pointer in pointer_args:
                size = self.memory.block_size(pointer.block)
                new_bytes = [
                    (seed + 31 * i + zlib.crc32(pointer.block.encode())) & 0xFF
                    for i in range(size)
                ]
                self.memory.fill(pointer.block, new_bytes)

        return_type = function.return_type
        if return_type.IS_VOID:
            return None
        if return_type.IS_INTEGER:
            return seed & ((1 << return_type.width) - 1)
        if return_type.IS_POINTER:
            return NULL_POINTER
        raise UBError(f"external function returning {return_type}")


def _digest_bytes(data) -> str:
    parts = []
    for byte in data:
        if isinstance(byte, int):
            parts.append(f"{byte:02x}")
        else:
            parts.append("??")
    return "".join(parts)
