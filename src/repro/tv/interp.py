"""Concrete interpreter with full poison/undef semantics.

This is the semantic core of the translation validator: it executes one
function on concrete inputs, tracking poison values, resolving undef and
frozen-poison through the nondeterminism oracle, modeling byte-granular
memory, and raising :class:`UBError` on undefined behavior.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

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
from ..ir.types import IntType, Type
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
    fits_signed,
    interesting_values,
    is_poison,
    saturate,
    to_signed,
    to_unsigned,
    trunc_div,
)
from .memory import (
    Byte,
    Memory,
    MemoryFault,
    UNDEF_BYTE,
    byte_size_of_width,
    bytes_to_int,
    int_to_bytes,
)
from .oracle import DeterministicOracle, Oracle

POINTER_SIZE = 8


class UBError(Exception):
    """Execution hit undefined behavior."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class StepLimitExceeded(Exception):
    """Execution exceeded the instruction budget (bounded TV timeout)."""


@dataclass
class ExecutionLimits:
    max_steps: int = semantic(4096)
    max_call_depth: int = semantic(8)


@lru_cache(maxsize=8192)
def block_address(block: str) -> int:
    """Deterministic numeric address for a logical block (same on both
    sides of a refinement check, so pointer ordering is comparable).

    Memoized: the hot loop recomputes addresses for the same handful of
    block ids on every pointer comparison, so the crc32 is paid once per
    id.  Bounded because ``raw:{N}`` ids are open-ended.
    """
    if block == "null":
        return 0
    return 0x10000 + (zlib.crc32(block.encode()) & 0xFFFF) * 64


def pointer_address(pointer: Pointer) -> int:
    return block_address(pointer.block) + pointer.offset


def byte_size_of_type(type: Type) -> int:
    if isinstance(type, IntType):
        return byte_size_of_width(type.width)
    if type.is_pointer():
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

    def reset(self, oracle: Optional[Oracle] = None) -> None:
        """Rewind this interpreter for a fresh run of the same module.

        Clears memory and the step/alloca/call counters exactly as a new
        instance would — this is the arena the refinement checker reuses
        across inputs and nondeterminism paths instead of reallocating
        per run.
        """
        if oracle is not None:
            self.oracle = oracle
        self.memory.reset()
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
            frame.set(inst, self._eval_binary(inst, frame))
            return None
        if isinstance(inst, ICmpInst):
            frame.set(inst, self._eval_icmp(inst, frame))
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
            frame.set(inst, self._eval_cast(inst, frame))
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
            frame.set(inst, self._eval_load(inst, frame))
            return None
        if isinstance(inst, StoreInst):
            self._eval_store(inst, frame)
            return None
        if isinstance(inst, GEPInst):
            frame.set(inst, self._eval_gep(inst, frame))
            return None
        if isinstance(inst, CallInst):
            result = self._eval_call(inst, frame, depth)
            if not inst.type.is_void():
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
        if isinstance(type, IntType):
            if type.width <= 3:
                options: Sequence = choice_domain(type.width)
            else:
                # A sample, not the full 2**width domain: tell the oracle
                # so the refinement checker treats the source's behavior
                # set as under-approximated.
                options = interesting_values(type.width)
                self._note_truncated_domain()
            return self.oracle.choose(label, options)
        if type.is_pointer():
            self._note_truncated_domain()
            return self.oracle.choose(label, [NULL_POINTER])
        raise UBError(f"cannot choose a value of type {type}")

    def _note_truncated_domain(self) -> None:
        note = getattr(self.oracle, "note_truncated_domain", None)
        if note is not None:
            note()

    # -- arithmetic ----------------------------------------------------------------

    def _eval_binary(self, inst: BinaryOperator, frame: _Frame) -> RuntimeValue:
        lhs = frame.get(inst.lhs, self)
        rhs = frame.get(inst.rhs, self)
        width = inst.type.width
        opcode = inst.opcode

        # Division by zero is immediate UB even with poison on the other
        # side, so check divisors first.
        if opcode in ("udiv", "sdiv", "urem", "srem"):
            if is_poison(rhs):
                raise UBError(f"{opcode} by poison divisor")
            if rhs == 0:
                raise UBError(f"{opcode} by zero")
        if is_poison(lhs) or is_poison(rhs):
            return POISON

        mask = (1 << width) - 1
        if opcode == "add":
            result = (lhs + rhs) & mask
            if inst.nuw and lhs + rhs > mask:
                return POISON
            if inst.nsw and not fits_signed(
                to_signed(lhs, width) + to_signed(rhs, width), width
            ):
                return POISON
            return result
        if opcode == "sub":
            result = (lhs - rhs) & mask
            if inst.nuw and lhs - rhs < 0:
                return POISON
            if inst.nsw and not fits_signed(
                to_signed(lhs, width) - to_signed(rhs, width), width
            ):
                return POISON
            return result
        if opcode == "mul":
            result = (lhs * rhs) & mask
            if inst.nuw and lhs * rhs > mask:
                return POISON
            if inst.nsw and not fits_signed(
                to_signed(lhs, width) * to_signed(rhs, width), width
            ):
                return POISON
            return result
        if opcode == "udiv":
            result = lhs // rhs
            if inst.exact and lhs % rhs != 0:
                return POISON
            return result
        if opcode == "sdiv":
            signed_lhs = to_signed(lhs, width)
            signed_rhs = to_signed(rhs, width)
            if signed_lhs == -(1 << (width - 1)) and signed_rhs == -1:
                raise UBError("sdiv overflow")
            quotient = trunc_div(signed_lhs, signed_rhs)
            if inst.exact and signed_lhs - quotient * signed_rhs != 0:
                return POISON
            return to_unsigned(quotient, width)
        if opcode == "urem":
            return lhs % rhs
        if opcode == "srem":
            signed_lhs = to_signed(lhs, width)
            signed_rhs = to_signed(rhs, width)
            if signed_lhs == -(1 << (width - 1)) and signed_rhs == -1:
                raise UBError("srem overflow")
            remainder = signed_lhs - trunc_div(signed_lhs, signed_rhs) * signed_rhs
            return to_unsigned(remainder, width)
        if opcode in ("shl", "lshr", "ashr"):
            if rhs >= width:
                return POISON
            if opcode == "shl":
                full = lhs << rhs
                result = full & mask
                if inst.nuw and full > mask:
                    return POISON
                shifted = to_signed(lhs, width) * (1 << rhs)
                if inst.nsw and to_signed(result, width) != shifted:
                    return POISON
                return result
            if opcode == "lshr":
                if inst.exact and lhs & ((1 << rhs) - 1):
                    return POISON
                return lhs >> rhs
            # ashr
            if inst.exact and lhs & ((1 << rhs) - 1):
                return POISON
            return to_unsigned(to_signed(lhs, width) >> rhs, width)
        if opcode == "and":
            return lhs & rhs
        if opcode == "or":
            return lhs | rhs
        if opcode == "xor":
            return lhs ^ rhs
        raise UBError(f"unsupported binary opcode {opcode}")

    def _eval_icmp(self, inst: ICmpInst, frame: _Frame) -> RuntimeValue:
        lhs = frame.get(inst.lhs, self)
        rhs = frame.get(inst.rhs, self)
        if is_poison(lhs) or is_poison(rhs):
            return POISON
        if isinstance(lhs, Pointer) or isinstance(rhs, Pointer):
            lhs_num = pointer_address(lhs) if isinstance(lhs, Pointer) else lhs
            rhs_num = pointer_address(rhs) if isinstance(rhs, Pointer) else rhs
            width = 64
        else:
            lhs_num, rhs_num = lhs, rhs
            width = inst.lhs.type.width
        predicate = inst.predicate
        if predicate in ("sgt", "sge", "slt", "sle"):
            lhs_num = to_signed(lhs_num, width)
            rhs_num = to_signed(rhs_num, width)
        result = {
            "eq": lhs_num == rhs_num,
            "ne": lhs_num != rhs_num,
            "ugt": lhs_num > rhs_num,
            "uge": lhs_num >= rhs_num,
            "ult": lhs_num < rhs_num,
            "ule": lhs_num <= rhs_num,
            "sgt": lhs_num > rhs_num,
            "sge": lhs_num >= rhs_num,
            "slt": lhs_num < rhs_num,
            "sle": lhs_num <= rhs_num,
        }[predicate]
        return int(result)

    def _eval_cast(self, inst: CastInst, frame: _Frame) -> RuntimeValue:
        value = frame.get(inst.value, self)
        if is_poison(value):
            return POISON
        src_width = inst.src_type.width
        dst_width = inst.type.width
        if inst.opcode == "trunc":
            return value & ((1 << dst_width) - 1)
        if inst.opcode == "zext":
            return value
        if inst.opcode == "sext":
            return to_unsigned(to_signed(value, src_width), dst_width)
        raise UBError(f"unsupported cast {inst.opcode}")

    # -- memory ---------------------------------------------------------------------

    def _eval_load(self, inst: LoadInst, frame: _Frame) -> RuntimeValue:
        pointer = frame.get(inst.pointer, self)
        if is_poison(pointer):
            raise UBError("load from poison pointer")
        if not isinstance(pointer, Pointer):
            raise UBError("load from non-pointer value")
        size = byte_size_of_type(inst.type)
        data = self.memory.load_bytes(pointer, size)
        if inst.type.is_pointer():
            return self._bytes_to_pointer(data, f"load:{id(inst)}")
        if any(b is POISON for b in data):
            return POISON
        concrete: List[int] = []
        for i, byte in enumerate(data):
            if byte is UNDEF_BYTE:
                self._note_truncated_domain()
                concrete.append(
                    self.oracle.choose(f"loadundef:{id(inst)}:{i}", [0, 0xFF, 0x5A])
                )
            elif isinstance(byte, tuple):  # pointer byte read as integer
                concrete.append(self._pointer_byte_as_int(byte))
            else:
                concrete.append(byte)
        width = inst.type.width
        return bytes_to_int(concrete) & ((1 << width) - 1)

    def _eval_store(self, inst: StoreInst, frame: _Frame) -> None:
        pointer = frame.get(inst.pointer, self)
        if is_poison(pointer):
            raise UBError("store to poison pointer")
        if not isinstance(pointer, Pointer):
            raise UBError("store to non-pointer value")
        value = frame.get(inst.value, self)
        size = byte_size_of_type(inst.value.type)
        if is_poison(value):
            data: List[Byte] = [POISON] * size
        elif isinstance(value, Pointer):
            data = [("ptr", value.block, value.offset, i) for i in range(size)]
        else:
            data = int_to_bytes(value, size)
        self.memory.store_bytes(pointer, data)

    def _eval_gep(self, inst: GEPInst, frame: _Frame) -> RuntimeValue:
        pointer = frame.get(inst.pointer, self)
        if is_poison(pointer):
            return POISON
        if not isinstance(pointer, Pointer):
            raise UBError("gep on non-pointer value")
        element_size = byte_size_of_type(inst.source_type)
        offset = pointer.offset
        for index in inst.indices:
            index_value = frame.get(index, self)
            if is_poison(index_value):
                return POISON
            offset += to_signed(index_value, index.type.width) * element_size
        result = Pointer(pointer.block, offset)
        if inst.inbounds and not pointer.is_null():
            if not self.memory.has_block(pointer.block):
                return result
            size = self.memory.block_size(pointer.block)
            if offset < 0 or offset > size:
                return POISON
        return result

    def _bytes_to_pointer(self, data: List[Byte], label: str) -> RuntimeValue:
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
        if callee.name.startswith("llvm."):
            return self._eval_intrinsic(inst, callee.name, args, frame)
        # nonnull on the callee's parameters: violating it yields poison
        # (or UB when combined with noundef).
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

    def _eval_intrinsic(
        self, inst: CallInst, name: str, args: List[RuntimeValue], frame: _Frame
    ) -> RuntimeValue:
        base = inst.intrinsic_name()
        if base == "llvm.assume":
            condition = args[0]
            if is_poison(condition):
                raise UBError("assume of poison")
            if condition != 1:
                raise UBError("assume of false")
            self._check_assume_bundles(inst, frame)
            return None
        width = inst.type.width if isinstance(inst.type, IntType) else 0
        if any(is_poison(a) for a in args):
            return POISON
        mask = (1 << width) - 1 if width else 0
        return evaluate_intrinsic(base, name, width, mask, args)

    def _check_assume_bundles(self, inst: CallInst, frame: _Frame) -> None:
        for bundle in inst.bundles:
            operands = [frame.get(v, self) for v in inst.bundle_operands(bundle)]
            if bundle.tag == "align" and len(operands) == 2:
                pointer, align = operands
                if is_poison(pointer) or is_poison(align):
                    raise UBError("assume align on poison")
                if isinstance(pointer, Pointer) and align:
                    if pointer_address(pointer) % align != 0:
                        raise UBError("assume align violated")
            elif bundle.tag == "nonnull" and operands:
                pointer = operands[0]
                if isinstance(pointer, Pointer) and pointer.is_null():
                    raise UBError("assume nonnull violated")

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
        if return_type.is_void():
            return None
        if isinstance(return_type, IntType):
            return seed & ((1 << return_type.width) - 1)
        if return_type.is_pointer():
            return NULL_POINTER
        raise UBError(f"external function returning {return_type}")


def evaluate_intrinsic(
    base: str, name: str, width: int, mask: int, args: List[RuntimeValue]
) -> RuntimeValue:
    """Pure evaluation of a (non-assume) intrinsic on poison-free args.

    Shared between the tree-walking evaluator and the batch engine so
    the two cannot drift.
    """
    if base in ("llvm.smax", "llvm.smin"):
        lhs = to_signed(args[0], width)
        rhs = to_signed(args[1], width)
        chosen = max(lhs, rhs) if base.endswith("smax") else min(lhs, rhs)
        return to_unsigned(chosen, width)
    if base in ("llvm.umax", "llvm.umin"):
        return max(args[0], args[1]) if base.endswith("umax") else min(args[0], args[1])
    if base == "llvm.abs":
        value = to_signed(args[0], width)
        if value == -(1 << (width - 1)):
            if args[1] == 1:
                return POISON
            return to_unsigned(value, width)
        return abs(value)
    if base == "llvm.ctpop":
        return bin(args[0]).count("1")
    if base == "llvm.ctlz":
        if args[0] == 0:
            return POISON if args[1] == 1 else width
        return width - args[0].bit_length()
    if base == "llvm.cttz":
        if args[0] == 0:
            return POISON if args[1] == 1 else width
        return (args[0] & -args[0]).bit_length() - 1
    if base == "llvm.bswap":
        size = width // 8
        data = int_to_bytes(args[0], size)
        return bytes_to_int(list(reversed(data)))
    if base == "llvm.bitreverse":
        return int(format(args[0], f"0{width}b")[::-1], 2)
    if base == "llvm.sadd.sat":
        total = to_signed(args[0], width) + to_signed(args[1], width)
        return saturate(total, width, signed=True)
    if base == "llvm.ssub.sat":
        total = to_signed(args[0], width) - to_signed(args[1], width)
        return saturate(total, width, signed=True)
    if base == "llvm.uadd.sat":
        return saturate(args[0] + args[1], width, signed=False)
    if base == "llvm.usub.sat":
        return saturate(args[0] - args[1], width, signed=False)
    if base in ("llvm.fshl", "llvm.fshr"):
        amount = args[2] % width
        concat = (args[0] << width) | args[1]
        if base.endswith("fshl"):
            return (concat >> (width - amount)) & mask if amount else args[0]
        return (concat >> amount) & mask if amount else args[1]
    if base == "llvm.umul.with.overflow.bit":
        return int(args[0] * args[1] > mask)
    raise UBError(f"unsupported intrinsic {name}")


def _digest_bytes(data) -> str:
    parts = []
    for byte in data:
        if isinstance(byte, int):
            parts.append(f"{byte:02x}")
        else:
            parts.append("??")
    return "".join(parts)
