"""Compile-once execution plans for the TV interpreter (paper §III-B).

The refinement checker executes the same two functions across
``max_inputs × max_nondet_runs`` runs, and the campaign re-executes the
fixed source function for every mutant.  Tree-walking the IR pays
per-instruction ``isinstance`` dispatch, ``Dict[id(inst)]`` frame
lookups, and re-derivation of static facts (widths, flags, branch
targets, phi schedules) on every single step of every run.  This module
lowers a :class:`~repro.ir.function.Function` *once* into an
:class:`ExecutionPlan` — the paper's "pay analysis cost once, reuse
across mutants" principle applied to execution itself:

* every instruction becomes a specialized closure with its static
  operands (widths, masks, poison flags, predicates, sizes, constants)
  captured at compile time — no dispatch chain at runtime;
* operands resolve through dense frame-slot indices into a flat list
  frame instead of an id-keyed dict;
* CFG edges precompute their target and the phi parallel-copy schedule,
  and constant pointer addresses (:func:`pointer_address` of functions
  and null) are folded into the plan;
* everything dynamic — oracle choices, memory, step budget, UB — calls
  the exact helpers the tree-walking evaluator uses, so the observable
  semantics (poison/undef propagation, oracle choice order and domain
  sizes, UB classification, step-limit timing) are identical by
  construction.  The differential suite in ``tests/test_compile.py``
  locks that equivalence.

Plans are cached process-wide in a :class:`PlanCache` keyed by
structural fingerprint plus everything the fingerprint deliberately
normalizes away but execution can observe: local value names (they
appear in UB detail strings) and the attribute environment of reachable
declarations (external-call semantics).  A cached plan starts as its
slot layout and step bound only; the closures are compiled by whichever
engine first runs it — the batched twin (:mod:`repro.tv.batch`) for a
normal refinement check, the scalar program here for nested calls, the
scalar fallback and the ablation modes.  Compilation failures fall back
to the tree-walking evaluator, never to an error.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..analysis.cfg import reverse_postorder
from ..ir.basicblock import BasicBlock
from ..ir.fingerprint import _referenced_functions, fingerprint_closure
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
    RetInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from ..ir.types import IntType
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
    fits_signed,
    to_signed,
    to_unsigned,
    trunc_div,
)
from .interp import (
    StepLimitExceeded,
    UBError,
    byte_size_of_type,
    evaluate_intrinsic,
    pointer_address,
)
from .memory import UNDEF_BYTE, int_to_bytes, bytes_to_int

__all__ = [
    "ExecutionPlan",
    "LRUCache",
    "PlanCache",
    "compile_function",
    "global_plan_cache",
    "plan_key",
    "reset_global_plan_cache",
]

# A frame slot that was never written.  Distinct from None: void call
# results are never stored, and a returned None must not read as "set".
_UNSET = object()

_RETURN_VOID = ("return", None)

_UNDEF_BYTE_CHOICES = (0, 0xFF, 0x5A)

# Resolver/step signature: (interpreter, frame) -> value / control.
Resolver = Callable[[Any, List[Any]], Any]


# How much weight may wait on probation for its second sighting (see
# LRUCache).  In the cache's own unit: entries for the memo caches,
# frame slots for the plan cache.
PROBATION = 2048


class LRUCache:
    """A bounded mapping that admits on reuse (segmented LRU).

    A new entry waits in a *probationary* segment of fixed size
    (:data:`PROBATION`); its first hit promotes it to the *main*
    segment, which holds the rest of ``capacity``.  Keys seen once flow
    through probation and are dropped after a bounded wait, without ever
    displacing an entry that has proven its reuse; a main segment that
    overflows demotes its least-recently-used entry back to probation
    for one more chance.  ``capacity`` counts ``weight`` units (1 per
    entry unless ``put`` says otherwise).  Probation always keeps its
    newest entry, so one entry heavier than the whole cache is still
    cached, alone.  A cache no larger than :data:`PROBATION` is all
    probation, i.e. a plain LRU.

    (Lives here so the TV layer can use it without importing the fuzzing
    layer; ``repro.fuzz.memo`` re-exports it for its existing users.)
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.evictions = 0
        # key -> (value, weight), least recently used first.
        self._probation: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._main: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._probation_limit = min(PROBATION, capacity)
        self._main_limit = capacity - self._probation_limit
        self._probation_weight = 0
        self._main_weight = 0

    @property
    def weight(self) -> int:
        """Total weight resident in both segments."""
        return self._probation_weight + self._main_weight

    def get(self, key: Hashable) -> Optional[Any]:
        entry = self._main.get(key)
        if entry is not None:
            self._main.move_to_end(key)
            return entry[0]
        entry = self._probation.pop(key, None)
        if entry is None:
            return None
        # Second sighting: the entry has earned a place in the main segment.
        self._probation_weight -= entry[1]
        self._main[key] = entry
        self._main_weight += entry[1]
        self._rebalance()
        return entry[0]

    def put(self, key: Hashable, value: Any, weight: int = 1) -> None:
        old = self._main.get(key)
        if old is not None:
            self._main[key] = (value, weight)
            self._main.move_to_end(key)
            self._main_weight += weight - old[1]
        else:
            old = self._probation.pop(key, None)
            if old is not None:
                self._probation_weight -= old[1]
            self._probation[key] = (value, weight)
            self._probation_weight += weight
        self._rebalance()

    def _rebalance(self) -> None:
        main, probation = self._main, self._probation
        while self._main_weight > self._main_limit:
            key, entry = main.popitem(last=False)
            self._main_weight -= entry[1]
            probation[key] = entry
            self._probation_weight += entry[1]
        while self._probation_weight > self._probation_limit and len(probation) > 1:
            _, entry = probation.popitem(last=False)
            self._probation_weight -= entry[1]
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._main) + len(self._probation)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._main or key in self._probation


class _Block:
    """A compiled basic block: just the ordered non-phi step closures."""

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps: List[Resolver] = []


class _Edge:
    """A precompiled CFG edge: target block + phi parallel-copy schedule."""

    __slots__ = ("target", "slots", "resolvers")

    def __init__(
        self, target: _Block, slots: Tuple[int, ...], resolvers: Tuple[Resolver, ...]
    ) -> None:
        self.target = target
        self.slots = slots
        self.resolvers = resolvers


class ExecutionPlan:
    """One function's frame layout, step bound and compiled programs.

    Construction is cheap: no closures, and no reference to the IR kept.
    The scalar program — ``entry_edge`` — is compiled when something
    first runs the plan one input at a time, the batched twin on the
    first batched run, each from the function in the runner's hands
    (any function with this plan's key compiles to the same program).
    A refinement check that runs batched never pays for, or keeps
    alive, the scalar closures.
    """

    __slots__ = (
        "frame_size",
        "num_args",
        "depth_slot",
        "step_bound",
        "entry_edge",
        "batch_program",
    )

    def __init__(self, function: Function) -> None:
        # A branch out of the function is something no compiler here
        # handles and the plan key cannot see: decline it before two
        # such functions can be taken for one plan.
        own = {id(block) for block in function.blocks}
        for block in function.blocks:
            for successor in block.successors():
                if id(successor) not in own:
                    raise ValueError(
                        f"@{function.name} branches into a foreign block "
                        f"%{successor.name}"
                    )
        # Slot layout: arguments, then instructions in program order,
        # then the call depth (_Compiler assigns the same indices).
        self.num_args = len(function.arguments)
        self.depth_slot = self.num_args + sum(
            len(block.instructions) for block in function.blocks
        )
        self.frame_size = self.depth_slot + 1
        # The most steps any one call can be charged, when that is known
        # at compile time (see _static_step_bound); None otherwise.
        self.step_bound = _static_step_bound(function)
        # The scalar program: None until PlanCache.scalar_entry compiles
        # it, False once the compiler has declined (tree-walk).
        self.entry_edge = None
        # Lazily-compiled struct-of-arrays twin (repro.tv.batch); cached
        # here so the plan cache shares batch programs across mutants.
        self.batch_program = None

    def execute(self, interp, args: List[RuntimeValue], depth: int) -> RuntimeValue:
        """Replay the (compiled) scalar program.  Mirrors
        ``Interpreter._tree_call`` exactly: same step accounting, same
        phi-copy atomicity, same UB points."""
        frame: List[Any] = [_UNSET] * self.frame_size
        count = self.num_args
        if len(args) < count:
            count = len(args)
        frame[:count] = args[:count]
        frame[self.depth_slot] = depth
        edge = self.entry_edge
        max_steps = interp.limits.max_steps
        while True:
            slots = edge.slots
            if slots:
                # Phis read their inputs atomically w.r.t. the edge taken.
                values = [resolve(interp, frame) for resolve in edge.resolvers]
                for index, slot in enumerate(slots):
                    frame[slot] = values[index]
            control = None
            for step in edge.target.steps:
                interp._steps += 1
                if interp._steps > max_steps:
                    raise StepLimitExceeded("step limit exceeded")
                control = step(interp, frame)
                if control is not None:
                    break
            else:
                raise UBError("fell off the end of a block")
            if control.__class__ is _Edge:
                edge = control
                continue
            return control[1]


# -- operand resolvers -------------------------------------------------------


def _poison_resolver(interp, frame):
    return POISON


def _null_resolver(interp, frame):
    return NULL_POINTER


def _ub_raiser(reason: str) -> Resolver:
    def raise_ub(interp, frame):
        raise UBError(reason)
    return raise_ub


def _value_error_raiser(message: str) -> Resolver:
    def raise_value_error(interp, frame):
        raise ValueError(message)
    return raise_value_error


def _constant_pointer_address(value: Value) -> Optional[int]:
    """Fold ``pointer_address`` of a constant-pointer operand (satellite:
    hoist pointer addresses into the plan's constant table)."""
    if isinstance(value, ConstantPointerNull):
        return pointer_address(NULL_POINTER)
    if isinstance(value, Function):
        return pointer_address(Pointer(f"func:{value.name}", 0))
    return None


_ICMP_COMPARATORS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "ugt": operator.gt,
    "uge": operator.ge,
    "ult": operator.lt,
    "ule": operator.le,
    "sgt": operator.gt,
    "sge": operator.ge,
    "slt": operator.lt,
    "sle": operator.le,
}

_SIGNED_ICMP = ("sgt", "sge", "slt", "sle")


def _safe_size(type) -> Tuple[Optional[int], Optional[str]]:
    """byte_size_of_type with the error deferred to execution time."""
    try:
        return byte_size_of_type(type), None
    except ValueError as exc:
        return None, str(exc)


# -- binary operator specialization ------------------------------------------


def _binary_fn(opcode: str, width: int, nuw: bool, nsw: bool, exact: bool):
    """A closure computing one binary op on resolved values.  Each branch
    mirrors the corresponding case of ``Interpreter._eval_binary``."""
    mask = (1 << width) - 1
    int_min = -(1 << (width - 1))

    if opcode == "add":
        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            total = lhs + rhs
            result = total & mask
            if nuw and total > mask:
                return POISON
            if nsw and not fits_signed(
                to_signed(lhs, width) + to_signed(rhs, width), width
            ):
                return POISON
            return result
        return fn
    if opcode == "sub":
        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            difference = lhs - rhs
            result = difference & mask
            if nuw and difference < 0:
                return POISON
            if nsw and not fits_signed(
                to_signed(lhs, width) - to_signed(rhs, width), width
            ):
                return POISON
            return result
        return fn
    if opcode == "mul":
        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            product = lhs * rhs
            result = product & mask
            if nuw and product > mask:
                return POISON
            if nsw and not fits_signed(
                to_signed(lhs, width) * to_signed(rhs, width), width
            ):
                return POISON
            return result
        return fn
    if opcode == "udiv":
        def fn(lhs, rhs):
            # Division by zero is immediate UB even with poison on the
            # other side, so check the divisor first.
            if rhs is POISON:
                raise UBError("udiv by poison divisor")
            if rhs == 0:
                raise UBError("udiv by zero")
            if lhs is POISON:
                return POISON
            result = lhs // rhs
            if exact and lhs % rhs != 0:
                return POISON
            return result
        return fn
    if opcode == "sdiv":
        def fn(lhs, rhs):
            if rhs is POISON:
                raise UBError("sdiv by poison divisor")
            if rhs == 0:
                raise UBError("sdiv by zero")
            if lhs is POISON:
                return POISON
            signed_lhs = to_signed(lhs, width)
            signed_rhs = to_signed(rhs, width)
            if signed_lhs == int_min and signed_rhs == -1:
                raise UBError("sdiv overflow")
            quotient = trunc_div(signed_lhs, signed_rhs)
            if exact and signed_lhs - quotient * signed_rhs != 0:
                return POISON
            return to_unsigned(quotient, width)
        return fn
    if opcode == "urem":
        def fn(lhs, rhs):
            if rhs is POISON:
                raise UBError("urem by poison divisor")
            if rhs == 0:
                raise UBError("urem by zero")
            if lhs is POISON:
                return POISON
            return lhs % rhs
        return fn
    if opcode == "srem":
        def fn(lhs, rhs):
            if rhs is POISON:
                raise UBError("srem by poison divisor")
            if rhs == 0:
                raise UBError("srem by zero")
            if lhs is POISON:
                return POISON
            signed_lhs = to_signed(lhs, width)
            signed_rhs = to_signed(rhs, width)
            if signed_lhs == int_min and signed_rhs == -1:
                raise UBError("srem overflow")
            remainder = signed_lhs - trunc_div(signed_lhs, signed_rhs) * signed_rhs
            return to_unsigned(remainder, width)
        return fn
    if opcode == "shl":
        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            if rhs >= width:
                return POISON
            full = lhs << rhs
            result = full & mask
            if nuw and full > mask:
                return POISON
            if nsw and to_signed(result, width) != to_signed(lhs, width) * (1 << rhs):
                return POISON
            return result
        return fn
    if opcode == "lshr":
        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            if rhs >= width:
                return POISON
            if exact and lhs & ((1 << rhs) - 1):
                return POISON
            return lhs >> rhs
        return fn
    if opcode == "ashr":
        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            if rhs >= width:
                return POISON
            if exact and lhs & ((1 << rhs) - 1):
                return POISON
            return to_unsigned(to_signed(lhs, width) >> rhs, width)
        return fn
    if opcode == "and":
        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            return lhs & rhs
        return fn
    if opcode == "or":
        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            return lhs | rhs
        return fn
    if opcode == "xor":
        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            return lhs ^ rhs
        return fn

    def fn(lhs, rhs):  # constructor-validated; defensively mirrored
        if lhs is POISON or rhs is POISON:
            return POISON
        raise UBError(f"unsupported binary opcode {opcode}")
    return fn


# -- the compiler ------------------------------------------------------------


class _Compiler:
    def __init__(self, function: Function) -> None:
        self.function = function
        self.slots: Dict[int, int] = {}
        for index, argument in enumerate(function.arguments):
            self.slots[id(argument)] = index
        position = len(function.arguments)
        for block in function.blocks:
            for inst in block.instructions:
                self.slots[id(inst)] = position
                position += 1
        self.depth_slot = position
        self.blocks: Dict[int, _Block] = {
            id(block): _Block() for block in function.blocks
        }

    def build(self) -> _Edge:
        """Compile every block; returns the function's entry edge."""
        for block in self.function.blocks:
            compiled = self.blocks[id(block)]
            start = block.first_non_phi_index()
            compiled.steps = [
                self.compile_instruction(block, inst)
                for inst in block.instructions[start:]
            ]
        return self.edge(None, self.function.entry_block())

    # -- operands --------------------------------------------------------

    def operand(self, value: Value) -> Resolver:
        if isinstance(value, ConstantInt):
            constant = value.value

            def read_constant(interp, frame):
                return constant
            return read_constant
        if isinstance(value, PoisonValue):
            return _poison_resolver
        if isinstance(value, UndefValue):
            value_type = value.type
            label = f"undef:{id(value)}"

            def choose_undef(interp, frame):
                # Each use of undef is an independent choice.
                return interp._choose_value(value_type, label)
            return choose_undef
        if isinstance(value, ConstantPointerNull):
            return _null_resolver
        if isinstance(value, Function):
            pointer = Pointer(f"func:{value.name}", 0)

            def read_function_pointer(interp, frame):
                return pointer
            return read_function_pointer
        slot = self.slots.get(id(value))
        if slot is None:
            # Foreign value (another function's local, a block, ...):
            # the tree-walk frame never holds it either.
            return _ub_raiser(f"use of unevaluated value %{value.name or '?'}")
        reason = f"use of unevaluated value %{value.name or '?'}"

        def read_slot(interp, frame):
            stored = frame[slot]
            if stored is _UNSET:
                raise UBError(reason)
            return stored
        return read_slot

    def edge(self, pred: Optional[BasicBlock], succ: BasicBlock) -> _Edge:
        """Compile one CFG edge: phi copy schedule resolved at compile
        time (``pred=None`` is function entry, where phis are UB)."""
        slots: List[int] = []
        resolvers: List[Resolver] = []
        for phi in succ.phis():
            incoming = phi.incoming_value_for(pred)
            if incoming is None:
                resolvers.append(_ub_raiser("phi has no incoming value for edge"))
            else:
                resolvers.append(self.operand(incoming))
            slots.append(self.slots[id(phi)])
        return _Edge(self.blocks[id(succ)], tuple(slots), tuple(resolvers))

    # -- instructions ----------------------------------------------------

    def compile_instruction(self, block: BasicBlock, inst: Instruction) -> Resolver:
        if isinstance(inst, BinaryOperator):
            return self.compile_binary(inst)
        if isinstance(inst, ICmpInst):
            return self.compile_icmp(inst)
        if isinstance(inst, SelectInst):
            return self.compile_select(inst)
        if isinstance(inst, CastInst):
            return self.compile_cast(inst)
        if isinstance(inst, FreezeInst):
            return self.compile_freeze(inst)
        if isinstance(inst, AllocaInst):
            return self.compile_alloca(inst)
        if isinstance(inst, LoadInst):
            return self.compile_load(inst)
        if isinstance(inst, StoreInst):
            return self.compile_store(inst)
        if isinstance(inst, GEPInst):
            return self.compile_gep(inst)
        if isinstance(inst, CallInst):
            return self.compile_call(inst)
        if isinstance(inst, RetInst):
            return self.compile_ret(inst)
        if isinstance(inst, BrInst):
            return self.compile_br(block, inst)
        if isinstance(inst, SwitchInst):
            return self.compile_switch(block, inst)
        if isinstance(inst, UnreachableInst):
            return _ub_raiser("reached unreachable")
        # Includes mid-block phis, exactly like the tree-walk fallthrough.
        return _ub_raiser(f"unsupported instruction {inst.opcode}")

    def compile_binary(self, inst: BinaryOperator) -> Resolver:
        lhs = self.operand(inst.lhs)
        rhs = self.operand(inst.rhs)
        fn = _binary_fn(inst.opcode, inst.type.width, inst.nuw, inst.nsw, inst.exact)
        slot = self.slots[id(inst)]

        def step(interp, frame):
            frame[slot] = fn(lhs(interp, frame), rhs(interp, frame))
        return step

    def compile_icmp(self, inst: ICmpInst) -> Resolver:
        lhs = self.operand(inst.lhs)
        rhs = self.operand(inst.rhs)
        compare = _ICMP_COMPARATORS[inst.predicate]
        signed = inst.predicate in _SIGNED_ICMP
        width = inst.lhs.type.width if isinstance(inst.lhs.type, IntType) else 64
        # Constant-pointer operands: their address is part of the plan's
        # constant table instead of a per-comparison crc32.
        lhs_address = _constant_pointer_address(inst.lhs)
        rhs_address = _constant_pointer_address(inst.rhs)
        slot = self.slots[id(inst)]

        def step(interp, frame):
            lhs_value = lhs(interp, frame)
            rhs_value = rhs(interp, frame)
            if lhs_value is POISON or rhs_value is POISON:
                frame[slot] = POISON
                return
            if isinstance(lhs_value, Pointer) or isinstance(rhs_value, Pointer):
                if lhs_address is not None:
                    lhs_num = lhs_address
                elif isinstance(lhs_value, Pointer):
                    lhs_num = pointer_address(lhs_value)
                else:
                    lhs_num = lhs_value
                if rhs_address is not None:
                    rhs_num = rhs_address
                elif isinstance(rhs_value, Pointer):
                    rhs_num = pointer_address(rhs_value)
                else:
                    rhs_num = rhs_value
                effective_width = 64
            else:
                lhs_num, rhs_num = lhs_value, rhs_value
                effective_width = width
            if signed:
                lhs_num = to_signed(lhs_num, effective_width)
                rhs_num = to_signed(rhs_num, effective_width)
            frame[slot] = int(compare(lhs_num, rhs_num))
        return step

    def compile_select(self, inst: SelectInst) -> Resolver:
        condition = self.operand(inst.condition)
        true_value = self.operand(inst.true_value)
        false_value = self.operand(inst.false_value)
        slot = self.slots[id(inst)]

        def step(interp, frame):
            chosen = condition(interp, frame)
            if chosen is POISON:
                frame[slot] = POISON
            elif chosen == 1:
                # Only the taken arm is evaluated (undef/oracle order).
                frame[slot] = true_value(interp, frame)
            else:
                frame[slot] = false_value(interp, frame)
        return step

    def compile_cast(self, inst: CastInst) -> Resolver:
        value = self.operand(inst.value)
        slot = self.slots[id(inst)]
        opcode = inst.opcode
        if opcode == "trunc":
            mask = (1 << inst.type.width) - 1

            def step(interp, frame):
                resolved = value(interp, frame)
                frame[slot] = POISON if resolved is POISON else resolved & mask
            return step
        if opcode == "zext":
            def step(interp, frame):
                frame[slot] = value(interp, frame)
            return step
        if opcode == "sext":
            src_width = inst.src_type.width
            dst_width = inst.type.width

            def step(interp, frame):
                resolved = value(interp, frame)
                if resolved is POISON:
                    frame[slot] = POISON
                else:
                    frame[slot] = to_unsigned(
                        to_signed(resolved, src_width), dst_width
                    )
            return step

        def step(interp, frame):  # constructor-validated; defensive
            value(interp, frame)
            raise UBError(f"unsupported cast {opcode}")
        return step

    def compile_freeze(self, inst: FreezeInst) -> Resolver:
        value = self.operand(inst.value)
        slot = self.slots[id(inst)]
        frozen_type = inst.type
        label = f"freeze:{id(inst)}"

        def step(interp, frame):
            resolved = value(interp, frame)
            if resolved is POISON:
                # freeze of poison picks an arbitrary-but-fixed value,
                # resolved through the nondeterminism oracle like undef.
                resolved = interp._choose_value(frozen_type, label)
            frame[slot] = resolved
        return step

    def compile_alloca(self, inst: AllocaInst) -> Resolver:
        size, error = _safe_size(inst.allocated_type)
        slot = self.slots[id(inst)]

        def step(interp, frame):
            interp._alloca_counter += 1
            if error is not None:
                raise ValueError(error)
            frame[slot] = interp.memory.add_block(
                f"alloca:{interp._alloca_counter}", size
            )
        return step

    def compile_load(self, inst: LoadInst) -> Resolver:
        pointer = self.operand(inst.pointer)
        size, error = _safe_size(inst.type)
        slot = self.slots[id(inst)]
        if error is not None:
            def step(interp, frame):
                resolved = pointer(interp, frame)
                if resolved is POISON:
                    raise UBError("load from poison pointer")
                if not isinstance(resolved, Pointer):
                    raise UBError("load from non-pointer value")
                raise ValueError(error)
            return step
        if inst.type.is_pointer():
            label = f"load:{id(inst)}"

            def step(interp, frame):
                resolved = pointer(interp, frame)
                if resolved is POISON:
                    raise UBError("load from poison pointer")
                if not isinstance(resolved, Pointer):
                    raise UBError("load from non-pointer value")
                data = interp.memory.load_bytes(resolved, size)
                frame[slot] = interp._bytes_to_pointer(data, label)
            return step
        mask = (1 << inst.type.width) - 1
        undef_label = f"loadundef:{id(inst)}"

        def step(interp, frame):
            resolved = pointer(interp, frame)
            if resolved is POISON:
                raise UBError("load from poison pointer")
            if not isinstance(resolved, Pointer):
                raise UBError("load from non-pointer value")
            data = interp.memory.load_bytes(resolved, size)
            for byte in data:
                if byte is POISON:
                    frame[slot] = POISON
                    return
            concrete: List[int] = []
            for index, byte in enumerate(data):
                if byte is UNDEF_BYTE:
                    interp._note_truncated_domain()
                    concrete.append(
                        interp.oracle.choose(
                            f"{undef_label}:{index}", _UNDEF_BYTE_CHOICES
                        )
                    )
                elif isinstance(byte, tuple):  # pointer byte as integer
                    concrete.append(interp._pointer_byte_as_int(byte))
                else:
                    concrete.append(byte)
            frame[slot] = bytes_to_int(concrete) & mask
        return step

    def compile_store(self, inst: StoreInst) -> Resolver:
        pointer = self.operand(inst.pointer)
        value = self.operand(inst.value)
        size, error = _safe_size(inst.value.type)

        def step(interp, frame):
            resolved = pointer(interp, frame)
            if resolved is POISON:
                raise UBError("store to poison pointer")
            if not isinstance(resolved, Pointer):
                raise UBError("store to non-pointer value")
            stored = value(interp, frame)
            if error is not None:
                raise ValueError(error)
            if stored is POISON:
                data: List[Any] = [POISON] * size
            elif isinstance(stored, Pointer):
                data = [
                    ("ptr", stored.block, stored.offset, index)
                    for index in range(size)
                ]
            else:
                data = int_to_bytes(stored, size)
            interp.memory.store_bytes(resolved, data)
        return step

    def compile_gep(self, inst: GEPInst) -> Resolver:
        pointer = self.operand(inst.pointer)
        element_size, error = _safe_size(inst.source_type)
        index_parts = tuple(
            (self.operand(index), index.type.width) for index in inst.indices
        )
        inbounds = inst.inbounds
        slot = self.slots[id(inst)]

        def step(interp, frame):
            resolved = pointer(interp, frame)
            if resolved is POISON:
                frame[slot] = POISON
                return
            if not isinstance(resolved, Pointer):
                raise UBError("gep on non-pointer value")
            if error is not None:
                raise ValueError(error)
            offset = resolved.offset
            for resolve_index, width in index_parts:
                index_value = resolve_index(interp, frame)
                if index_value is POISON:
                    frame[slot] = POISON
                    return
                offset += to_signed(index_value, width) * element_size
            result = Pointer(resolved.block, offset)
            if inbounds and not resolved.is_null():
                memory = interp.memory
                if memory.has_block(resolved.block):
                    if offset < 0 or offset > memory.block_size(resolved.block):
                        result = POISON
            frame[slot] = result
        return step

    def compile_call(self, inst: CallInst) -> Resolver:
        callee = inst.callee
        resolvers = tuple(self.operand(argument) for argument in inst.args)
        if callee.name.startswith("llvm."):
            return self.compile_intrinsic(inst, resolvers)
        # nonnull on the callee's parameters: violating it yields poison
        # (or UB when combined with noundef).  The attribute scan is
        # hoisted to compile time.
        nonnull_checks = tuple(
            (index, argument.attributes.has("noundef"))
            for index, argument in enumerate(callee.arguments)
            if index < len(inst.args) and argument.attributes.has("nonnull")
        )
        has_result = not inst.type.is_void()
        slot = self.slots[id(inst)] if has_result else None
        depth_slot = self.depth_slot

        def step(interp, frame):
            args = [resolve(interp, frame) for resolve in resolvers]
            for index, noundef in nonnull_checks:
                value = args[index]
                if isinstance(value, Pointer) and value.is_null():
                    if noundef:
                        raise UBError("null passed to nonnull noundef argument")
                    args[index] = POISON
            result = interp._call(callee, args, frame[depth_slot] + 1)
            if has_result:
                frame[slot] = result
        return step

    def compile_intrinsic(
        self, inst: CallInst, resolvers: Tuple[Resolver, ...]
    ) -> Resolver:
        base = inst.intrinsic_name()
        name = inst.callee.name
        if base == "llvm.assume":
            bundle_checks = tuple(
                (
                    bundle.tag,
                    tuple(
                        self.operand(value)
                        for value in inst.bundle_operands(bundle)
                    ),
                )
                for bundle in inst.bundles
            )

            def step(interp, frame):
                args = [resolve(interp, frame) for resolve in resolvers]
                condition = args[0]
                if condition is POISON:
                    raise UBError("assume of poison")
                if condition != 1:
                    raise UBError("assume of false")
                for tag, operand_resolvers in bundle_checks:
                    operands = [
                        resolve(interp, frame) for resolve in operand_resolvers
                    ]
                    if tag == "align" and len(operands) == 2:
                        pointer, align = operands
                        if pointer is POISON or align is POISON:
                            raise UBError("assume align on poison")
                        if isinstance(pointer, Pointer) and align:
                            if pointer_address(pointer) % align != 0:
                                raise UBError("assume align violated")
                    elif tag == "nonnull" and operands:
                        pointer = operands[0]
                        if isinstance(pointer, Pointer) and pointer.is_null():
                            raise UBError("assume nonnull violated")
            return step
        width = inst.type.width if isinstance(inst.type, IntType) else 0
        mask = (1 << width) - 1 if width else 0
        has_result = not inst.type.is_void()
        slot = self.slots[id(inst)] if has_result else None

        def step(interp, frame):
            args = [resolve(interp, frame) for resolve in resolvers]
            for value in args:
                if value is POISON:
                    result = POISON
                    break
            else:
                result = evaluate_intrinsic(base, name, width, mask, args)
            if has_result:
                frame[slot] = result
        return step

    def compile_ret(self, inst: RetInst) -> Resolver:
        if inst.return_value is None:
            def step(interp, frame):
                return _RETURN_VOID
            return step
        value = self.operand(inst.return_value)

        def step(interp, frame):
            return ("return", value(interp, frame))
        return step

    def compile_br(self, block: BasicBlock, inst: BrInst) -> Resolver:
        if not inst.is_conditional():
            edge = self.edge(block, inst.operands[0])

            def step(interp, frame):
                return edge
            return step
        condition = self.operand(inst.condition)
        true_edge = self.edge(block, inst.operands[1])
        false_edge = self.edge(block, inst.operands[2])

        def step(interp, frame):
            chosen = condition(interp, frame)
            if chosen is POISON:
                raise UBError("branch on poison")
            return true_edge if chosen == 1 else false_edge
        return step

    def compile_switch(self, block: BasicBlock, inst: SwitchInst) -> Resolver:
        value = self.operand(inst.value)
        table: Dict[int, _Edge] = {}
        for case_value, case_block in inst.cases():
            # First matching case wins, exactly like the tree-walk scan.
            table.setdefault(case_value.value, self.edge(block, case_block))
        default_edge = self.edge(block, inst.default)

        def step(interp, frame):
            resolved = value(interp, frame)
            if resolved is POISON:
                raise UBError("switch on poison")
            try:
                edge = table.get(resolved)
            except TypeError:  # unhashable runtime value: no case matches
                edge = None
            return edge if edge is not None else default_edge
        return step


def _static_step_bound(function: Function) -> Optional[int]:
    """How many steps one call of ``function`` can be charged at most.

    Known when the reachable CFG is acyclic — every edge runs forward in
    reverse postorder, so each block executes at most once — and no
    reachable instruction calls into a definition (declarations and
    intrinsics are modeled in one step): the bound is then the number of
    reachable non-phi instructions.  None when either condition fails.
    """
    order = reverse_postorder(function)
    position = {id(block): index for index, block in enumerate(order)}
    steps = 0
    for index, block in enumerate(order):
        for successor in block.successors():
            if position[id(successor)] <= index:
                return None
        for inst in block.instructions:
            if isinstance(inst, CallInst) and not inst.callee.is_declaration():
                return None
        steps += len(block.instructions) - block.first_non_phi_index()
    return steps


def compile_function(
    function: Function, plan: Optional[ExecutionPlan] = None
) -> ExecutionPlan:
    """Compile one defined function's scalar program into ``plan`` — the
    layout the plan cache built earlier, or a new plan — and return it.

    Raises on IR shapes the compiler does not handle (e.g. declarations
    or branches into foreign functions); callers are expected to fall
    back to the tree-walking evaluator via :class:`PlanCache`.
    """
    if function.is_declaration():
        raise ValueError(f"cannot compile declaration @{function.name}")
    if plan is None:
        plan = ExecutionPlan(function)
    plan.entry_edge = _Compiler(function).build()
    return plan


# -- plan cache --------------------------------------------------------------


def _local_names(function: Function) -> Tuple[str, ...]:
    """Argument and instruction names, in program order.

    Fingerprints normalize names away on purpose, but execution can
    observe them (UB detail strings such as ``use of unevaluated value
    %x`` participate in ``Outcome`` equality), so plans are only shared
    between functions whose local names also match.
    """
    names = [argument.name or "" for argument in function.arguments]
    for block in function.blocks:
        for inst in block.instructions:
            names.append(inst.name or "")
    return tuple(names)


def plan_key(
    function: Function, fp_cache: Optional[Dict[int, str]] = None
) -> Hashable:
    """Cache key under which ``function``'s plan may be shared.

    Covers the structural closure fingerprint, local value names of the
    root and every reachable defined callee (UB details), and the
    attribute environment of reachable declarations — declaration
    attributes drive ``_call_external`` semantics but are not part of
    the fingerprint.
    """
    closure = fingerprint_closure(function, fp_cache)
    names = [_local_names(function)]
    declarations: Dict[str, Tuple] = {}
    visited = {id(function)}
    stack = [function]
    while stack:
        current = stack.pop()
        for callee in _referenced_functions(current):
            if id(callee) in visited:
                continue
            visited.add(id(callee))
            if callee.is_declaration():
                declarations[callee.name] = (
                    str(callee.attributes),
                    tuple(
                        (argument.name, str(argument.attributes))
                        for argument in callee.arguments
                    ),
                    str(callee.return_type),
                )
            else:
                names.append(_local_names(callee))
                stack.append(callee)
    return (closure, tuple(names), tuple(sorted(declarations.items())))


_COMPILE_FAILED = object()

# Frame slots the plan cache may keep resident.  A plan's closures, and
# the cells and constants they hold, number a small multiple of its
# slots, so slots — not entries — are what the heap and the cyclic
# collector pay for: one 40-block function weighs as much as a dozen
# ordinary ones.
DEFAULT_PLAN_CACHE_SLOTS = 8192


class PlanCache:
    """Slot-bounded, fingerprint-keyed store of execution plans.

    ``hits``/``misses``/``fallbacks`` feed the ``exec.plan_cache.*``
    metrics.  A plan enters as its layout; :meth:`scalar_entry` compiles
    its scalar program when something first executes it that way.  A
    function the compiler declines is cached too (as a tree-walk
    fallback marker) so it is not re-compiled on every call.
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SLOTS) -> None:
        self._plans = LRUCache(capacity)
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0

    def plan_for(
        self, function: Function, fp_cache: Optional[Dict[int, str]] = None
    ) -> Optional[ExecutionPlan]:
        """The cached plan for ``function`` (laid out on first sight),
        or None when the function must be tree-walked."""
        key = plan_key(function, fp_cache)
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            return None if plan is _COMPILE_FAILED else plan
        self.misses += 1
        try:
            plan = ExecutionPlan(function)
        except Exception:
            self._declined(key)
            return None
        self._plans.put(key, plan, plan.frame_size)
        return plan

    def scalar_entry(self, plan: ExecutionPlan, function: Function):
        """``plan``'s scalar program, compiled from ``function`` on first
        use; False when the compiler declines, now or earlier: tree-walk."""
        if plan.entry_edge is None:
            try:
                compile_function(function, plan)
            except Exception:
                # Interpreters that pinned the plan keep asking it, so
                # the plan itself remembers; the cache stops handing it out.
                plan.entry_edge = False
                self._declined(plan_key(function))
        return plan.entry_edge

    def _declined(self, key: Hashable) -> None:
        self.fallbacks += 1
        self._plans.put(key, _COMPILE_FAILED)

    def stats(self) -> Tuple[int, int, int]:
        return (self.hits, self.misses, self.fallbacks)

    @property
    def evictions(self) -> int:
        return self._plans.evictions

    @property
    def slots(self) -> int:
        """Frame slots of the resident plans."""
        return self._plans.weight

    def __len__(self) -> int:
        return len(self._plans)


_GLOBAL_PLAN_CACHE: Optional[PlanCache] = None


def global_plan_cache() -> PlanCache:
    """The process-wide plan cache every compiled Interpreter shares by
    default, so the campaign's fixed source function compiles once."""
    global _GLOBAL_PLAN_CACHE
    if _GLOBAL_PLAN_CACHE is None:
        _GLOBAL_PLAN_CACHE = PlanCache()
    return _GLOBAL_PLAN_CACHE


def reset_global_plan_cache(capacity: int = DEFAULT_PLAN_CACHE_SLOTS) -> PlanCache:
    """Replace the process-wide cache (tests and long-lived sessions)."""
    global _GLOBAL_PLAN_CACHE
    _GLOBAL_PLAN_CACHE = PlanCache(capacity)
    return _GLOBAL_PLAN_CACHE
