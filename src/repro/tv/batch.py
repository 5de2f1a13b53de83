"""Struct-of-arrays batched execution for TV plans (ROADMAP 3).

The refinement checker enumerates the same function over
``max_inputs x max_nondet_runs`` runs.  Walking the IR once per run pays
per-instruction dispatch and re-derives every static fact (widths,
flags, branch targets, phi schedules) for each input.  This module
lowers a function once into batched steps with those facts captured, and
executes one *batch* of lanes (one lane per pending input) per walk:

* frames are struct-of-arrays — ``frame[slot]`` is a per-lane column,
  so each batched step resolves its static operands once and then
  applies the op across all live lanes in a tight loop;
* per-lane masks short-circuit UB/poison/timeout: a lane that traps is
  dropped from the active list without disturbing its neighbors, and
  its UB detail string is recorded exactly as the scalar path would;
* divergence at branches regroups lanes by successor edge — sub-batches
  proceed independently off a worklist, sharing the frame columns
  (their lane indices are disjoint by construction);
* everything per-lane-stateful (memory, oracle choices, external-call
  sequence numbers, nested calls) runs against that lane's own
  :class:`~repro.tv.interp.Interpreter`, and nested defined calls are
  tree-walked by it wholesale — so observable semantics (poison/undef
  propagation, oracle choice order and domain sizes, UB classification,
  step accounting) are the reference walker's.  The differential suite
  in ``tests/test_batch_exec.py`` locks lane-by-lane bit-equality
  against it;
* a program none of whose steps reads that state (no undef, freeze,
  memory access, non-intrinsic call or pointer parameter — see
  :attr:`BatchProgram.lane_state`) gets no interpreter at all: its lanes
  are argument columns plus the ``noundef`` entry check.

Every step applies the value-level rules of :mod:`repro.tv.semantics`
(and the stateful ``Interpreter`` methods, through the lane's
interpreter) per lane: this module owns lane loops, operand
specialization and control flow, not instruction semantics.

Batch programs are built on the first batched run and cached on the
function's :class:`~repro.tv.compile.ExecutionPlan`, so the driver's
plan cache shares them across mutants.  A build lays out the frame and
one empty shell per block, and scans the body once for
:attr:`BatchProgram.lane_state` and for everything the compiler
declines — deferred size errors whose ``ValueError`` must abort the
whole check in scalar input order.  A declined function is tree-walked
one input at a time instead, counted in ``exec.batch.scalar_fallbacks``.
Each block's steps are compiled the first time a lane group enters it,
from the function of that run: blocks no input reaches cost nothing.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BINARY_OPCODES,
    CAST_OPCODES,
    SIGNED_PREDICATES,
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
    opcode_table,
)
from ..ir.values import UndefValue, Value
from .compile import ExecutionPlan
from .domain import NULL_POINTER, POISON, Pointer, to_signed
from .interp import ExecutionLimits, Interpreter, StepLimitExceeded, byte_size_of_type
from .memory import MemoryFault
from .semantics import (
    ICMP_COMPARATORS,
    UBError,
    assume,
    binary_op,
    cast_op,
    evaluate_intrinsic,
    icmp_op,
)

__all__ = [
    "BatchProgram",
    "BatchRunner",
    "BatchStats",
    "batch_program_for",
    "compile_batch_program",
]

# Control value returned by ret steps: the group is done, per-lane
# results are already recorded on the context.
_RETURNED = object()

# Cached on ExecutionPlan.batch_program when batch compilation declined.
_BATCH_FAILED = object()

# A batched operand is one of three shapes, discriminated at compile
# time so hot steps can specialize their lane loops:
#   ("const", value)          -- compile-time constant runtime value
#   ("slot", index, reason)   -- frame column + use-of-unevaluated detail
#   ("dyn", resolve)          -- per-lane callable (ctx, frame, lane) -> value
_CONST = "const"
_SLOT = "slot"
_DYN = "dyn"

LaneResolver = Callable[["_BatchContext", List[List[Any]], int], Any]
BatchStep = Callable[["_BatchContext", List[List[Any]], List[int]], Any]

# A frame slot that was never written.  Distinct from None: void call
# results are never stored, and a returned None must not read as "set".
_UNSET = object()

class BatchUnsupported(Exception):
    """The batch compiler declines this function (scalar fallback)."""


class BatchStats:
    """Execution counters: batched runs (``exec.batch.*``)
    and the work ``check_refinement`` proved unnecessary
    (``exec.verify.*``: checks whose two sides share one plan, checks
    answered with no execution at all, and target inputs never run
    because the source hit UB or a timeout there).  ``stateless_lanes``
    counts the batched lanes that ran without an interpreter."""

    __slots__ = (
        "batches",
        "lanes",
        "divergence_splits",
        "scalar_fallbacks",
        "same_plan",
        "static_skips",
        "target_inputs_pruned",
        "stateless_lanes",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def stats(self) -> Tuple[int, ...]:
        """Every counter, in ``__slots__`` order."""
        return (
            self.batches,
            self.lanes,
            self.divergence_splits,
            self.scalar_fallbacks,
            self.same_plan,
            self.static_skips,
            self.target_inputs_pruned,
            self.stateless_lanes,
        )



class _BatchContext:
    """Per-batch mutable state: lane masks, step counts, results.

    ``running`` is the live mask; ``dead`` flags that some lane dropped
    out since the executor last filtered its active list, so filtering
    happens once per step instead of once per trap.

    ``pending`` carries lazy step accounting: inside a bulk-accounted
    block (see :class:`_BBlock`) it holds the steps executed so far in
    that block, charged to a lane only when the lane leaves — keeping
    per-lane counters exact (they are part of the differential-tested
    contract) without a per-step per-lane increment loop.  Outside bulk
    blocks it is zero and counters are maintained eagerly.
    """

    __slots__ = (
        "function",
        "compiler",
        "size",
        "max_steps",
        "steps",
        "interps",
        "running",
        "statuses",
        "values",
        "details",
        "frame",
        "dead",
        "divergence_splits",
        "pending",
    )

    def __init__(
        self, size: int, max_steps: int, function: Optional[Function] = None
    ) -> None:
        # The function being run: blocks compile from it on first entry,
        # through one compiler per run (made when first needed).
        self.function = function
        self.compiler: Optional[_BatchCompiler] = None
        self.size = size
        self.max_steps = max_steps
        self.steps = [0] * size
        self.interps: List[Interpreter] = []
        self.running = [True] * size
        self.statuses: List[Optional[str]] = [None] * size
        self.values: List[Any] = [None] * size
        self.details = [""] * size
        self.frame: List[List[Any]] = []
        self.dead = False
        self.divergence_splits = 0
        self.pending = 0

    def trap(self, lane: int, reason: str) -> None:
        # First trap wins: column-wise phi copies may revisit a lane that
        # already dropped out, and the scalar path reports the first UB.
        if not self.running[lane]:
            return
        self.steps[lane] += self.pending
        self.statuses[lane] = "ub"
        self.details[lane] = reason
        self.running[lane] = False
        self.dead = True

    def timeout(self, lane: int) -> None:
        # Only reached with eager accounting (bulk blocks guarantee
        # budget headroom up front), so ``pending`` is always zero here.
        self.statuses[lane] = "timeout"
        self.running[lane] = False
        self.dead = True

    def finish(self, lane: int, value: Any) -> None:
        self.steps[lane] += self.pending
        self.statuses[lane] = "ok"
        self.values[lane] = value
        self.running[lane] = False

    def trap_exception(self, lane: int, exc: BaseException) -> None:
        """Record one lane's exception exactly as ``Interpreter.run``
        classifies it: MemoryFault and arithmetic/recursion errors are
        UB with ``str(exc)`` detail, step/depth exhaustion is timeout."""
        if isinstance(exc, UBError):
            self.trap(lane, exc.reason)
        elif isinstance(exc, StepLimitExceeded):
            self.timeout(lane)
        else:
            self.trap(lane, str(exc))


# Exceptions a lane may raise without poisoning its batch.  ValueError
# is deliberately absent: scalar execution lets it abort the whole
# check, so batch compilation refuses deferred-size errors up front.
_LANE_ERRORS = (
    UBError,
    MemoryFault,
    StepLimitExceeded,
    ZeroDivisionError,
    RecursionError,
)


class _BBlock:
    """One block of a program: batched steps plus accounting metadata.

    ``steps`` is None until a lane group first enters the block; the
    executor then compiles the function's ``index``-th block into it
    (see :meth:`_BatchCompiler.compile_block`).

    ``call_free`` blocks whose lanes all have ``step_count`` of budget
    headroom skip per-step accounting — the executor bulk-charges the
    steps a lane actually executed when it leaves the block (trapped
    and returned lanes never consume their counts again, and call steps
    are the only ones that need an exact mid-block counter to sync into
    the nested scalar call)."""

    __slots__ = ("index", "steps", "step_count", "call_free")

    def __init__(self, index: int) -> None:
        self.index = index
        self.steps: Optional[List[BatchStep]] = None
        self.step_count = 0
        self.call_free = True


class _BEdge:
    """A batched CFG edge: target block + phi parallel-copy schedule.

    When every phi input is a frame slot or a constant and no written
    slot feeds another phi on the same edge (no swap hazard), the copy
    is precompiled to column form (``slot_pairs``/``const_pairs``) and
    applied column-by-column; otherwise ``resolvers`` replays the
    scalar per-lane atomic schedule."""

    __slots__ = ("target", "slots", "resolvers", "slot_pairs", "const_pairs")

    def __init__(
        self,
        target: _BBlock,
        slots: Tuple[int, ...],
        resolvers: Tuple[LaneResolver, ...],
        slot_pairs=None,
        const_pairs=None,
    ) -> None:
        self.target = target
        self.slots = slots
        self.resolvers = resolvers
        self.slot_pairs = slot_pairs
        self.const_pairs = const_pairs


class BatchProgram:
    """One function lowered to struct-of-arrays batched steps.

    ``lane_state`` is set when some step reads per-lane state — the
    lane's oracle, memory or call counters, all of which live on
    ``ctx.interps[lane]``: an undef operand, ``freeze``, ``alloca``,
    ``load``, ``store``, ``gep``, a call that is not an intrinsic, or a
    pointer (or ``dereferenceable``) parameter.  Only
    such programs get a scalar interpreter per lane; the others never
    index ``ctx.interps``, so a missed case fails with ``IndexError``
    rather than silently.  The build's scan sets it for every block,
    compiled or not.

    ``blocks`` holds one :class:`_BBlock` per block of the function, in
    order; the executor compiles each on first entry.  Steps close over
    types, constants and ids, never an IR object, so a cached program
    keeps no module alive.
    """

    __slots__ = ("frame_size", "num_args", "blocks", "entry", "lane_state")

    def __init__(
        self,
        frame_size: int,
        num_args: int,
        blocks: Tuple[_BBlock, ...],
        entry: _BEdge,
        lane_state: bool,
    ) -> None:
        self.frame_size = frame_size
        self.num_args = num_args
        self.blocks = blocks
        self.entry = entry
        self.lane_state = lane_state

    def execute(self, ctx: _BatchContext, lanes: List[int]) -> None:
        """Drive every lane in ``lanes`` to completion.

        Mirrors ``Interpreter._call``: accounting charges each step
        before it runs (phi copies are free), phi reads are atomic
        w.r.t. the edge taken, and falling off a block end is UB.
        Divergent terminators return per-edge lane groups; all but the
        first continue from a worklist, sharing the frame columns.
        Call-free blocks with budget headroom use bulk accounting (see
        :class:`_BBlock`), everything else counts step by step.  A block
        entered for the first time is compiled first, from
        ``ctx.function``.
        """
        if not lanes:
            # An unconditional branch hands its group on as it is, so an
            # empty group would circle a self-loop forever.
            return
        frame = ctx.frame
        counts = ctx.steps
        max_steps = ctx.max_steps
        running = ctx.running
        stack: List[Tuple[_BEdge, List[int]]] = [(self.entry, lanes)]
        while stack:
            edge, active = stack.pop()
            # Groups always hold live lanes; a dead flag left over from a
            # terminator's traps would only force redundant filtering.
            ctx.dead = False
            # Lanes in one group execute the same steps, so their counts
            # advance in lockstep: a single conservative upper bound
            # replaces a per-block per-lane budget scan.
            worst = 0
            for lane in active:
                count = counts[lane]
                if count > worst:
                    worst = count
            while True:
                if edge.slots:
                    slot_pairs = edge.slot_pairs
                    if slot_pairs is not None:
                        for dst, src, reason in slot_pairs:
                            out = frame[dst]
                            column = frame[src]
                            for lane in active:
                                value = column[lane]
                                if value is _UNSET:
                                    ctx.trap(lane, reason)
                                else:
                                    out[lane] = value
                        for dst, constant in edge.const_pairs:
                            out = frame[dst]
                            for lane in active:
                                out[lane] = constant
                    else:
                        slots = edge.slots
                        resolvers = edge.resolvers
                        for lane in active:
                            try:
                                values = [
                                    resolve(ctx, frame, lane)
                                    for resolve in resolvers
                                ]
                            except _LANE_ERRORS as exc:
                                ctx.trap_exception(lane, exc)
                                continue
                            for index, slot in enumerate(slots):
                                frame[slot][lane] = values[index]
                    if ctx.dead:
                        ctx.dead = False
                        active = [lane for lane in active if running[lane]]
                        if not active:
                            break
                block = edge.target
                steps = block.steps
                if steps is None:
                    compiler = ctx.compiler
                    if compiler is None:
                        compiler = _BatchCompiler(ctx.function, self.blocks)
                        ctx.compiler = compiler
                    steps = compiler.compile_block(block)
                control = None
                if block.call_free and worst + block.step_count <= max_steps:
                    # Bulk accounting: no lane can time out inside this
                    # block and no call needs a mid-block counter, so a
                    # lane's counter is settled once, when it leaves —
                    # via ``pending`` on trap/finish, or below for lanes
                    # continuing into a successor group.
                    executed = 0
                    for step in steps:
                        executed += 1
                        ctx.pending = executed
                        control = step(ctx, frame, active)
                        if control is not None:
                            break
                        if ctx.dead:
                            ctx.dead = False
                            active = [lane for lane in active if running[lane]]
                            if not active:
                                break
                    if control is None:
                        # Every lane died mid-block, or the block has no
                        # terminator (same UB as the scalar paths); the
                        # trap charges ``pending`` like any other.
                        for lane in active:
                            ctx.trap(lane, "fell off the end of a block")
                        ctx.pending = 0
                        break
                    if control is not _RETURNED:
                        for _group_edge, group_lanes in control:
                            for lane in group_lanes:
                                counts[lane] += executed
                    worst += executed
                    ctx.pending = 0
                else:
                    for step in steps:
                        for lane in active:
                            count = counts[lane] + 1
                            counts[lane] = count
                            if count > max_steps:
                                ctx.timeout(lane)
                        if ctx.dead:
                            ctx.dead = False
                            active = [lane for lane in active if running[lane]]
                            if not active:
                                break
                        control = step(ctx, frame, active)
                        if control is not None:
                            break
                        if ctx.dead:
                            ctx.dead = False
                            active = [lane for lane in active if running[lane]]
                            if not active:
                                break
                    if control is None:
                        for lane in active:
                            ctx.trap(lane, "fell off the end of a block")
                        break
                    if control is not _RETURNED:
                        # Eager accounting moved individual counters;
                        # rebuild the group upper bound from them.
                        worst = 0
                        for _group_edge, group_lanes in control:
                            for lane in group_lanes:
                                count = counts[lane]
                                if count > worst:
                                    worst = count
                if control is _RETURNED:
                    break
                if not control:
                    break
                if len(control) > 1:
                    ctx.divergence_splits += len(control) - 1
                    stack.extend(control[1:])
                edge, active = control[0]
                ctx.dead = False


# -- operand compilation ------------------------------------------------------


def _operand_info(compiler: "_BatchCompiler", value: Value):
    """Classify one operand into const / slot / dyn form."""
    if value.IS_CONSTANT:
        return _CONSTANT_OPERANDS[value.KIND](compiler, value)
    slots = compiler.slots
    reason = f"use of unevaluated value %{value.name or '?'}"
    if value not in slots:

        def raise_ub(ctx, frame, lane):
            raise UBError(reason)

        return (_DYN, raise_ub)
    return (_SLOT, slots[value], reason)


def _undef_operand(compiler: "_BatchCompiler", value: UndefValue):
    compiler.lane_state = True
    value_type = value.type
    label = f"undef:{id(value)}"

    def choose_undef(ctx, frame, lane):
        # Each use of undef is an independent per-lane choice.
        return ctx.interps[lane]._choose_value(value_type, label)

    return (_DYN, choose_undef)


# Operand info of each kind of constant, by ``KIND``.
_CONSTANT_OPERANDS = {
    "int": lambda compiler, value: (_CONST, value.value),
    "poison": lambda compiler, value: (_CONST, POISON),
    "null": lambda compiler, value: (_CONST, NULL_POINTER),
    "function": lambda compiler, value: (_CONST, Pointer(f"func:{value.name}", 0)),
    "undef": _undef_operand,
}


def _as_lane_resolver(info) -> LaneResolver:
    """Lower any operand info to the generic per-lane callable form."""
    kind = info[0]
    if kind is _CONST:
        constant = info[1]

        def read_constant(ctx, frame, lane):
            return constant

        return read_constant
    if kind is _SLOT:
        slot, reason = info[1], info[2]

        def read_slot(ctx, frame, lane):
            stored = frame[slot][lane]
            if stored is _UNSET:
                raise UBError(reason)
            return stored

        return read_slot
    return info[1]


# -- specialized lane loops ---------------------------------------------------


def _unary_step(fn, info, slot: int) -> BatchStep:
    """``out[lane] = fn(operand)`` across lanes, specialized by operand."""
    kind = info[0]
    if kind is _SLOT:
        source, reason = info[1], info[2]

        def step(ctx, frame, active):
            out = frame[slot]
            column = frame[source]
            for lane in active:
                value = column[lane]
                if value is _UNSET:
                    ctx.trap(lane, reason)
                    continue
                try:
                    out[lane] = fn(value)
                except UBError as ub:
                    ctx.trap(lane, ub.reason)

        return step
    if kind is _CONST:
        constant = info[1]

        def step(ctx, frame, active):
            out = frame[slot]
            for lane in active:
                try:
                    out[lane] = fn(constant)
                except UBError as ub:
                    ctx.trap(lane, ub.reason)

        return step
    resolve = info[1]

    def step(ctx, frame, active):
        out = frame[slot]
        for lane in active:
            try:
                out[lane] = fn(resolve(ctx, frame, lane))
            except UBError as ub:
                ctx.trap(lane, ub.reason)

    return step


def _binary_step(fn, lhs_info, rhs_info, slot: int) -> BatchStep:
    """``out[lane] = fn(lhs, rhs)`` across lanes, specialized on the
    (lhs, rhs) operand kinds so the hot slot/const shapes pay a single
    function call per lane."""
    lhs_kind = lhs_info[0]
    rhs_kind = rhs_info[0]
    if lhs_kind is _SLOT and rhs_kind is _SLOT:
        lhs_slot, lhs_reason = lhs_info[1], lhs_info[2]
        rhs_slot, rhs_reason = rhs_info[1], rhs_info[2]

        def step(ctx, frame, active):
            out = frame[slot]
            xs = frame[lhs_slot]
            ys = frame[rhs_slot]
            for lane in active:
                lhs = xs[lane]
                if lhs is _UNSET:
                    ctx.trap(lane, lhs_reason)
                    continue
                rhs = ys[lane]
                if rhs is _UNSET:
                    ctx.trap(lane, rhs_reason)
                    continue
                try:
                    out[lane] = fn(lhs, rhs)
                except UBError as ub:
                    ctx.trap(lane, ub.reason)

        return step
    if lhs_kind is _SLOT and rhs_kind is _CONST:
        lhs_slot, lhs_reason = lhs_info[1], lhs_info[2]
        rhs_const = rhs_info[1]

        def step(ctx, frame, active):
            out = frame[slot]
            xs = frame[lhs_slot]
            for lane in active:
                lhs = xs[lane]
                if lhs is _UNSET:
                    ctx.trap(lane, lhs_reason)
                    continue
                try:
                    out[lane] = fn(lhs, rhs_const)
                except UBError as ub:
                    ctx.trap(lane, ub.reason)

        return step
    if lhs_kind is _CONST and rhs_kind is _SLOT:
        lhs_const = lhs_info[1]
        rhs_slot, rhs_reason = rhs_info[1], rhs_info[2]

        def step(ctx, frame, active):
            out = frame[slot]
            ys = frame[rhs_slot]
            for lane in active:
                rhs = ys[lane]
                if rhs is _UNSET:
                    ctx.trap(lane, rhs_reason)
                    continue
                try:
                    out[lane] = fn(lhs_const, rhs)
                except UBError as ub:
                    ctx.trap(lane, ub.reason)

        return step
    lhs_resolve = _as_lane_resolver(lhs_info)
    rhs_resolve = _as_lane_resolver(rhs_info)

    def step(ctx, frame, active):
        out = frame[slot]
        for lane in active:
            try:
                out[lane] = fn(
                    lhs_resolve(ctx, frame, lane),
                    rhs_resolve(ctx, frame, lane),
                )
            except UBError as ub:
                ctx.trap(lane, ub.reason)

    return step


# Flagless binary opcodes that can neither trap nor overflow-poison:
# poison propagation plus one C-level operator call per lane.  Every
# binary opcode has an entry; the others (division, remainder, shifts)
# map to None.
_SIMPLE_BINARY_OPS = {
    **dict.fromkeys(BINARY_OPCODES),
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}


def _simple_binary_step(op, mask, lhs_info, rhs_info, slot):
    """Inlined step for never-trapping binary ops on slot/const operands.

    Mirrors the flagless branches of ``binary_op`` exactly (poison in →
    poison out, result masked to width) while skipping the per-lane
    closure call and try/except.  Returns ``None`` for operand shapes it
    does not cover; callers fall back to :func:`_binary_step`.
    """
    lhs_kind = lhs_info[0]
    rhs_kind = rhs_info[0]
    if lhs_kind is _SLOT and rhs_kind is _SLOT:
        lhs_slot, lhs_reason = lhs_info[1], lhs_info[2]
        rhs_slot, rhs_reason = rhs_info[1], rhs_info[2]

        def step(ctx, frame, active):
            out = frame[slot]
            xs = frame[lhs_slot]
            ys = frame[rhs_slot]
            for lane in active:
                lhs = xs[lane]
                rhs = ys[lane]
                if lhs is _UNSET:
                    ctx.trap(lane, lhs_reason)
                elif rhs is _UNSET:
                    ctx.trap(lane, rhs_reason)
                elif lhs is POISON or rhs is POISON:
                    out[lane] = POISON
                else:
                    out[lane] = op(lhs, rhs) & mask

        return step
    if lhs_kind is _SLOT and rhs_kind is _CONST:
        lhs_slot, lhs_reason = lhs_info[1], lhs_info[2]
        rhs_const = rhs_info[1]
        if not isinstance(rhs_const, int):
            return None

        def step(ctx, frame, active):
            out = frame[slot]
            xs = frame[lhs_slot]
            for lane in active:
                lhs = xs[lane]
                if lhs is _UNSET:
                    ctx.trap(lane, lhs_reason)
                elif lhs is POISON:
                    out[lane] = POISON
                else:
                    out[lane] = op(lhs, rhs_const) & mask

        return step
    if lhs_kind is _CONST and rhs_kind is _SLOT:
        lhs_const = lhs_info[1]
        rhs_slot, rhs_reason = rhs_info[1], rhs_info[2]
        if not isinstance(lhs_const, int):
            return None

        def step(ctx, frame, active):
            out = frame[slot]
            ys = frame[rhs_slot]
            for lane in active:
                rhs = ys[lane]
                if rhs is _UNSET:
                    ctx.trap(lane, rhs_reason)
                elif rhs is POISON:
                    out[lane] = POISON
                else:
                    out[lane] = op(lhs_const, rhs) & mask

        return step
    return None


def _int_icmp_step(inst: ICmpInst, lhs_info, rhs_info, slot):
    """Inlined step for icmp over integer-typed slot/const operands.

    The integer case of ``icmp_op`` with the signedness conversion
    inlined and no per-lane call.  Returns ``None`` for shapes it does
    not cover.
    """
    lhs_type = inst.operands[0].type
    if not (lhs_type.IS_INTEGER and inst.operands[1].type.IS_INTEGER):
        return None
    compare = ICMP_COMPARATORS[inst.predicate]
    signed = inst.predicate in SIGNED_PREDICATES
    width = lhs_type.width
    sign_bit = 1 << (width - 1)
    span = 1 << width
    lhs_kind = lhs_info[0]
    rhs_kind = rhs_info[0]
    if lhs_kind is _SLOT and rhs_kind is _SLOT:
        lhs_slot, lhs_reason = lhs_info[1], lhs_info[2]
        rhs_slot, rhs_reason = rhs_info[1], rhs_info[2]

        if signed:

            def step(ctx, frame, active):
                out = frame[slot]
                xs = frame[lhs_slot]
                ys = frame[rhs_slot]
                for lane in active:
                    lhs = xs[lane]
                    rhs = ys[lane]
                    if lhs is _UNSET:
                        ctx.trap(lane, lhs_reason)
                    elif rhs is _UNSET:
                        ctx.trap(lane, rhs_reason)
                    elif lhs is POISON or rhs is POISON:
                        out[lane] = POISON
                    else:
                        slhs = lhs - span if lhs >= sign_bit else lhs
                        srhs = rhs - span if rhs >= sign_bit else rhs
                        out[lane] = 1 if compare(slhs, srhs) else 0

            return step

        def step(ctx, frame, active):
            out = frame[slot]
            xs = frame[lhs_slot]
            ys = frame[rhs_slot]
            for lane in active:
                lhs = xs[lane]
                rhs = ys[lane]
                if lhs is _UNSET:
                    ctx.trap(lane, lhs_reason)
                elif rhs is _UNSET:
                    ctx.trap(lane, rhs_reason)
                elif lhs is POISON or rhs is POISON:
                    out[lane] = POISON
                else:
                    out[lane] = 1 if compare(lhs, rhs) else 0

        return step
    if lhs_kind is _SLOT and rhs_kind is _CONST:
        lhs_slot, lhs_reason = lhs_info[1], lhs_info[2]
        rhs_const = rhs_info[1]
        if not isinstance(rhs_const, int):
            return None
        rhs_value = to_signed(rhs_const, width) if signed else rhs_const

        if signed:

            def step(ctx, frame, active):
                out = frame[slot]
                xs = frame[lhs_slot]
                for lane in active:
                    lhs = xs[lane]
                    if lhs is _UNSET:
                        ctx.trap(lane, lhs_reason)
                    elif lhs is POISON:
                        out[lane] = POISON
                    else:
                        slhs = lhs - span if lhs >= sign_bit else lhs
                        out[lane] = 1 if compare(slhs, rhs_value) else 0

            return step

        def step(ctx, frame, active):
            out = frame[slot]
            xs = frame[lhs_slot]
            for lane in active:
                lhs = xs[lane]
                if lhs is _UNSET:
                    ctx.trap(lane, lhs_reason)
                elif lhs is POISON:
                    out[lane] = POISON
                else:
                    out[lane] = 1 if compare(lhs, rhs_value) else 0

        return step
    if lhs_kind is _CONST and rhs_kind is _SLOT:
        lhs_const = lhs_info[1]
        rhs_slot, rhs_reason = rhs_info[1], rhs_info[2]
        if not isinstance(lhs_const, int):
            return None
        lhs_value = to_signed(lhs_const, width) if signed else lhs_const

        if signed:

            def step(ctx, frame, active):
                out = frame[slot]
                ys = frame[rhs_slot]
                for lane in active:
                    rhs = ys[lane]
                    if rhs is _UNSET:
                        ctx.trap(lane, rhs_reason)
                    elif rhs is POISON:
                        out[lane] = POISON
                    else:
                        srhs = rhs - span if rhs >= sign_bit else rhs
                        out[lane] = 1 if compare(lhs_value, srhs) else 0

            return step

        def step(ctx, frame, active):
            out = frame[slot]
            ys = frame[rhs_slot]
            for lane in active:
                rhs = ys[lane]
                if rhs is _UNSET:
                    ctx.trap(lane, rhs_reason)
                elif rhs is POISON:
                    out[lane] = POISON
                else:
                    out[lane] = 1 if compare(lhs_value, rhs) else 0

        return step
    return None


# -- the batch compiler -------------------------------------------------------


class _BatchCompiler:
    """Lowers one function to batched steps, one compile method per
    case of the tree-walking ``Interpreter._execute``.

    :meth:`build` makes the program: its frame layout, one empty
    :class:`_BBlock` per block, the entry edge and the :meth:`scan`.
    :meth:`compile_block` fills one block in, on its first entry; it may
    run on another compiler, made from any function with the program's
    plan key (the two compile to the same steps).

    Slot layout is identical to the :class:`ExecutionPlan` (arguments, then
    instructions in program order; the trailing depth slot is unused
    here — batched execution always runs at call depth 0)."""

    def __init__(
        self, function: Function, shells: Optional[Tuple[_BBlock, ...]] = None
    ) -> None:
        self.function = function
        # Keyed by the value itself: values hash by identity.
        self.slots: Dict[Value, int] = {}
        for index, argument in enumerate(function.arguments):
            self.slots[argument] = index
        position = len(function.arguments)
        for block in function.blocks:
            for inst in block.instructions:
                self.slots[inst] = position
                position += 1
        self.frame_size = position + 1
        if shells is None:
            shells = tuple(_BBlock(index) for index in range(len(function.blocks)))
        self.shells = shells
        self.blocks: Dict[int, _BBlock] = {
            id(block): shell for block, shell in zip(function.blocks, shells)
        }
        # Raised by every compile method whose step reads ``ctx.interps``
        # (see BatchProgram.lane_state); the entry checks read memory for
        # pointer and dereferenceable parameters.  Compiling every block
        # leaves it equal to what :meth:`scan` computes without compiling.
        self.lane_state = any(
            argument.type.IS_POINTER
            or argument.attributes.get_int("dereferenceable")
            for argument in function.arguments
        )

    def build(self) -> BatchProgram:
        lane_state = self.scan()
        entry = self.function.entry_block()
        return BatchProgram(
            self.frame_size,
            len(self.function.arguments),
            self.shells,
            self.edge(None, entry),
            lane_state,
        )

    def scan(self) -> bool:
        """The program's ``lane_state`` over every block, and each
        refusal a compile method makes, without compiling a step:
        :class:`BatchUnsupported` is raised here, never at run time.

        Mirrors what the compile methods read: memory steps, ``freeze``
        and non-intrinsic calls are stateful; any other step is stateful
        when an operand it compiles is undef, phi inputs included (each
        branch compiles the copies into its successors' phis).
        """
        lane_state = self.lane_state
        for block in self.function.blocks:
            for inst in block.instructions:
                kind = inst.KIND
                if kind in _ACCESSED_TYPE:
                    # The memory rules size their type up front.
                    _required_size(_ACCESSED_TYPE[kind](inst))
                    lane_state = True
                elif lane_state or kind == "phi":
                    continue
                elif kind == "freeze":
                    lane_state = True
                elif kind == "call":
                    if not inst.callee.name.startswith("llvm."):
                        lane_state = True
                    else:
                        # Bundle inputs are compiled for llvm.assume only.
                        operands = (
                            inst.operands
                            if inst.intrinsic_name() == "llvm.assume"
                            else inst.args
                        )
                        lane_state = _any_undef(operands)
                else:
                    lane_state = _any_undef(inst.operands)
                    if not lane_state and (kind == "br" or kind == "switch"):
                        for target in inst.operands:
                            if target.KIND == "block" and _any_undef(
                                phi.incoming_value_for(block) for phi in target.phis()
                            ):
                                lane_state = True
        return lane_state

    def compile_block(self, shell: _BBlock) -> List[BatchStep]:
        """Compile the ``shell.index``-th block into ``shell``; returns
        its steps.  Phis have no step: edges copy them (see ``edge``)."""
        block = self.function.blocks[shell.index]
        instructions = block.instructions[block.first_non_phi_index() :]
        steps = [self.compile_instruction(block, inst) for inst in instructions]
        shell.step_count = len(instructions)
        shell.call_free = True
        for inst in instructions:
            if inst.KIND == "call" and not inst.callee.name.startswith("llvm."):
                shell.call_free = False
                break
        shell.steps = steps
        return steps

    def operand(self, value: Value):
        return _operand_info(self, value)

    def lane_operand(self, value: Value) -> LaneResolver:
        return _as_lane_resolver(_operand_info(self, value))

    def edge(self, pred: Optional[BasicBlock], succ: BasicBlock) -> _BEdge:
        slots: List[int] = []
        infos: List[Any] = []
        for phi in succ.phis():
            incoming = phi.incoming_value_for(pred)
            if incoming is None:
                infos.append(
                    (_DYN, _ub_lane_raiser("phi has no incoming value for edge"))
                )
            else:
                infos.append(self.operand(incoming))
            slots.append(self.slots[phi])
        resolvers = tuple(_as_lane_resolver(info) for info in infos)
        slot_pairs = const_pairs = None
        if all(info[0] is not _DYN for info in infos):
            sources = {info[1] for info in infos if info[0] is _SLOT}
            if not any(slot in sources for slot in slots):
                # No undef/oracle choices and no phi reads another phi
                # written on this edge: the parallel copy degenerates to
                # independent column copies.
                slot_pairs = tuple(
                    (slot, info[1], info[2])
                    for slot, info in zip(slots, infos)
                    if info[0] is _SLOT
                )
                const_pairs = tuple(
                    (slot, info[1])
                    for slot, info in zip(slots, infos)
                    if info[0] is _CONST
                )
        return _BEdge(
            self.blocks[id(succ)], tuple(slots), resolvers, slot_pairs, const_pairs
        )

    # -- instructions ----------------------------------------------------

    def compile_instruction(self, block: BasicBlock, inst: Instruction) -> BatchStep:
        return _COMPILERS[inst.opcode](self, block, inst)

    # Every compile method takes (block, inst), so one opcode table
    # dispatches them all; only the branches use the block.

    def compile_binary(self, block: BasicBlock, inst: BinaryOperator) -> BatchStep:
        lhs_value, rhs_value = inst.operands
        lhs = self.operand(lhs_value)
        rhs = self.operand(rhs_value)
        slot = self.slots[inst]
        width = inst.type.width
        simple_op = _SIMPLE_BINARY_OPS[inst.opcode]
        if simple_op is not None and not inst.nuw and not inst.nsw and not inst.exact:
            step = _simple_binary_step(simple_op, (1 << width) - 1, lhs, rhs, slot)
            if step is not None:
                return step
        op = binary_op(inst.opcode, width, inst.nuw, inst.nsw, inst.exact)
        return _binary_step(op, lhs, rhs, slot)

    def compile_icmp(self, block: BasicBlock, inst: ICmpInst) -> BatchStep:
        lhs_value, rhs_value = inst.operands
        lhs = self.operand(lhs_value)
        rhs = self.operand(rhs_value)
        slot = self.slots[inst]
        step = _int_icmp_step(inst, lhs, rhs, slot)
        if step is not None:
            return step
        op = icmp_op(inst.predicate, lhs_value.type, rhs_value.type)
        return _binary_step(op, lhs, rhs, slot)

    def compile_select(self, block: BasicBlock, inst: SelectInst) -> BatchStep:
        condition_value, true_arm, false_arm = inst.operands
        condition = self.operand(condition_value)
        # Only the taken arm is evaluated (undef/oracle order), so arms
        # stay in per-lane resolver form.
        true_value = self.lane_operand(true_arm)
        false_value = self.lane_operand(false_arm)
        slot = self.slots[inst]
        if condition[0] is _SLOT:
            cond_slot, cond_reason = condition[1], condition[2]

            def step(ctx, frame, active):
                out = frame[slot]
                conditions = frame[cond_slot]
                for lane in active:
                    chosen = conditions[lane]
                    if chosen is _UNSET:
                        ctx.trap(lane, cond_reason)
                        continue
                    try:
                        if chosen is POISON:
                            out[lane] = POISON
                        elif chosen == 1:
                            out[lane] = true_value(ctx, frame, lane)
                        else:
                            out[lane] = false_value(ctx, frame, lane)
                    except UBError as ub:
                        ctx.trap(lane, ub.reason)

            return step
        cond_resolve = _as_lane_resolver(condition)

        def step(ctx, frame, active):
            out = frame[slot]
            for lane in active:
                try:
                    chosen = cond_resolve(ctx, frame, lane)
                    if chosen is POISON:
                        out[lane] = POISON
                    elif chosen == 1:
                        out[lane] = true_value(ctx, frame, lane)
                    else:
                        out[lane] = false_value(ctx, frame, lane)
                except UBError as ub:
                    ctx.trap(lane, ub.reason)

        return step

    def compile_cast(self, block: BasicBlock, inst: CastInst) -> BatchStep:
        value = inst.operands[0]
        op = cast_op(inst.opcode, value.type.width, inst.type.width)
        return _unary_step(op, self.operand(value), self.slots[inst])

    def compile_freeze(self, block: BasicBlock, inst: FreezeInst) -> BatchStep:
        self.lane_state = True
        value = self.lane_operand(inst.value)
        slot = self.slots[inst]
        frozen_type = inst.type
        label = f"freeze:{id(inst)}"

        def step(ctx, frame, active):
            out = frame[slot]
            interps = ctx.interps
            for lane in active:
                try:
                    resolved = value(ctx, frame, lane)
                    if resolved is POISON:
                        # freeze of poison picks an arbitrary-but-fixed
                        # value through this lane's oracle, like undef.
                        resolved = interps[lane]._choose_value(frozen_type, label)
                    out[lane] = resolved
                except UBError as ub:
                    ctx.trap(lane, ub.reason)

        return step

    def compile_alloca(self, block: BasicBlock, inst: AllocaInst) -> BatchStep:
        self.lane_state = True
        size = _required_size(inst.allocated_type)
        slot = self.slots[inst]

        def step(ctx, frame, active):
            out = frame[slot]
            interps = ctx.interps
            for lane in active:
                interp = interps[lane]
                interp._alloca_counter += 1
                out[lane] = interp.memory.add_block(
                    f"alloca:{interp._alloca_counter}", size
                )

        return step

    # The memory steps and the call step apply the lane interpreter's
    # value-level rules (``Interpreter.load`` / ``store`` / ``gep`` /
    # ``call``).  They close over types and ids, never the instruction,
    # so a cached plan keeps no mutant module alive.  ``scan`` has
    # already refused the types these steps cannot size.

    def compile_load(self, block: BasicBlock, inst: LoadInst) -> BatchStep:
        self.lane_state = True
        pointer = self.lane_operand(inst.operands[0])
        loaded_type = inst.type
        site = id(inst)
        slot = self.slots[inst]

        def step(ctx, frame, active):
            out = frame[slot]
            interps = ctx.interps
            for lane in active:
                try:
                    resolved = pointer(ctx, frame, lane)
                    out[lane] = interps[lane].load(resolved, loaded_type, site)
                except _LANE_ERRORS as exc:
                    ctx.trap_exception(lane, exc)

        return step

    def compile_store(self, block: BasicBlock, inst: StoreInst) -> BatchStep:
        self.lane_state = True
        stored, pointer_value = inst.operands
        pointer = self.lane_operand(pointer_value)
        value = self.lane_operand(stored)
        stored_type = stored.type

        def step(ctx, frame, active):
            interps = ctx.interps
            for lane in active:
                try:
                    interps[lane].store(
                        pointer(ctx, frame, lane), stored_type, value, ctx, frame, lane
                    )
                except _LANE_ERRORS as exc:
                    ctx.trap_exception(lane, exc)

        return step

    def compile_gep(self, block: BasicBlock, inst: GEPInst) -> BatchStep:
        self.lane_state = True
        pointer = self.lane_operand(inst.pointer)
        element_type = inst.source_type
        index_parts = tuple(
            (self.lane_operand(index), index.type.width) for index in inst.indices
        )
        inbounds = inst.inbounds
        slot = self.slots[inst]

        def step(ctx, frame, active):
            out = frame[slot]
            interps = ctx.interps
            for lane in active:
                try:
                    indices = (
                        (resolve(ctx, frame, lane), width)
                        for resolve, width in index_parts
                    )
                    out[lane] = interps[lane].gep(
                        pointer(ctx, frame, lane), element_type, indices, inbounds
                    )
                except _LANE_ERRORS as exc:
                    ctx.trap_exception(lane, exc)

        return step

    def compile_call(self, block: BasicBlock, inst: CallInst) -> BatchStep:
        resolvers = tuple(self.lane_operand(argument) for argument in inst.args)
        if inst.callee.name.startswith("llvm."):
            return self.compile_intrinsic(inst, resolvers)
        self.lane_state = True
        has_result = not inst.type.IS_VOID
        slot = self.slots[inst] if has_result else None
        # The callee is read from the function being run, at this call's
        # position: the step holds no Function.
        block_index = self.blocks[id(block)].index
        inst_index = block.instructions.index(inst)

        def step(ctx, frame, active):
            out = frame[slot] if slot is not None else None
            interps = ctx.interps
            counts = ctx.steps
            callee = ctx.function.blocks[block_index].instructions[inst_index].callee
            for lane in active:
                interp = interps[lane]
                try:
                    args = [resolve(ctx, frame, lane) for resolve in resolvers]
                    # The nested call shares this lane's step budget:
                    # sync the scalar counter in, tree-walk the callee
                    # through the lane's interpreter (externals, depth),
                    # and sync whatever it consumed back out.
                    interp._steps = counts[lane]
                    try:
                        result = interp.call(callee, args, 0)
                    finally:
                        counts[lane] = interp._steps
                    if out is not None:
                        out[lane] = result
                except _LANE_ERRORS as exc:
                    ctx.trap_exception(lane, exc)

        return step

    def compile_intrinsic(
        self, inst: CallInst, resolvers: Tuple[LaneResolver, ...]
    ) -> BatchStep:
        base = inst.intrinsic_name()
        name = inst.callee.name
        width = inst.type.width if inst.type.IS_INTEGER else 0
        has_result = not inst.type.IS_VOID
        slot = self.slots[inst] if has_result else None
        assumes = base == "llvm.assume"
        bundle_checks = tuple(
            (bundle.tag, tuple(map(self.lane_operand, inst.bundle_operands(bundle))))
            for bundle in (inst.bundles if assumes else ())
        )

        def step(ctx, frame, active):
            out = frame[slot] if slot is not None else None
            for lane in active:
                try:
                    args = [resolve(ctx, frame, lane) for resolve in resolvers]
                    if assumes:
                        bundles = (
                            (tag, [resolve(ctx, frame, lane) for resolve in operands])
                            for tag, operands in bundle_checks
                        )
                        result = assume(args[0], bundles)
                    else:
                        result = evaluate_intrinsic(base, name, width, args)
                    if out is not None:
                        out[lane] = result
                except _LANE_ERRORS as exc:
                    ctx.trap_exception(lane, exc)

        return step

    def compile_ret(self, block: BasicBlock, inst: RetInst) -> BatchStep:
        if inst.return_value is None:

            def step(ctx, frame, active):
                for lane in active:
                    ctx.finish(lane, None)
                return _RETURNED

            return step
        info = self.operand(inst.return_value)
        if info[0] is _SLOT:
            source, reason = info[1], info[2]

            def step(ctx, frame, active):
                column = frame[source]
                for lane in active:
                    value = column[lane]
                    if value is _UNSET:
                        ctx.trap(lane, reason)
                        continue
                    ctx.finish(lane, value)
                return _RETURNED

            return step
        resolve = _as_lane_resolver(info)

        def step(ctx, frame, active):
            for lane in active:
                try:
                    ctx.finish(lane, resolve(ctx, frame, lane))
                except UBError as ub:
                    ctx.trap(lane, ub.reason)
            return _RETURNED

        return step

    def compile_br(self, block: BasicBlock, inst: BrInst) -> BatchStep:
        if len(inst.operands) == 1:
            edge = self.edge(block, inst.operands[0])

            def step(ctx, frame, active):
                return ((edge, active),)

            return step
        condition = self.operand(inst.operands[0])
        true_edge = self.edge(block, inst.operands[1])
        false_edge = self.edge(block, inst.operands[2])
        if condition[0] is _SLOT:
            cond_slot, cond_reason = condition[1], condition[2]

            def step(ctx, frame, active):
                conditions = frame[cond_slot]
                true_lanes: List[int] = []
                false_lanes: List[int] = []
                for lane in active:
                    chosen = conditions[lane]
                    if chosen is _UNSET:
                        ctx.trap(lane, cond_reason)
                    elif chosen is POISON:
                        ctx.trap(lane, "branch on poison")
                    elif chosen == 1:
                        true_lanes.append(lane)
                    else:
                        false_lanes.append(lane)
                groups = []
                if true_lanes:
                    groups.append((true_edge, true_lanes))
                if false_lanes:
                    groups.append((false_edge, false_lanes))
                return groups

            return step
        cond_resolve = _as_lane_resolver(condition)

        def step(ctx, frame, active):
            true_lanes = []
            false_lanes = []
            for lane in active:
                try:
                    chosen = cond_resolve(ctx, frame, lane)
                except UBError as ub:
                    ctx.trap(lane, ub.reason)
                    continue
                if chosen is POISON:
                    ctx.trap(lane, "branch on poison")
                elif chosen == 1:
                    true_lanes.append(lane)
                else:
                    false_lanes.append(lane)
            groups = []
            if true_lanes:
                groups.append((true_edge, true_lanes))
            if false_lanes:
                groups.append((false_edge, false_lanes))
            return groups

        return step

    def compile_switch(self, block: BasicBlock, inst: SwitchInst) -> BatchStep:
        value = self.lane_operand(inst.value)
        table: Dict[Any, _BEdge] = {}
        for case_value, case_block in inst.cases():
            # First matching case wins, exactly like the scalar scan.
            table.setdefault(case_value.value, self.edge(block, case_block))
        default_edge = self.edge(block, inst.default)

        def step(ctx, frame, active):
            groups: List[Tuple[_BEdge, List[int]]] = []
            by_edge: Dict[int, List[int]] = {}
            for lane in active:
                try:
                    resolved = value(ctx, frame, lane)
                except UBError as ub:
                    ctx.trap(lane, ub.reason)
                    continue
                if resolved is POISON:
                    ctx.trap(lane, "switch on poison")
                    continue
                try:
                    edge = table.get(resolved)
                except TypeError:  # unhashable runtime value: no match
                    edge = None
                if edge is None:
                    edge = default_edge
                lanes = by_edge.get(id(edge))
                if lanes is None:
                    lanes = []
                    by_edge[id(edge)] = lanes
                    groups.append((edge, lanes))
                lanes.append(lane)
            return groups

        return step

    def compile_unreachable(
        self, block: BasicBlock, inst: UnreachableInst
    ) -> BatchStep:
        return _trap_all_step("reached unreachable")

    def compile_unsupported(self, block: BasicBlock, inst: Instruction) -> BatchStep:
        return _trap_all_step(f"unsupported instruction {inst.opcode}")


# By opcode.  Phis have no step: edges copy them (see ``edge``).
_COMPILERS = opcode_table(
    _BatchCompiler.compile_unsupported,
    {
        **dict.fromkeys(BINARY_OPCODES, _BatchCompiler.compile_binary),
        "icmp": _BatchCompiler.compile_icmp,
        "select": _BatchCompiler.compile_select,
        **dict.fromkeys(CAST_OPCODES, _BatchCompiler.compile_cast),
        "freeze": _BatchCompiler.compile_freeze,
        "alloca": _BatchCompiler.compile_alloca,
        "load": _BatchCompiler.compile_load,
        "store": _BatchCompiler.compile_store,
        "getelementptr": _BatchCompiler.compile_gep,
        "call": _BatchCompiler.compile_call,
        "ret": _BatchCompiler.compile_ret,
        "br": _BatchCompiler.compile_br,
        "switch": _BatchCompiler.compile_switch,
        "unreachable": _BatchCompiler.compile_unreachable,
    },
)


# The type each memory instruction sizes (``_required_size``), by KIND.
_ACCESSED_TYPE = {
    "alloca": lambda inst: inst.allocated_type,
    "load": lambda inst: inst.type,
    "store": lambda inst: inst.operands[0].type,
    "gep": lambda inst: inst.source_type,
}


def _any_undef(values) -> bool:
    """Whether any of ``values`` (None entries allowed) is undef."""
    for value in values:
        if value is not None and value.KIND == "undef":
            return True
    return False


def _ub_lane_raiser(reason: str) -> LaneResolver:
    def raise_ub(ctx, frame, lane):
        raise UBError(reason)

    return raise_ub


def _trap_all_step(reason: str) -> BatchStep:
    def step(ctx, frame, active):
        for lane in active:
            ctx.trap(lane, reason)
        return ()

    return step


def _required_size(type) -> int:
    """``byte_size_of_type``, or :class:`BatchUnsupported`: the scalar
    path raises its ValueError out of the whole check in input order,
    which a batch cannot reproduce, so such functions stay scalar."""
    try:
        return byte_size_of_type(type)
    except ValueError as exc:
        raise BatchUnsupported(str(exc)) from exc


def compile_batch_program(function: Function) -> BatchProgram:
    """Build one defined function's :class:`BatchProgram`: its layout,
    entry edge and scan; blocks compile on first entry.  The function
    must pass :func:`repro.tv.refine.check_function_supported`.

    Raises (:class:`BatchUnsupported` or anything the IR walk trips
    over) when the function cannot be batch-executed; callers fall back
    to per-input tree-walking via :func:`batch_program_for`.
    """
    if function.is_declaration():
        raise BatchUnsupported(f"cannot batch declaration @{function.name}")
    return _BatchCompiler(function).build()


def batch_program_for(
    plan: Optional[ExecutionPlan], function: Function
) -> Optional[BatchProgram]:
    """The batch program for ``function``'s plan, compiled lazily and
    cached on the plan itself — plan caching (fingerprint-keyed) then
    shares batch programs across mutants for free."""
    if plan is None:
        return None
    program = plan.batch_program
    if program is None:
        try:
            program = compile_batch_program(function)
        except Exception:
            program = _BATCH_FAILED
        plan.batch_program = program
    return None if program is _BATCH_FAILED else program


# -- the runner ---------------------------------------------------------------


class BatchRunner:
    """Executes batches for one module side, reusing a lane arena.

    A program with :attr:`~BatchProgram.lane_state` backs each lane with
    a real :class:`Interpreter` (its own memory, oracle, alloca/call
    counters), reset per run exactly like the scalar enumeration's
    arena — nested calls, external-call modeling, and oracle choices run
    through the reference tree-walker unmodified.  Any other
    program reads nothing but its argument columns, so its lanes get no
    interpreter, memory or snapshot.  Every batch is counted in
    ``stats`` (a fresh :class:`BatchStats` when none is given).
    """

    def __init__(
        self,
        module,
        limits: Optional[ExecutionLimits] = None,
        stats: Optional[BatchStats] = None,
    ) -> None:
        self.module = module
        self.limits = limits or ExecutionLimits()
        self.stats = stats if stats is not None else BatchStats()
        self._interps: List[Interpreter] = []

    def rebind(self, module) -> None:
        """Point the runner, lane arena included, at another module: the
        two sides of one refinement check share lanes, since ``reset``
        clears everything a run leaves behind."""
        self.module = module
        for interp in self._interps:
            interp.module = module

    def _lane_interp(self, index: int) -> Interpreter:
        while len(self._interps) <= index:
            self._interps.append(Interpreter(self.module, None, self.limits))
        return self._interps[index]

    def run_batch(self, function: Function, program: BatchProgram, lanes):
        """Run one batch; ``lanes`` is a list of ``(runtime_args, blocks,
        observable, oracle)`` tuples.  Returns per-lane ``(status, value,
        memory, detail, steps)`` tuples mirroring the scalar
        ``_run_once`` (plus the lane's exact step count).  A program
        without lane state never consults the oracle, which may then be
        None."""
        size = len(lanes)
        ctx = _BatchContext(size, self.limits.max_steps, function)
        frame = [[_UNSET] * size for _ in range(program.frame_size)]
        num_args = program.num_args
        depth_exceeded = 0 > self.limits.max_call_depth
        stateful = program.lane_state
        if not stateful:
            for lane in lanes:
                if lane[2]:
                    # Observable memory (pointer inputs built for another
                    # signature) is snapshotted from a lane's arena.
                    stateful = True
                    break
        # The entry check reads noundef and dereferenceable only; without
        # pointer parameters noundef is all that can fail.
        noundef: List[Tuple[int, str]] = []
        checks_attributes = False
        for position, argument in enumerate(function.arguments):
            attributes = argument.attributes
            if attributes.has("noundef"):
                reason = f"poison passed to noundef arg %{argument.name}"
                noundef.append((position, reason))
                checks_attributes = True
            elif attributes.get_int("dereferenceable"):
                checks_attributes = True
        for index, (runtime_args, blocks, _observable, oracle) in enumerate(lanes):
            count = len(runtime_args)
            if count > num_args:
                count = num_args
            for position in range(count):
                frame[position][index] = runtime_args[position]
            if stateful:
                interp = self._lane_interp(index)
                interp.reset(oracle)
                arena = interp.memory
                for block_id, block_size, contents in blocks:
                    arena.add_block(block_id, block_size, list(contents))
                ctx.interps.append(interp)
            # Entry checks, in scalar _call order: depth, then argument
            # attributes (which may read this lane's fresh memory).
            if depth_exceeded:
                ctx.timeout(index)
            elif stateful:
                if checks_attributes:
                    try:
                        interp._check_argument_attributes(function, runtime_args)
                    except _LANE_ERRORS as exc:
                        ctx.trap_exception(index, exc)
            else:
                for position, reason in noundef:
                    if position < count and runtime_args[position] is POISON:
                        ctx.trap(index, reason)
                        break
        ctx.frame = frame
        ctx.dead = False
        stats = self.stats
        stats.batches += 1
        stats.lanes += size
        if not stateful:
            stats.stateless_lanes += size
        program.execute(ctx, [index for index in range(size) if ctx.running[index]])
        stats.divergence_splits += ctx.divergence_splits
        results = []
        for index in range(size):
            status = ctx.statuses[index]
            steps = ctx.steps[index]
            if status == "ok":
                if stateful:
                    snapshot = ctx.interps[index].memory.snapshot(lanes[index][2])
                    memory = tuple(sorted(snapshot.items()))
                else:
                    memory = ()
                results.append(("ok", ctx.values[index], memory, "", steps))
            elif status == "ub":
                results.append(("ub", None, (), ctx.details[index], steps))
            elif status == "timeout":
                results.append(("timeout", None, (), "", steps))
            else:  # pragma: no cover - executor invariant
                raise RuntimeError(
                    f"batched lane {index} of @{function.name} did not terminate"
                )
        return results
