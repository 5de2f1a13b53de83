"""Struct-of-arrays batched execution for compiled TV plans (ROADMAP 3).

The refinement checker enumerates the same function over
``max_inputs x max_nondet_runs`` runs, and after PR 5's compile-once
plans every one of those runs replays the same closure sequence — the
remaining waste is re-walking the plan once per enumerated input.  This
module executes one *batch* of lanes (one lane per pending input) per
plan walk:

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
  sequence numbers, nested calls) runs against that lane's own scalar
  :class:`~repro.tv.interp.Interpreter`, and nested defined calls fall
  back to the scalar ``_call`` path wholesale — so observable semantics
  (poison/undef propagation, oracle choice order and domain sizes, UB
  classification, step accounting) are identical by construction.  The
  differential suite in ``tests/test_batch_exec.py`` locks lane-by-lane
  bit-equality against the scalar path;
* a program none of whose steps reads that state (no undef, freeze,
  memory access, non-intrinsic call or pointer parameter — see
  :attr:`BatchProgram.lane_state`) gets no interpreter at all: its lanes
  are argument columns plus the ``noundef`` entry check.

Batch programs are compiled lazily from the scalar
:class:`~repro.tv.compile.ExecutionPlan` (and cached on it, so the
global plan cache shares them across mutants).  Anything the batch
compiler declines — deferred size errors whose ``ValueError`` must
abort the whole check in scalar input order — falls back to the scalar
enumeration, counted in ``exec.batch.scalar_fallbacks``.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

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
from .compile import (
    _ICMP_COMPARATORS,
    _SIGNED_ICMP,
    _UNDEF_BYTE_CHOICES,
    _UNSET,
    ExecutionPlan,
    _binary_fn,
    _constant_pointer_address,
    _safe_size,
)
from .domain import NULL_POINTER, POISON, Pointer, to_signed, to_unsigned
from .interp import (
    ExecutionLimits,
    Interpreter,
    StepLimitExceeded,
    UBError,
    evaluate_intrinsic,
    pointer_address,
)
from .memory import UNDEF_BYTE, MemoryFault, bytes_to_int, int_to_bytes

__all__ = [
    "BatchProgram",
    "BatchRunner",
    "BatchStats",
    "batch_program_for",
    "compile_batch_program",
    "global_batch_stats",
    "reset_global_batch_stats",
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


class BatchUnsupported(Exception):
    """The batch compiler declines this function (scalar fallback)."""


class BatchStats:
    """Process-wide execution counters: batched runs (``exec.batch.*``)
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
        self.batches = 0
        self.lanes = 0
        self.divergence_splits = 0
        self.scalar_fallbacks = 0
        self.same_plan = 0
        self.static_skips = 0
        self.target_inputs_pruned = 0
        self.stateless_lanes = 0

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


_GLOBAL_BATCH_STATS = BatchStats()


def global_batch_stats() -> BatchStats:
    return _GLOBAL_BATCH_STATS


def reset_global_batch_stats() -> BatchStats:
    global _GLOBAL_BATCH_STATS
    _GLOBAL_BATCH_STATS = BatchStats()
    return _GLOBAL_BATCH_STATS


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

    def __init__(self, size: int, max_steps: int) -> None:
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
    """A compiled block: batched steps plus accounting metadata.

    ``call_free`` blocks whose lanes all have ``step_count`` of budget
    headroom skip per-step accounting — the executor bulk-charges the
    steps a lane actually executed when it leaves the block (trapped
    and returned lanes never consume their counts again, and call steps
    are the only ones that need an exact mid-block counter to sync into
    the nested scalar call)."""

    __slots__ = ("steps", "step_count", "call_free")

    def __init__(self) -> None:
        self.steps: List[BatchStep] = []
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
    rather than silently.
    """

    __slots__ = ("frame_size", "num_args", "entry_edge", "lane_state")

    def __init__(
        self, frame_size: int, num_args: int, entry_edge: _BEdge, lane_state: bool
    ) -> None:
        self.frame_size = frame_size
        self.num_args = num_args
        self.entry_edge = entry_edge
        self.lane_state = lane_state

    def execute(self, ctx: _BatchContext, lanes: List[int]) -> None:
        """Drive every lane in ``lanes`` to completion.

        Mirrors ``ExecutionPlan.execute``: accounting charges each step
        before it runs (phi copies are free), phi reads are atomic
        w.r.t. the edge taken, and falling off a block end is UB.
        Divergent terminators return per-edge lane groups; all but the
        first continue from a worklist, sharing the frame columns.
        Call-free blocks with budget headroom use bulk accounting (see
        :class:`_BBlock`), everything else counts step by step.
        """
        if not lanes:
            # An unconditional branch hands its group on as it is, so an
            # empty group would circle a self-loop forever.
            return
        frame = ctx.frame
        counts = ctx.steps
        max_steps = ctx.max_steps
        running = ctx.running
        stack: List[Tuple[_BEdge, List[int]]] = [(self.entry_edge, lanes)]
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
                control = None
                if block.call_free and worst + block.step_count <= max_steps:
                    # Bulk accounting: no lane can time out inside this
                    # block and no call needs a mid-block counter, so a
                    # lane's counter is settled once, when it leaves —
                    # via ``pending`` on trap/finish, or below for lanes
                    # continuing into a successor group.
                    executed = 0
                    for step in block.steps:
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
                    for step in block.steps:
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
    if isinstance(value, ConstantInt):
        return (_CONST, value.value)
    if isinstance(value, PoisonValue):
        return (_CONST, POISON)
    if isinstance(value, ConstantPointerNull):
        return (_CONST, NULL_POINTER)
    if isinstance(value, Function):
        return (_CONST, Pointer(f"func:{value.name}", 0))
    if isinstance(value, UndefValue):
        compiler.lane_state = True
        value_type = value.type
        label = f"undef:{id(value)}"

        def choose_undef(ctx, frame, lane):
            # Each use of undef is an independent per-lane choice.
            return ctx.interps[lane]._choose_value(value_type, label)

        return (_DYN, choose_undef)
    slot = compiler.slots.get(id(value))
    reason = f"use of unevaluated value %{value.name or '?'}"
    if slot is None:

        def raise_ub(ctx, frame, lane):
            raise UBError(reason)

        return (_DYN, raise_ub)
    return (_SLOT, slot, reason)


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
# poison propagation plus one C-level operator call per lane.
_SIMPLE_BINARY_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}


def _simple_binary_step(op, mask, lhs_info, rhs_info, slot):
    """Inlined step for never-trapping binary ops on slot/const operands.

    Mirrors the flagless branches of ``_binary_fn`` exactly (poison in →
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

    Integer slots only ever hold ints or poison (no inttoptr in the
    cast set), so the pointer normalization of :func:`_icmp_fn` is
    compiled out and the signedness conversion inlined.  Returns
    ``None`` for shapes it does not cover.
    """
    if not (
        isinstance(inst.lhs.type, IntType) and isinstance(inst.rhs.type, IntType)
    ):
        return None
    compare = _ICMP_COMPARATORS[inst.predicate]
    signed = inst.predicate in _SIGNED_ICMP
    width = inst.lhs.type.width
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


def _icmp_fn(inst: ICmpInst):
    """Per-value icmp closure mirroring ``_Compiler.compile_icmp``."""
    compare = _ICMP_COMPARATORS[inst.predicate]
    signed = inst.predicate in _SIGNED_ICMP
    width = inst.lhs.type.width if isinstance(inst.lhs.type, IntType) else 64
    lhs_address = _constant_pointer_address(inst.lhs)
    rhs_address = _constant_pointer_address(inst.rhs)
    if isinstance(inst.lhs.type, IntType) and isinstance(inst.rhs.type, IntType):
        # Integer-typed operands only ever hold ints or poison at
        # runtime (the cast set has no inttoptr), so the pointer
        # normalization can be compiled out.
        if signed:

            def fn_signed(lhs_value, rhs_value):
                if lhs_value is POISON or rhs_value is POISON:
                    return POISON
                return int(
                    compare(to_signed(lhs_value, width), to_signed(rhs_value, width))
                )

            return fn_signed

        def fn_unsigned(lhs_value, rhs_value):
            if lhs_value is POISON or rhs_value is POISON:
                return POISON
            return int(compare(lhs_value, rhs_value))

        return fn_unsigned

    def fn(lhs_value, rhs_value):
        if lhs_value is POISON or rhs_value is POISON:
            return POISON
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
        return int(compare(lhs_num, rhs_num))

    return fn


# -- the batch compiler -------------------------------------------------------


class _BatchCompiler:
    """Mirror of ``repro.tv.compile._Compiler`` emitting batched steps.

    Slot layout is identical to the scalar plan (arguments, then
    instructions in program order; the trailing depth slot is unused
    here — batched execution always runs at call depth 0)."""

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
        self.frame_size = position + 1
        self.blocks: Dict[int, _BBlock] = {
            id(block): _BBlock() for block in function.blocks
        }
        # Raised by every compile method whose step reads ``ctx.interps``
        # (see BatchProgram.lane_state); the entry checks read memory for
        # pointer and dereferenceable parameters.
        self.lane_state = any(
            argument.type.is_pointer()
            or argument.attributes.get_int("dereferenceable")
            for argument in function.arguments
        )

    def build(self) -> BatchProgram:
        for block in self.function.blocks:
            compiled = self.blocks[id(block)]
            start = block.first_non_phi_index()
            instructions = block.instructions[start:]
            compiled.steps = [
                self.compile_instruction(block, inst)
                for inst in instructions
            ]
            compiled.step_count = len(instructions)
            compiled.call_free = not any(
                isinstance(inst, CallInst)
                and not inst.callee.name.startswith("llvm.")
                for inst in instructions
            )
        entry = self.function.entry_block()
        return BatchProgram(
            self.frame_size,
            len(self.function.arguments),
            self.edge(None, entry),
            self.lane_state,
        )

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
            slots.append(self.slots[id(phi)])
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
        if isinstance(inst, BinaryOperator):
            lhs = self.operand(inst.lhs)
            rhs = self.operand(inst.rhs)
            slot = self.slots[id(inst)]
            simple_op = _SIMPLE_BINARY_OPS.get(inst.opcode)
            if (
                simple_op is not None
                and not inst.nuw
                and not inst.nsw
                and not inst.exact
            ):
                step = _simple_binary_step(
                    simple_op, (1 << inst.type.width) - 1, lhs, rhs, slot
                )
                if step is not None:
                    return step
            return _binary_step(
                _binary_fn(
                    inst.opcode, inst.type.width, inst.nuw, inst.nsw, inst.exact
                ),
                lhs,
                rhs,
                slot,
            )
        if isinstance(inst, ICmpInst):
            lhs = self.operand(inst.lhs)
            rhs = self.operand(inst.rhs)
            slot = self.slots[id(inst)]
            step = _int_icmp_step(inst, lhs, rhs, slot)
            if step is not None:
                return step
            return _binary_step(_icmp_fn(inst), lhs, rhs, slot)
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
            return _trap_all_step("reached unreachable")
        return _trap_all_step(f"unsupported instruction {inst.opcode}")

    def compile_select(self, inst: SelectInst) -> BatchStep:
        condition = self.operand(inst.condition)
        # Only the taken arm is evaluated (undef/oracle order), so arms
        # stay in per-lane resolver form.
        true_value = self.lane_operand(inst.true_value)
        false_value = self.lane_operand(inst.false_value)
        slot = self.slots[id(inst)]
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

    def compile_cast(self, inst: CastInst) -> BatchStep:
        info = self.operand(inst.value)
        slot = self.slots[id(inst)]
        opcode = inst.opcode
        if opcode == "trunc":
            mask = (1 << inst.type.width) - 1

            def fn(value):
                return POISON if value is POISON else value & mask

            return _unary_step(fn, info, slot)
        if opcode == "zext":

            def fn(value):
                return value

            return _unary_step(fn, info, slot)
        if opcode == "sext":
            src_width = inst.src_type.width
            dst_width = inst.type.width

            def fn(value):
                if value is POISON:
                    return POISON
                return to_unsigned(to_signed(value, src_width), dst_width)

            return _unary_step(fn, info, slot)

        def fn(value):  # constructor-validated; defensive
            raise UBError(f"unsupported cast {opcode}")

        return _unary_step(fn, info, slot)

    def compile_freeze(self, inst: FreezeInst) -> BatchStep:
        self.lane_state = True
        value = self.lane_operand(inst.value)
        slot = self.slots[id(inst)]
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

    def compile_alloca(self, inst: AllocaInst) -> BatchStep:
        self.lane_state = True
        size = _required_size(inst.allocated_type)
        slot = self.slots[id(inst)]

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

    def compile_load(self, inst: LoadInst) -> BatchStep:
        self.lane_state = True
        pointer = self.lane_operand(inst.pointer)
        size = _required_size(inst.type)
        slot = self.slots[id(inst)]
        if inst.type.is_pointer():
            label = f"load:{id(inst)}"

            def step(ctx, frame, active):
                out = frame[slot]
                interps = ctx.interps
                for lane in active:
                    try:
                        resolved = pointer(ctx, frame, lane)
                        if resolved is POISON:
                            raise UBError("load from poison pointer")
                        if not isinstance(resolved, Pointer):
                            raise UBError("load from non-pointer value")
                        interp = interps[lane]
                        data = interp.memory.load_bytes(resolved, size)
                        out[lane] = interp._bytes_to_pointer(data, label)
                    except _LANE_ERRORS as exc:
                        ctx.trap_exception(lane, exc)

            return step
        mask = (1 << inst.type.width) - 1
        undef_label = f"loadundef:{id(inst)}"

        def step(ctx, frame, active):
            out = frame[slot]
            interps = ctx.interps
            for lane in active:
                try:
                    resolved = pointer(ctx, frame, lane)
                    if resolved is POISON:
                        raise UBError("load from poison pointer")
                    if not isinstance(resolved, Pointer):
                        raise UBError("load from non-pointer value")
                    interp = interps[lane]
                    data = interp.memory.load_bytes(resolved, size)
                    for byte in data:
                        if byte is POISON:
                            out[lane] = POISON
                            break
                    else:
                        concrete: List[int] = []
                        for index, byte in enumerate(data):
                            if byte is UNDEF_BYTE:
                                interp._note_truncated_domain()
                                concrete.append(
                                    interp.oracle.choose(
                                        f"{undef_label}:{index}", _UNDEF_BYTE_CHOICES
                                    )
                                )
                            elif isinstance(byte, tuple):
                                concrete.append(interp._pointer_byte_as_int(byte))
                            else:
                                concrete.append(byte)
                        out[lane] = bytes_to_int(concrete) & mask
                except _LANE_ERRORS as exc:
                    ctx.trap_exception(lane, exc)

        return step

    def compile_store(self, inst: StoreInst) -> BatchStep:
        self.lane_state = True
        pointer = self.lane_operand(inst.pointer)
        value = self.lane_operand(inst.value)
        size = _required_size(inst.value.type)

        def step(ctx, frame, active):
            interps = ctx.interps
            for lane in active:
                try:
                    resolved = pointer(ctx, frame, lane)
                    if resolved is POISON:
                        raise UBError("store to poison pointer")
                    if not isinstance(resolved, Pointer):
                        raise UBError("store to non-pointer value")
                    stored = value(ctx, frame, lane)
                    if stored is POISON:
                        data: List[Any] = [POISON] * size
                    elif isinstance(stored, Pointer):
                        data = [
                            ("ptr", stored.block, stored.offset, index)
                            for index in range(size)
                        ]
                    else:
                        data = int_to_bytes(stored, size)
                    interps[lane].memory.store_bytes(resolved, data)
                except _LANE_ERRORS as exc:
                    ctx.trap_exception(lane, exc)

        return step

    def compile_gep(self, inst: GEPInst) -> BatchStep:
        self.lane_state = True
        pointer = self.lane_operand(inst.pointer)
        element_size = _required_size(inst.source_type)
        index_parts = tuple(
            (self.lane_operand(index), index.type.width)
            for index in inst.indices
        )
        inbounds = inst.inbounds
        slot = self.slots[id(inst)]

        def step(ctx, frame, active):
            out = frame[slot]
            interps = ctx.interps
            for lane in active:
                try:
                    resolved = pointer(ctx, frame, lane)
                    if resolved is POISON:
                        out[lane] = POISON
                        continue
                    if not isinstance(resolved, Pointer):
                        raise UBError("gep on non-pointer value")
                    offset = resolved.offset
                    poisoned = False
                    for resolve_index, width in index_parts:
                        index_value = resolve_index(ctx, frame, lane)
                        if index_value is POISON:
                            out[lane] = POISON
                            poisoned = True
                            break
                        offset += to_signed(index_value, width) * element_size
                    if poisoned:
                        continue
                    result: Any = Pointer(resolved.block, offset)
                    if inbounds and not resolved.is_null():
                        memory = interps[lane].memory
                        if memory.has_block(resolved.block):
                            if offset < 0 or offset > memory.block_size(
                                resolved.block
                            ):
                                result = POISON
                    out[lane] = result
                except _LANE_ERRORS as exc:
                    ctx.trap_exception(lane, exc)

        return step

    def compile_call(self, inst: CallInst) -> BatchStep:
        callee = inst.callee
        resolvers = tuple(self.lane_operand(argument) for argument in inst.args)
        if callee.name.startswith("llvm."):
            return self.compile_intrinsic(inst, resolvers)
        self.lane_state = True
        nonnull_checks = tuple(
            (index, argument.attributes.has("noundef"))
            for index, argument in enumerate(callee.arguments)
            if index < len(inst.args) and argument.attributes.has("nonnull")
        )
        has_result = not inst.type.is_void()
        slot = self.slots[id(inst)] if has_result else None

        def step(ctx, frame, active):
            out = frame[slot] if slot is not None else None
            interps = ctx.interps
            counts = ctx.steps
            for lane in active:
                interp = interps[lane]
                try:
                    args = [resolve(ctx, frame, lane) for resolve in resolvers]
                    for index, noundef in nonnull_checks:
                        value = args[index]
                        if isinstance(value, Pointer) and value.is_null():
                            if noundef:
                                raise UBError(
                                    "null passed to nonnull noundef argument"
                                )
                            args[index] = POISON
                    # The nested call shares this lane's step budget:
                    # sync the scalar counter in, run through the exact
                    # scalar _call path (plans, externals, depth), and
                    # sync whatever it consumed back out.
                    interp._steps = counts[lane]
                    try:
                        result = interp._call(callee, args, 1)
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
        if base == "llvm.assume":
            bundle_checks = tuple(
                (
                    bundle.tag,
                    tuple(
                        self.lane_operand(value)
                        for value in inst.bundle_operands(bundle)
                    ),
                )
                for bundle in inst.bundles
            )

            def step(ctx, frame, active):
                for lane in active:
                    try:
                        args = [resolve(ctx, frame, lane) for resolve in resolvers]
                        condition = args[0]
                        if condition is POISON:
                            raise UBError("assume of poison")
                        if condition != 1:
                            raise UBError("assume of false")
                        for tag, operand_resolvers in bundle_checks:
                            operands = [
                                resolve(ctx, frame, lane)
                                for resolve in operand_resolvers
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
                                if (
                                    isinstance(pointer, Pointer)
                                    and pointer.is_null()
                                ):
                                    raise UBError("assume nonnull violated")
                    except _LANE_ERRORS as exc:
                        ctx.trap_exception(lane, exc)

            return step
        width = inst.type.width if isinstance(inst.type, IntType) else 0
        mask = (1 << width) - 1 if width else 0
        has_result = not inst.type.is_void()
        slot = self.slots[id(inst)] if has_result else None

        def step(ctx, frame, active):
            out = frame[slot] if slot is not None else None
            for lane in active:
                try:
                    args = [resolve(ctx, frame, lane) for resolve in resolvers]
                    for value in args:
                        if value is POISON:
                            result = POISON
                            break
                    else:
                        result = evaluate_intrinsic(base, name, width, mask, args)
                    if out is not None:
                        out[lane] = result
                except _LANE_ERRORS as exc:
                    ctx.trap_exception(lane, exc)

        return step

    def compile_ret(self, inst: RetInst) -> BatchStep:
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
        if not inst.is_conditional():
            edge = self.edge(block, inst.operands[0])

            def step(ctx, frame, active):
                return ((edge, active),)

            return step
        condition = self.operand(inst.condition)
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
    """Like ``_safe_size`` but refusing deferred errors: the scalar path
    raises its ValueError out of the whole check in input order, which a
    batch cannot reproduce — so such functions stay on the scalar path."""
    size, error = _safe_size(type)
    if error is not None:
        raise BatchUnsupported(error)
    return size


def compile_batch_program(function: Function) -> BatchProgram:
    """Lower one defined function into a :class:`BatchProgram`.

    Raises (:class:`BatchUnsupported` or anything the IR walk trips
    over) when the function cannot be batch-executed; callers fall back
    to scalar enumeration via :func:`batch_program_for`.
    """
    if function.is_declaration():
        raise BatchUnsupported(f"cannot batch declaration @{function.name}")
    return _BatchCompiler(function).build()


def batch_program_for(
    plan: Optional[ExecutionPlan], function: Function
) -> Optional[BatchProgram]:
    """The batch program for ``function``'s plan, compiled lazily and
    cached on the plan itself — plan caching (global, fingerprint-keyed)
    then shares batch programs across mutants for free."""
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
    a real scalar :class:`Interpreter` (its own memory, oracle,
    alloca/call counters), reset per run exactly like the scalar
    enumeration's arena — nested calls, external-call modeling, and
    oracle choices run through unmodified scalar code.  Any other
    program reads nothing but its argument columns, so its lanes get no
    interpreter, memory or snapshot.
    """

    def __init__(
        self,
        module,
        limits: Optional[ExecutionLimits] = None,
        plans=None,
        fp_cache=None,
    ) -> None:
        self.module = module
        self.limits = limits or ExecutionLimits()
        self._plans = plans
        self._fp_cache = fp_cache
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
            self._interps.append(
                Interpreter(
                    self.module,
                    None,
                    self.limits,
                    compiled=True,
                    plans=self._plans,
                    fp_cache=self._fp_cache,
                )
            )
        return self._interps[index]

    def run_batch(self, function: Function, program: BatchProgram, lanes):
        """Run one batch; ``lanes`` is a list of ``(runtime_args, blocks,
        observable, oracle)`` tuples.  Returns per-lane ``(status, value,
        memory, detail, steps)`` tuples mirroring the scalar
        ``_run_once`` (plus the lane's exact step count).  A program
        without lane state never consults the oracle, which may then be
        None."""
        size = len(lanes)
        ctx = _BatchContext(size, self.limits.max_steps)
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
        stats = _GLOBAL_BATCH_STATS
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
