"""Execution plans for the TV engines (paper §III-B, "pay once").

The refinement checker executes the same two functions across
``max_inputs x max_nondet_runs`` runs, and the campaign re-executes the
fixed source function for every mutant.  An :class:`ExecutionPlan` is
what that reuse keys on: a function's frame layout, its static step
bound, and — built on the first batched run, each block compiled on its
first entry — its struct-of-arrays program (:mod:`repro.tv.batch`).
Anything run one input at a time (nested calls from batch lanes, the
``batched=False`` ablation, a function the batch compiler declines) is
tree-walked by the reference :class:`~repro.tv.interp.Interpreter`; no
plan is needed for that.

Plans are cached in a :class:`PlanCache`, one per fuzzing driver (see
:class:`repro.tv.refine.TVCaches`), keyed by structural fingerprint plus
everything the fingerprint deliberately normalizes away but execution
can observe: local value names (they appear in UB detail strings) and
the attribute environment of reachable declarations (external-call
semantics).  A function no plan covers is
remembered as a fallback and tree-walked, never an error.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from ..ir.cfg import reverse_postorder
from ..ir.fingerprint import fingerprint_closure, referenced_functions
from ..ir.function import Function
from ..ir.instructions import CallInst

__all__ = [
    "ExecutionPlan",
    "LRUCache",
    "PlanCache",
    "compile_function",
    "plan_key",
]


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


class ExecutionPlan:
    """One function's frame layout, step bound and batch program.

    Construction is cheap: no closures, and no reference to the IR kept.
    The batch program (:mod:`repro.tv.batch`) is built on the first
    batched run, and each of its blocks compiled on first entry, from
    the function in the runner's hands (any function with this plan's
    key compiles to the same steps).
    """

    __slots__ = (
        "frame_size",
        "num_args",
        "depth_slot",
        "step_bound",
        "batch_program",
    )

    def __init__(self, function: Function) -> None:
        # A branch out of the function is something the batch compiler
        # does not handle and the plan key cannot see: decline it before
        # two such functions can be taken for one plan.
        own = {id(block) for block in function.blocks}
        for block in function.blocks:
            for successor in block.successors():
                if id(successor) not in own:
                    raise ValueError(
                        f"@{function.name} branches into a foreign block "
                        f"%{successor.name}"
                    )
        # Slot layout: arguments, then instructions in program order,
        # then the call depth (the batch compiler assigns the same indices).
        self.num_args = len(function.arguments)
        self.depth_slot = self.num_args + sum(
            len(block.instructions) for block in function.blocks
        )
        self.frame_size = self.depth_slot + 1
        # The most steps any one call can be charged, when that is known
        # at compile time (see _static_step_bound); None otherwise.
        self.step_bound = _static_step_bound(function)
        # Lazily-compiled struct-of-arrays program (repro.tv.batch); cached
        # here so the plan cache shares batch programs across mutants.
        self.batch_program = None


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


def compile_function(function: Function) -> ExecutionPlan:
    """Lay out one defined function's :class:`ExecutionPlan`.

    Raises on IR shapes no plan covers (declarations, branches into
    foreign functions); :class:`PlanCache` then records a fallback and
    the function is tree-walked.
    """
    if function.is_declaration():
        raise ValueError(f"cannot compile declaration @{function.name}")
    return ExecutionPlan(function)


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
        for callee in referenced_functions(current):
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

# Frame slots the plan cache may keep resident.  A batch program's
# closures, and the cells and constants they hold, number a small
# multiple of its plan's slots, so slots — not entries — are what the
# heap and the cyclic collector pay for: one 40-block function weighs as
# much as a dozen ordinary ones.
DEFAULT_PLAN_CACHE_SLOTS = 8192


class PlanCache:
    """Slot-bounded, fingerprint-keyed store of execution plans.

    ``hits``/``misses``/``fallbacks`` feed the ``exec.plan_cache.*``
    metrics.  A plan enters as its layout (:func:`compile_function`); a
    function that cannot be laid out is cached too (as a tree-walk
    fallback marker) so it is not retried on every lookup.
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
            plan = compile_function(function)
        except Exception:
            self.fallbacks += 1
            self._plans.put(key, _COMPILE_FAILED)
            return None
        self._plans.put(key, plan, plan.frame_size)
        return plan

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
