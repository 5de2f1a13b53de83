"""Bounded refinement checking (the Alive2 analog).

``check_refinement(src, tgt)`` decides whether the optimized function
refines the original: for every input, every behavior of the target must
be allowed by some behavior of the source, under the standard ordering

    UB  ⊑  poison  ⊑  concrete value,

applied to the return value and to every externally-visible memory byte.

Instead of SMT solving, behavior sets are enumerated: inputs are
exhaustively covered for small state spaces and sampled (corner values,
literal-constant neighborhoods, aliasing patterns) otherwise, and
nondeterminism (undef uses, freeze-of-poison) is enumerated through the
oracle up to a budget.  Partial enumeration can only make the checker
*miss* bugs or declare an input inconclusive — it never produces a false
refinement failure.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..analysis.constants_pool import ConstantPool
from ..config import operational, semantic, semantic_key
from ..ir.function import Function
from ..ir.intrinsics import lookup as lookup_intrinsic
from ..ir.module import Module
from ..ir.types import IntType, VoidType
from .batch import BatchRunner, BatchStats, batch_program_for
from .compile import LRUCache, PlanCache
from .domain import (
    NULL_POINTER,
    POISON,
    Pointer,
    RuntimeValue,
    interesting_values,
)
from .interp import ExecutionLimits, Interpreter, StepLimitExceeded, UBError
from .memory import POISON as _POISON_BYTE, UNDEF_BYTE
from .oracle import PathOracle, advance_path


class Verdict(Enum):
    CORRECT = "correct"            # no refinement violation found (bounded)
    UNSOUND = "unsound"            # definite counterexample found
    INCONCLUSIVE = "inconclusive"  # nondeterminism budget exhausted
    UNSUPPORTED = "unsupported"    # function outside the validator's scope


@dataclass(frozen=True)
class Outcome:
    """One observed behavior: status, return value, final visible memory."""

    status: str                    # "ok" | "ub" | "timeout"
    value: object = None
    memory: Tuple[Tuple[str, Tuple], ...] = ()
    detail: str = ""

    def is_ub(self) -> bool:
        return self.status == "ub"

    def is_timeout(self) -> bool:
        return self.status == "timeout"


@dataclass(frozen=True)
class PointerInput:
    """Description of a pointer argument's target for one test input."""

    block: str                     # logical block id ("" means null)
    size: int = 0
    contents: Tuple[int, ...] = ()

    def is_null(self) -> bool:
        return not self.block


@dataclass(frozen=True)
class TestInput:
    """One concrete argument vector (pointer args described symbolically)."""

    args: Tuple[object, ...]       # int | PointerInput

    def describe(self, function: Function) -> str:
        parts = []
        for argument, value in zip(function.arguments, self.args):
            name = f"%{argument.name}" if argument.name else "%?"
            if isinstance(value, PointerInput):
                if value.is_null():
                    parts.append(f"{name} = null")
                else:
                    parts.append(f"{name} = &{value.block}[{value.size}]")
            else:
                parts.append(f"{name} = {value}")
        return ", ".join(parts)


@dataclass
class Counterexample:
    function_name: str
    test_input: TestInput
    input_description: str
    src_outcomes: List[Outcome]
    tgt_outcome: Outcome

    def __str__(self) -> str:
        src = "; ".join(_describe_outcome(o) for o in self.src_outcomes)
        return (
            f"refinement failure in @{self.function_name} for "
            f"[{self.input_description}]: source gives {{{src}}} but "
            f"target gives {_describe_outcome(self.tgt_outcome)}"
        )


@dataclass
class TVResult:
    verdict: Verdict
    counterexample: Optional[Counterexample] = None
    inputs_checked: int = 0
    inconclusive_inputs: int = 0
    reason: str = ""

    @property
    def is_correct(self) -> bool:
        return self.verdict == Verdict.CORRECT


@dataclass
class RefinementConfig:
    max_inputs: int = semantic(48)
    max_nondet_runs: int = semantic(12)
    pointer_block_size: int = semantic(16)
    limits: ExecutionLimits = semantic(default_factory=ExecutionLimits)
    seed: int = semantic(0)
    # Drive whole input sets through struct-of-arrays batched plan runs
    # (repro.tv.batch) instead of one tree-walked run per (input, path).
    # Off = per-input ablation (--no-batched-exec).  Operational, so not
    # part of cache_key(): lane results are bit-identical to the
    # tree-walker's (locked by tests/test_batch_exec.py), so cached
    # results are shared.
    batched: bool = operational(True)

    def validate(self) -> "RefinementConfig":
        """Reject settings no check can run with (``ValueError``): a
        negative seed, or no inputs at all — which would verify any
        pair, miscompiled or not."""
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_inputs <= 0:
            raise ValueError(f"max_inputs must be positive, got {self.max_inputs}")
        return self

    def cache_key(self) -> tuple:
        """A hashable key covering every semantic field (see
        :mod:`repro.config`): every knob a verdict depends on.

        Two :func:`check_refinement` calls with equal source/target
        fingerprints and equal cache keys produce the same
        :class:`TVResult`, which is what makes verify-verdict
        memoization sound (see :mod:`repro.fuzz.memo`).
        """
        return semantic_key(self)


# ---------------------------------------------------------------------------
# Preprocessing support check (paper §III-A).
# ---------------------------------------------------------------------------


_I1 = IntType(1)
_VOID = VoidType()


def check_function_supported(function: Function) -> Optional[str]:
    """Why the validator cannot handle this function, or None if it can."""
    if function.function_type.is_vararg:
        return "vararg function"
    for argument in function.arguments:
        if not (argument.type.IS_INTEGER or argument.type.IS_POINTER):
            return f"unsupported parameter type {argument.type}"
        if argument.type.IS_INTEGER and argument.type.width > 64:
            return "integer parameter wider than 64 bits"
    if not (
        function.return_type.IS_VOID
        or function.return_type.IS_INTEGER
        or function.return_type.IS_POINTER
    ):
        return f"unsupported return type {function.return_type}"
    # Types the parser accepts but the verifier rejects: neither engine
    # runs them faithfully, so fail closed with a reason instead of
    # crashing or answering.  With batch blocks compiled on first entry,
    # this and the batch build's scan are the only gates.
    return_type = function.return_type
    for block in function.blocks:
        for inst in block.instructions:
            kind = inst.KIND
            if kind == "binop" or kind == "cast":
                source = inst.operands[0].type
                if not (source.IS_INTEGER and inst.type.IS_INTEGER):
                    return f"{inst.opcode} from {source} to {inst.type}"
                if kind == "cast" and (
                    source.width <= inst.type.width
                    if inst.opcode == "trunc"
                    else source.width >= inst.type.width
                ):
                    return f"{inst.opcode} from {source} to {inst.type}"
            elif kind == "select":
                if inst.operands[0].type is not _I1:
                    return f"select condition of type {inst.operands[0].type}"
            elif kind == "switch":
                if not inst.operands[0].type.IS_INTEGER:
                    return f"switch on a value of type {inst.operands[0].type}"
            elif kind == "ret":
                operands = inst.operands
                returned = operands[0].type if operands else _VOID
                if returned is not return_type:
                    return f"ret {returned} in a function returning {return_type}"
            elif kind == "load" or kind == "alloca" or kind == "gep":
                if kind == "load":
                    accessed = inst.type
                elif kind == "alloca":
                    accessed = inst.allocated_type
                else:
                    accessed = inst.source_type
                    for index in inst.operands[1:]:
                        if not index.type.IS_INTEGER:
                            return f"getelementptr index of type {index.type}"
                if not accessed.IS_FIRST_CLASS:
                    return f"{inst.opcode} of unsized type {accessed}"
            elif kind == "call" and inst.callee.name.startswith("llvm."):
                if lookup_intrinsic(inst.callee.name) is None:
                    return f"unknown intrinsic {inst.callee.name}"
                for argument in inst.args:
                    if not argument.type.IS_INTEGER:
                        return (f"{inst.callee.name} argument of type "
                                f"{argument.type}")
    return None


# ---------------------------------------------------------------------------
# Input generation.
# ---------------------------------------------------------------------------


def generate_inputs(
    function: Function,
    config: RefinementConfig,
    pool: Optional[ConstantPool] = None,
) -> List[TestInput]:
    """Concrete argument vectors: exhaustive when small, sampled otherwise.

    ``pool`` is ``ConstantPool(function)`` when the caller already built it.
    """
    rng = random.Random(config.seed ^ 0x5EED)
    if pool is None:
        pool = ConstantPool(function)
    per_arg: List[List[object]] = []
    for arg_index, argument in enumerate(function.arguments):
        if argument.type.IS_INTEGER:
            per_arg.append(_int_candidates(argument.type.width, pool, rng))
        elif argument.type.IS_POINTER:
            per_arg.append(_pointer_candidates(function, arg_index, config, rng))
        else:
            per_arg.append([0])

    if not per_arg:
        return [TestInput(())]

    total = 1
    for candidates in per_arg:
        total *= len(candidates)
    if total <= config.max_inputs:
        return [TestInput(tuple(combo)) for combo in itertools.product(*per_arg)]

    inputs: List[TestInput] = []
    seen = set()
    # Corner sweep: co-indexed walk ensures every candidate appears at
    # least once before random sampling fills the budget.
    longest = max(len(c) for c in per_arg)
    for i in range(min(longest, config.max_inputs // 2)):
        combo = tuple(candidates[i % len(candidates)] for candidates in per_arg)
        if combo not in seen:
            seen.add(combo)
            inputs.append(TestInput(combo))
    while len(inputs) < config.max_inputs:
        combo = tuple(rng.choice(candidates) for candidates in per_arg)
        if combo in seen:
            # Random duplicates are fine to skip; bail if space is tiny.
            if len(seen) >= total:
                break
            continue
        seen.add(combo)
        inputs.append(TestInput(combo))
    return inputs


# Integer arguments this narrow are enumerated; wider ones are sampled
# around this many of the function's literal constants.
_EXHAUSTIVE_WIDTH = 4
_POOL_CONSTANTS = 8

# Input sets are shared between all functions generate_inputs cannot
# tell apart: _input_key is exactly what the generators below read, so
# the mutants of one seed function, which mostly keep its signature and
# its first few constants, reuse one set.  Key and generators change
# together (tests/test_refine.py checks the key over mutator output).
INPUT_CACHE_SIZE = 256


class TVCaches:
    """What refinement checks reuse across calls: plans
    (:mod:`repro.tv.compile`), input sets and execution counters.  A
    fuzzing driver owns one per job, so no job sees another's; a
    :func:`check_refinement` call without one gets a fresh one."""

    __slots__ = ("plans", "inputs", "stats")

    def __init__(self) -> None:
        self.plans = PlanCache()
        self.inputs = LRUCache(INPUT_CACHE_SIZE)
        self.stats = BatchStats()


def _input_key(
    function: Function, config: RefinementConfig, pool: ConstantPool
) -> tuple:
    arguments = []
    by_width: Dict[int, tuple] = {}  # arguments mostly share a width
    for argument in function.arguments:
        if argument.type.IS_INTEGER:
            width = argument.type.width
            constants = by_width.get(width)
            if constants is None:
                constants = by_width[width] = (
                    tuple(pool.values_for_width(width)[:_POOL_CONSTANTS])
                    if width > _EXHAUSTIVE_WIDTH
                    else ()
                )
            arguments.append((width, constants))
        elif argument.type.IS_POINTER:
            attributes = argument.attributes
            arguments.append(
                (
                    argument.name,
                    attributes.get_int("dereferenceable") or 0,
                    attributes.has("noalias"),
                    attributes.has("nonnull"),
                )
            )
        else:
            arguments.append(None)
    # Only the three config fields the generators read: deriving the
    # whole cache_key() on every lookup would cost more than it saves.
    return (tuple(arguments), config.seed, config.max_inputs, config.pointer_block_size)


def _inputs_for(
    function: Function, config: RefinementConfig, cache: LRUCache
) -> Tuple[TestInput, ...]:
    pool = ConstantPool(function)
    key = _input_key(function, config, pool)
    inputs = cache.get(key)
    if inputs is None:
        inputs = tuple(generate_inputs(function, config, pool))
        cache.put(key, inputs)
    return inputs


def _int_candidates(width: int, pool: ConstantPool, rng: random.Random) -> List[int]:
    mask = (1 << width) - 1
    if width <= _EXHAUSTIVE_WIDTH:
        return list(range(1 << width))
    values = list(interesting_values(width))
    for constant in pool.values_for_width(width)[:_POOL_CONSTANTS]:
        for delta in (-1, 0, 1):
            values.append((constant + delta) & mask)
    for _ in range(6):
        values.append(rng.getrandbits(width))
    unique: List[int] = []
    seen = set()
    for value in values:
        value &= mask
        if value not in seen:
            seen.add(value)
            unique.append(value)
    return unique


def _pointer_candidates(
    function: Function,
    arg_index: int,
    config: RefinementConfig,
    rng: random.Random,
) -> List[PointerInput]:
    argument = function.arguments[arg_index]
    size = config.pointer_block_size
    dereferenceable = argument.attributes.get_int("dereferenceable") or 0
    size = max(size, dereferenceable)
    arg_name = argument.name or str(arg_index)
    contents_a = tuple(rng.randrange(256) for _ in range(size))
    contents_b = tuple((7 * i + 3) & 0xFF for i in range(size))
    candidates = [
        PointerInput(f"arg:{arg_name}", size, contents_a),
        PointerInput(f"arg:{arg_name}", size, contents_b),
    ]
    # Aliasing: point at the block of an earlier pointer argument, which is
    # what load/store optimizations get wrong.
    for earlier_index in range(arg_index):
        earlier = function.arguments[earlier_index]
        if (
            earlier.type.IS_POINTER
            and not argument.attributes.has("noalias")
            and not earlier.attributes.has("noalias")
        ):
            earlier_name = earlier.name or str(earlier_index)
            candidates.append(PointerInput(f"arg:{earlier_name}", 0, ()))
            break
    if not argument.attributes.has("nonnull") and not dereferenceable:
        candidates.append(PointerInput("", 0, ()))
    return candidates


# ---------------------------------------------------------------------------
# Execution → behavior sets.
# ---------------------------------------------------------------------------


def _prepare_input(function: Function, test_input: TestInput):
    """Lower one test input to (runtime args, memory blocks, observable).

    The result is reusable across runs and across both sides of a
    refinement check: ``blocks`` holds ``(id, size, contents)`` tuples
    that are re-added to the (reset) arena before every run, and the
    interpreter copies ``runtime_args`` before executing.
    """
    runtime_args: List[RuntimeValue] = []
    observable: List[str] = []
    blocks: List[Tuple[str, int, Tuple[int, ...]]] = []
    created = set()
    for argument, value in zip(function.arguments, test_input.args):
        if isinstance(value, PointerInput):
            if value.is_null():
                runtime_args.append(NULL_POINTER)
            else:
                if value.block not in created:
                    created.add(value.block)
                    blocks.append((value.block, value.size, value.contents))
                    observable.append(value.block)
                runtime_args.append(Pointer(value.block, 0))
        else:
            runtime_args.append(value)
    return runtime_args, blocks, observable


def _enumerate_outcomes(
    interpreter: Interpreter,
    function: Function,
    runtime_args,
    blocks,
    observable,
    config: RefinementConfig,
) -> Tuple[List[Outcome], bool]:
    """Walk the nondeterminism tree for one input, reusing ``interpreter``
    as the arena: each run resets it in place (fresh oracle, cleared
    memory and counters) instead of allocating a new interpreter+memory
    pair per path — the per-run allocations the old ``_materialize``
    paid on every single execution."""
    outcomes: List[Outcome] = []
    seen = set()
    path: Optional[List[int]] = []
    runs = 0
    exhausted = True
    while path is not None:
        if runs >= config.max_nondet_runs:
            exhausted = False
            break
        oracle = PathOracle(path)
        interpreter.reset(oracle)
        memory = interpreter.memory
        for block_id, size, contents in blocks:
            memory.add_block(block_id, size, list(contents))
        outcome = _run_once(interpreter, function, runtime_args, observable)
        runs += 1
        if oracle.domain_truncated:
            # Some choice domain was sampled (wide undef, frozen poison,
            # undef memory): the enumerated set under-approximates the
            # true behavior set even if the tree is fully walked.
            exhausted = False
        if outcome not in seen:
            seen.add(outcome)
            outcomes.append(outcome)
        path = advance_path(oracle.taken, oracle.domain_sizes)
    return outcomes, exhausted


def behavior_set(
    function: Function,
    test_input: TestInput,
    module: Module,
    config: RefinementConfig,
) -> Tuple[List[Outcome], bool]:
    """All observed outcomes for one input, plus an exhaustiveness flag."""
    interpreter = Interpreter(module, None, config.limits)
    runtime_args, blocks, observable = _prepare_input(function, test_input)
    return _enumerate_outcomes(
        interpreter, function, runtime_args, blocks, observable, config
    )


def _run_once(
    interpreter: Interpreter,
    function: Function,
    runtime_args,
    observable: List[str],
) -> Outcome:
    try:
        value = interpreter.run(function, runtime_args)
    except UBError as ub:
        return Outcome("ub", detail=ub.reason)
    except StepLimitExceeded:
        return Outcome("timeout")
    snapshot = interpreter.memory.snapshot(observable)
    memory = tuple(sorted(snapshot.items()))
    return Outcome("ok", value=value, memory=memory)


def _enumerate_all_batched(
    runner: BatchRunner,
    function: Function,
    program,
    prepared,
    config: RefinementConfig,
):
    """Batched analog of one ``_enumerate_outcomes`` call per input.

    Round ``r`` drives every still-pending input's ``r``-th
    nondeterminism path through a single struct-of-arrays plan walk
    (one lane per input).  Each lane keeps its own :class:`PathOracle`,
    so the per-input path tree, dedup order, run budget, and
    truncated-domain accounting replicate the scalar loop exactly —
    only the grouping of runs into plan walks changes.  Returns one
    ``(outcomes, exhausted)`` pair per input, in input order.

    A program without lane state consults no oracle, so its first path
    is its whole tree: one round, exhausted, with no oracle at all.
    """
    count = len(prepared)
    if config.max_nondet_runs <= 0:
        # The scalar loop exhausts its budget before the first run.
        return [([], False) for _ in range(count)]
    if not program.lane_state and prepared:
        results = runner.run_batch(
            function, program, [lane + (None,) for lane in prepared]
        )
        return [
            ([Outcome(status, value, memory, detail)], True)
            for status, value, memory, detail, _steps in results
        ]
    outcomes: List[List[Outcome]] = [[] for _ in range(count)]
    seen = [set() for _ in range(count)]
    exhausted = [True] * count
    paths: List[Optional[List[int]]] = [[] for _ in range(count)]
    runs = [0] * count
    pending = list(range(count))
    while pending:
        oracles = [PathOracle(paths[index]) for index in pending]
        lanes = [
            prepared[index] + (oracle,) for index, oracle in zip(pending, oracles)
        ]
        results = runner.run_batch(function, program, lanes)
        next_pending = []
        for position, input_index in enumerate(pending):
            status, value, memory, detail, _steps = results[position]
            outcome = Outcome(status, value=value, memory=memory, detail=detail)
            runs[input_index] += 1
            oracle = oracles[position]
            if oracle.domain_truncated:
                exhausted[input_index] = False
            if outcome not in seen[input_index]:
                seen[input_index].add(outcome)
                outcomes[input_index].append(outcome)
            path = advance_path(oracle.taken, oracle.domain_sizes)
            if path is None:
                continue
            if runs[input_index] >= config.max_nondet_runs:
                exhausted[input_index] = False
                continue
            paths[input_index] = path
            next_pending.append(input_index)
        pending = next_pending
    return list(zip(outcomes, exhausted))


# ---------------------------------------------------------------------------
# Refinement between outcomes.
# ---------------------------------------------------------------------------


def value_refines(tgt_value: object, src_value: object) -> bool:
    """May the target produce ``tgt_value`` where the source produced
    ``src_value``?  Poison in the source is refined by anything."""
    if src_value is POISON:
        return True
    if tgt_value is POISON:
        return False
    return tgt_value == src_value


def _byte_refines(tgt_byte: object, src_byte: object) -> bool:
    if src_byte is _POISON_BYTE or src_byte is UNDEF_BYTE:
        return True
    if tgt_byte is _POISON_BYTE or tgt_byte is UNDEF_BYTE:
        return False
    return tgt_byte == src_byte


def memory_refines(tgt_memory, src_memory) -> bool:
    src_blocks = dict(src_memory)
    for block_id, tgt_bytes in tgt_memory:
        src_bytes = src_blocks.get(block_id)
        if src_bytes is None or len(src_bytes) != len(tgt_bytes):
            return False
        for tgt_byte, src_byte in zip(tgt_bytes, src_bytes):
            if not _byte_refines(tgt_byte, src_byte):
                return False
    return True


def outcome_refines(tgt: Outcome, src: Outcome) -> bool:
    if src.is_ub():
        return True
    if tgt.is_ub():
        return False
    if src.is_timeout() or tgt.is_timeout():
        # Not comparable; handled by the caller as inconclusive.
        return False
    return value_refines(tgt.value, src.value) and memory_refines(
        tgt.memory, src.memory
    )


# ---------------------------------------------------------------------------
# Top-level checks.
# ---------------------------------------------------------------------------


class _Side:
    """One function of the pair, with the plan that runs it batched."""

    __slots__ = ("function", "module", "plan")

    def __init__(
        self,
        function: Function,
        module: Optional[Module],
        fp_cache: Optional[Dict[int, str]],
        plans: PlanCache,
    ) -> None:
        self.function = function
        self.module = module
        # The plan is looked up now: its identity and step bound decide
        # what has to run at all, and it caches the batch program.
        self.plan = (
            None if function.is_declaration() else plans.plan_for(function, fp_cache)
        )


def _engine(src: _Side, tgt: _Side, config: RefinementConfig, stats: BatchStats):
    """The callable ``(side, prepared inputs) -> [(outcomes, exhausted)]``
    that enumerates either side's behavior sets.

    Batched mode drives whole input sets through one struct-of-arrays
    plan walk per nondeterminism round, both sides on one lane arena; if
    the batch compiler declines either side, or in the ablation mode,
    each input is tree-walked on its own instead (results are identical
    by contract).
    """
    if config.batched:
        programs = {
            side: batch_program_for(side.plan, side.function) for side in (src, tgt)
        }
        if None in programs.values():
            stats.scalar_fallbacks += 1
        else:
            runner = BatchRunner(src.module, config.limits, stats)

            def run_batched(side: _Side, prepared):
                runner.rebind(side.module)
                return _enumerate_all_batched(
                    runner, side.function, programs[side], prepared, config
                )

            return run_batched

    def run_scalar(side: _Side, prepared):
        # One arena per side, reused across all inputs and paths.
        interp = Interpreter(side.module, None, config.limits)
        return [
            _enumerate_outcomes(interp, side.function, *lane, config)
            for lane in prepared
        ]

    return run_scalar


# What the comparison loop sees for a target input that was never run.
_NOT_RUN: Tuple[List[Outcome], bool] = ([], False)


def _source_first(
    src: _Side, tgt: _Side, inputs, config: RefinementConfig, stats: BatchStats
):
    """Both sides' behavior sets per input, executing only what a verdict
    can depend on.  Returns ``(src_results, tgt_results)``, or None when
    nothing needs to run because the check is CORRECT as it stands.

    Three exact rules (DESIGN §6 has the arguments):

    * the source runs first, and the target only on inputs where no
      source behavior is UB or a timeout — the comparison loop reads
      target outcomes for no other input;
    * when both sides resolved to the *same* plan object (equal
      ``plan_key``: closure fingerprint, local names, declaration
      attributes) the target would replay the source's runs step for
      step, so the source's behaviors stand in for it;
    * and if that shared plan cannot exhaust the step budget, every
      input would compare a behavior set with itself: no run at all.
    """
    same_plan = src.plan is not None and tgt.plan is src.plan
    if same_plan:
        stats.same_plan += 1
        bound = src.plan.step_bound
        limits = config.limits
        # The two ways a run times out: the step budget, and the call
        # depth check every call — the root's at depth 0 included — makes.
        if (
            bound is not None
            and bound <= limits.max_steps
            and limits.max_call_depth >= 0
        ):
            stats.static_skips += 1
            return None
    # Arity matches (checked by the caller) and the runtime values depend
    # only on the test input, so one prepared input serves both sides.
    prepared = [_prepare_input(src.function, test_input) for test_input in inputs]
    run = _engine(src, tgt, config, stats)
    src_results = run(src, prepared)
    if same_plan:
        return src_results, src_results
    needed = [
        index
        for index, (outcomes, _) in enumerate(src_results)
        if all(outcome.status == "ok" for outcome in outcomes)
    ]
    stats.target_inputs_pruned += len(prepared) - len(needed)
    tgt_results = [_NOT_RUN] * len(prepared)
    for index, result in zip(needed, run(tgt, [prepared[i] for i in needed])):
        tgt_results[index] = result
    return src_results, tgt_results


def check_refinement(
    src_function: Function,
    tgt_function: Function,
    src_module: Optional[Module] = None,
    tgt_module: Optional[Module] = None,
    config: Optional[RefinementConfig] = None,
    tracer=None,
    fp_cache: Optional[Dict[int, str]] = None,
    caches: Optional[TVCaches] = None,
) -> TVResult:
    """Does ``tgt_function`` refine ``src_function``? (Bounded check.)

    ``tracer`` (a :class:`repro.obs.Tracer`) records one ``interp``
    span per check that executes anything — the interpreter-enumeration
    share of the verify stage.  ``fp_cache`` is the caller's
    ``id(function) -> fingerprint`` cache for both functions and their
    callees (see :func:`repro.ir.fingerprint.fingerprint_function`), so
    bodies the caller already hashed are not hashed again.  ``caches``
    holds the plans, input sets and counters to reuse and update (a
    fresh :class:`TVCaches` when None).
    """
    config = config or RefinementConfig()
    if caches is None:
        caches = TVCaches()
    src_module = src_module or src_function.parent
    tgt_module = tgt_module or tgt_function.parent

    reason = check_function_supported(src_function)
    if reason is None:
        reason = check_function_supported(tgt_function)
    if reason is not None:
        return TVResult(Verdict.UNSUPPORTED, reason=reason)
    if len(src_function.arguments) != len(tgt_function.arguments):
        return TVResult(Verdict.UNSUPPORTED, reason="signature changed")

    inputs = _inputs_for(src_function, config, caches.inputs)
    src = _Side(src_function, src_module, fp_cache, caches.plans)
    tgt = _Side(tgt_function, tgt_module, fp_cache, caches.plans)
    traced = tracer is not None and tracer.enabled
    begin = time.perf_counter() if traced else 0.0
    behaviors = _source_first(src, tgt, inputs, config, caches.stats)
    if behaviors is None:
        return TVResult(Verdict.CORRECT, inputs_checked=len(inputs))
    src_results, tgt_results = behaviors
    if traced:
        tracer.record(
            "interp",
            begin,
            time.perf_counter() - begin,
            function=src_function.name,
            inputs=len(inputs),
            src_outcomes=sum(len(o) for o, _ in src_results),
            tgt_outcomes=sum(len(o) for o, _ in tgt_results),
        )

    inconclusive = 0
    for test_input, (src_outcomes, src_exhausted), (tgt_outcomes, _) in zip(
        inputs, src_results, tgt_results
    ):
        if len(src_outcomes) == 1:
            # A lone source behavior (DESIGN §6): UB allows anything,
            # and a lone target behavior equal to an ok one refines it.
            src_outcome = src_outcomes[0]
            if src_outcome.status == "ub":
                continue
            if (
                len(tgt_outcomes) == 1
                and src_outcome.status == "ok"
                and tgt_outcomes[0] == src_outcome
            ):
                continue
        if any(o.is_ub() for o in src_outcomes):
            # Some source nondeterminism hits UB; under the refinement
            # ordering anything is then allowed for choices we cannot
            # separate, so skip conservatively.
            continue
        if any(o.is_timeout() for o in src_outcomes + tgt_outcomes):
            inconclusive += 1
            continue
        for tgt_outcome in tgt_outcomes:
            if any(
                outcome_refines(tgt_outcome, src_outcome)
                for src_outcome in src_outcomes
            ):
                continue
            if not src_exhausted:
                inconclusive += 1
                continue
            counterexample = Counterexample(
                function_name=src_function.name,
                test_input=test_input,
                input_description=test_input.describe(src_function),
                src_outcomes=src_outcomes,
                tgt_outcome=tgt_outcome,
            )
            return TVResult(
                Verdict.UNSOUND,
                counterexample,
                inputs_checked=len(inputs),
                inconclusive_inputs=inconclusive,
            )
    # No definite violation; inconclusive inputs are recorded but do not
    # downgrade the verdict (bounded TV is inherently incomplete).
    return TVResult(
        Verdict.CORRECT,
        inputs_checked=len(inputs),
        inconclusive_inputs=inconclusive,
    )


def check_module_refinement(
    src_module: Module,
    tgt_module: Module,
    config: Optional[RefinementConfig] = None,
) -> Dict[str, TVResult]:
    """Pair functions by name and check each definition."""
    results: Dict[str, TVResult] = {}
    for src_function in src_module.definitions():
        tgt_function = tgt_module.get_function(src_function.name)
        if tgt_function is None or tgt_function.is_declaration():
            results[src_function.name] = TVResult(
                Verdict.UNSUPPORTED, reason="function missing in target"
            )
            continue
        results[src_function.name] = check_refinement(
            src_function, tgt_function, src_module, tgt_module, config
        )
    return results


def _describe_outcome(outcome: Outcome) -> str:
    if outcome.is_ub():
        return f"UB({outcome.detail})" if outcome.detail else "UB"
    if outcome.is_timeout():
        return "timeout"
    from .domain import describe

    text = describe(outcome.value)
    if outcome.memory:
        text += " with memory effects"
    return text
