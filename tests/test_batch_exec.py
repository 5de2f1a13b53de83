"""Differential tests for batched (struct-of-arrays) execution.

The batched runner must be a pure performance layer: for every lane it
has to reproduce the reference tree-walker's results *bit for bit* —
status, return value (including poison), observable memory, UB detail
strings, and exact step counts — across the whole nondeterminism tree.
These tests drive arbitrary programs and input batches through both
engines and compare lane by lane, then check the refinement- and
driver-level invariance contracts (`RefinementConfig.batched` /
``--no-batched-exec`` may change speed, never findings or metrics).
"""

import gc
import weakref
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import FuzzConfig, FuzzDriver, corpus_modules, generate_corpus
from repro.ir import parse_module
from repro.mutate import Mutator, MutatorConfig
from repro.opt import OptContext, PassManager
from repro.tv import (
    POISON,
    ExecutionLimits,
    Interpreter,
    PathOracle,
    Pointer,
    PlanCache,
    RefinementConfig,
    StepLimitExceeded,
    UBError,
    check_function_supported,
    TVCaches,
    Verdict,
    check_refinement,
)
from repro.tv.batch import (
    BatchRunner,
    BatchStats,
    BatchUnsupported,
    _BatchCompiler,
    _BatchContext,
    batch_program_for,
    compile_batch_program,
)
from repro.tv.oracle import advance_path
from repro.tv.refine import (
    _enumerate_all_batched,
    _enumerate_outcomes,
    _inputs_for,
    _prepare_input,
)

from helpers import assert_lanes_match, parsed, reference_lanes


# ---------------------------------------------------------------------------
# Lane-by-lane comparison harness (assert_lanes_match: tests/helpers.py).
# ---------------------------------------------------------------------------


def inputs_for(function, config):
    """The input set ``check_refinement`` would run ``function`` on."""
    return _inputs_for(function, config, TVCaches().inputs)


def check_text(text, limits=None, max_inputs=12, stats=None):
    """Run every supported definition of an IR snippet through the
    harness; the batch compiler must accept at least one function."""
    module = parsed(text)
    config = RefinementConfig(max_inputs=max_inputs)
    total = 0
    for function in module.definitions():
        if check_function_supported(function) is not None:
            continue
        inputs = inputs_for(function, config)
        total += assert_lanes_match(
            module, function, inputs, limits=limits, stats=stats
        )
    assert total > 0, "batch compiler declined every function"
    return total


# ---------------------------------------------------------------------------
# Targeted edge cases: UB details, poison, divergence, steps.
# ---------------------------------------------------------------------------


class TestLaneBitEquality:
    def test_division_ub_details(self):
        # Division UB carries a reason string; lanes that trap must
        # report the same detail (and step count) as tree-walked runs.
        check_text("""
        define i32 @div(i32 %x, i32 %y) {
          %q = sdiv i32 %x, %y
          %r = srem i32 %q, %y
          %u = udiv i32 %r, %x
          ret i32 %u
        }
        """)

    def test_shift_poison_flows_to_return(self):
        check_text("""
        define i32 @shifty(i32 %x) {
          %wide = shl i32 %x, 33
          %mix = add i32 %wide, 1
          ret i32 %mix
        }
        """)

    def test_branch_divergence_regroups_lanes(self):
        # Lanes split by sign at the branch, re-merge at the join, and
        # the phi must pick per-lane values from the right predecessor.
        stats = BatchStats()
        check_text("""
        define i32 @abs(i32 %x) {
        entry:
          %neg = icmp slt i32 %x, 0
          br i1 %neg, label %flip, label %join
        flip:
          %flipped = sub i32 0, %x
          br label %join
        join:
          %r = phi i32 [ %flipped, %flip ], [ %x, %entry ]
          ret i32 %r
        }
        """, stats=stats)
        assert stats.divergence_splits > 0

    def test_loop_step_counts(self):
        # A data-dependent loop: per-lane step counts differ and must
        # match the tree-walker exactly.
        check_text("""
        define i32 @count(i32 %n) {
        entry:
          br label %loop
        loop:
          %i = phi i32 [ 0, %entry ], [ %next, %loop ]
          %next = add i32 %i, 1
          %done = icmp uge i32 %next, %n
          br i1 %done, label %exit, label %loop
        exit:
          ret i32 %i
        }
        """)

    def test_step_limit_timeout_counts(self):
        # With a tiny budget some lanes time out; the recorded step
        # count at the trap point must equal the tree-walked one.
        check_text(
            """
        define i32 @spin(i32 %n) {
        entry:
          br label %loop
        loop:
          %i = phi i32 [ 0, %entry ], [ %next, %loop ]
          %next = add i32 %i, 1
          %done = icmp uge i32 %next, %n
          br i1 %done, label %exit, label %loop
        exit:
          ret i32 %i
        }
        """,
            limits=ExecutionLimits(max_steps=9),
        )

    def test_memory_store_load_and_null(self):
        # Pointer inputs include null and aliasing candidates; faults
        # become UB with the same detail, stores stay observable.
        check_text("""
        define i32 @rw(ptr %p, ptr %q) {
          %a = load i32, ptr %p
          store i32 %a, ptr %q
          %b = load i32, ptr %q
          ret i32 %b
        }
        """)

    def test_undef_and_freeze_nondeterminism(self):
        # undef fans out through the per-lane oracles; every path of
        # the tree is compared, including truncated-domain accounting.
        check_text("""
        define i32 @fr(i32 %x) {
          %u = add i32 undef, %x
          %f = freeze i32 %u
          %r = add i32 %f, %f
          ret i32 %r
        }
        """)

    def test_intrinsics_and_alloca(self):
        check_text("""
        declare i32 @llvm.ctpop.i32(i32)
        declare i32 @llvm.smax.i32(i32, i32)

        define i32 @mix(i32 %x, i32 %y) {
          %slot = alloca i32
          store i32 %x, ptr %slot
          %v = load i32, ptr %slot
          %pop = call i32 @llvm.ctpop.i32(i32 %v)
          %m = call i32 @llvm.smax.i32(i32 %pop, i32 %y)
          ret i32 %m
        }
        """)

    def test_nested_calls_use_scalar_lane_interp(self):
        # Calls leave the columnar fast path; the per-lane tree-walking
        # interpreters must keep call counters and steps in sync.
        check_text("""
        define i32 @double(i32 %x) {
          %d = add i32 %x, %x
          ret i32 %d
        }

        define i32 @outer(i32 %x) {
          %a = call i32 @double(i32 %x)
          %b = call i32 @double(i32 %a)
          ret i32 %b
        }
        """)

    def test_switch_multiway_divergence(self):
        check_text("""
        define i32 @pick(i32 %x) {
        entry:
          switch i32 %x, label %other [
            i32 0, label %zero
            i32 1, label %one
          ]
        zero:
          ret i32 100
        one:
          ret i32 200
        other:
          %r = add i32 %x, 7
          ret i32 %r
        }
        """)


# ---------------------------------------------------------------------------
# Property test: arbitrary plans x input batches.
# ---------------------------------------------------------------------------


class TestArbitraryPlans:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_corpus_mutants_bit_identical(self, seed):
        # Arbitrary programs: corpus archetypes run through the
        # mutation engine, so plans cover the whole op inventory in
        # random combinations.  Every supported function must agree
        # lane-for-lane with the reference tree-walker.
        pairs = corpus_modules(4, seed=seed % 1000 + 1)
        module = pairs[seed % len(pairs)][1]
        mutant, _record = Mutator(module, MutatorConfig(max_mutations=3)).create_mutant(
            seed
        )
        config = RefinementConfig(max_inputs=6, seed=seed % 7)
        for function in mutant.definitions():
            if check_function_supported(function) is not None:
                continue
            inputs = inputs_for(function, config)
            assert_lanes_match(mutant, function, inputs)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_stateless_lanes_equal_forced_lane_state(self, seed):
        # Every program the compiler marks stateless must give the same
        # per-lane 5-tuples when it is run with an interpreter per lane.
        pairs = corpus_modules(4, seed=seed % 1000 + 1)
        module = pairs[seed % len(pairs)][1]
        mutant, _record = Mutator(module, MutatorConfig(max_mutations=3)).create_mutant(
            seed
        )
        config = RefinementConfig(max_inputs=6, seed=seed % 7)
        for function in mutant.definitions():
            if check_function_supported(function) is not None:
                continue
            assert_stateless_matches_forced(
                mutant, function, inputs_for(function, config)
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_outcome_dedup_order_is_first_seen(self, seed):
        # Both engines list an input's distinct outcomes in the order its
        # runs first produced them, as deduplicating through a set of
        # frozen-dataclass outcomes did.
        pairs = corpus_modules(4, seed=seed % 1000 + 1)
        module = pairs[seed % len(pairs)][1]
        mutant, _record = Mutator(module, MutatorConfig(max_mutations=3)).create_mutant(
            seed
        )
        config = RefinementConfig(max_inputs=6, seed=seed % 7)
        for function in mutant.definitions():
            if check_function_supported(function) is not None:
                continue
            assert_first_seen_order(mutant, function, config)

    def test_outcome_dedup_order_under_nondeterminism(self):
        # The undef choices 0, 1, 3, 0, 3, 2 repeat outcomes out of
        # order, with memory effects and a trap among them.
        module = parsed(NONDETERMINISTIC_FUNCTION)
        function = module.get_function("f")
        config = RefinementConfig(max_inputs=8)
        counts = assert_first_seen_order(module, function, config)
        assert max(counts) > 2

    def test_wide_batch_of_256_lanes(self):
        # Two i8 arguments give a sampled set of max_inputs lanes in one
        # batch; traps, poison and divergence all occur among them.
        module = parsed(WIDE_BATCH_FUNCTION)
        function = module.get_function("wide")
        inputs = inputs_for(function, RefinementConfig(max_inputs=256))
        assert len(inputs) == 256
        stats = BatchStats()
        assert assert_lanes_match(module, function, inputs, stats=stats) == 256
        assert stats.stateless_lanes == 256
        assert assert_stateless_matches_forced(module, function, inputs) == 256


WIDE_BATCH_FUNCTION = """
declare i8 @llvm.umax.i8(i8, i8)

define i8 @wide(i8 %x, i8 %y) {
entry:
  %s = add nsw i8 %x, %y
  %big = icmp ugt i8 %s, 100
  br i1 %big, label %div, label %join
div:
  %q = sdiv i8 %x, %y
  br label %join
join:
  %r = phi i8 [ %q, %div ], [ %s, %entry ]
  %m = call i8 @llvm.umax.i8(i8 %r, i8 3)
  ret i8 %m
}
"""


@dataclass(frozen=True)
class _DataclassOutcome:
    """An outcome as a frozen dataclass: the reference dedup order."""

    status: str
    value: object = None
    memory: tuple = ()
    detail: str = ""


NONDETERMINISTIC_FUNCTION = """
define i8 @f(i8 %x, ptr %p) {
entry:
  %u = and i8 undef, 3
  %v = xor i8 %u, %x
  %c = icmp eq i8 %v, 2
  br i1 %c, label %trap, label %store
trap:
  %q = udiv i8 %x, 0
  ret i8 %q
store:
  store i8 %u, ptr %p
  %r = and i8 %v, 1
  ret i8 %r
}
"""


def assert_first_seen_order(module, function, config):
    """Both engines' outcome lists for every input of ``function`` equal
    :func:`first_seen_outcomes`; returns each input's outcome count."""
    prepared = [
        _prepare_input(function, test_input)
        for test_input in inputs_for(function, config)
    ]
    expected = [
        first_seen_outcomes(module, function, lane, config) for lane in prepared
    ]
    interp = Interpreter(module, None, config.limits)
    scalar = [
        _enumerate_outcomes(interp, function, *lane, config)[0] for lane in prepared
    ]
    assert [list(map(tuple, outcomes)) for outcomes in scalar] == expected
    program = batch_program_for(PlanCache().plan_for(function), function)
    if program is not None:
        runner = BatchRunner(module, config.limits)
        batched = _enumerate_all_batched(runner, function, program, prepared, config)
        assert [list(map(tuple, outcomes)) for outcomes, _ in batched] == expected
    return [len(outcomes) for outcomes in expected]


def first_seen_outcomes(module, function, lane, config):
    """One prepared input's distinct outcomes as ``(status, value,
    memory, detail)`` tuples, deduplicated through a set of
    :class:`_DataclassOutcome` in first-seen order, over the runs the
    nondeterminism walk makes."""
    runtime_args, blocks, observable = lane
    interp = Interpreter(module, None, config.limits)
    seen = set()
    order = []
    path = []
    runs = 0
    while path is not None and runs < config.max_nondet_runs:
        oracle = PathOracle(path)
        interp.reset(oracle)
        for block_id, size, contents in blocks:
            interp.memory.add_block(block_id, size, list(contents))
        try:
            value = interp.run(function, runtime_args)
            memory = tuple(sorted(interp.memory.snapshot(observable).items()))
            outcome = _DataclassOutcome("ok", value, memory)
        except UBError as ub:
            outcome = _DataclassOutcome("ub", detail=ub.reason)
        except StepLimitExceeded:
            outcome = _DataclassOutcome("timeout")
        runs += 1
        if outcome not in seen:
            seen.add(outcome)
            order.append(outcome)
        path = advance_path(oracle.taken, oracle.domain_sizes)
    return [(o.status, o.value, o.memory, o.detail) for o in order]


def assert_stateless_matches_forced(module, function, inputs):
    """Run a stateless program twice — as compiled, and with
    ``lane_state`` forced on so every lane gets an interpreter — and
    require identical per-lane 5-tuples.  Returns the number of
    compared lanes (0 when the program has lane state)."""
    try:
        program = compile_batch_program(function)
    except BatchUnsupported:
        return 0
    if program.lane_state:
        return 0
    forced = compile_batch_program(function)
    forced.lane_state = True
    runner = BatchRunner(module)
    prepared = [_prepare_input(function, test_input) for test_input in inputs]
    stateless = runner.run_batch(
        function, program, [lane + (None,) for lane in prepared]
    )
    stateful = runner.run_batch(
        function, forced, [lane + (PathOracle([]),) for lane in prepared]
    )
    assert stateless == stateful, f"@{function.name}"
    return len(prepared)


# ---------------------------------------------------------------------------
# Which programs need per-lane state.
# ---------------------------------------------------------------------------


def _lane_state(body, params="i32 %x", declarations=""):
    module = parsed(
        f"{declarations}\ndefine i32 @f({params}) {{\n{body}\n}}"
    )
    return compile_batch_program(module.get_function("f")).lane_state


class TestLaneStateFlag:
    @pytest.mark.parametrize(
        "body, params, declarations",
        [
            ("  %r = add i32 %x, undef\n  ret i32 %r", "i32 %x", ""),
            ("  %r = freeze i32 %x\n  ret i32 %r", "i32 %x", ""),
            ("  %p = alloca i32\n  ret i32 %x", "i32 %x", ""),
            ("  %r = load i32, ptr null\n  ret i32 %r", "i32 %x", ""),
            ("  store i32 %x, ptr null\n  ret i32 %x", "i32 %x", ""),
            (
                "  %p = getelementptr i8, ptr null, i32 %x\n  ret i32 %x",
                "i32 %x",
                "",
            ),
            (
                "  %r = call i32 @ext(i32 %x)\n  ret i32 %r",
                "i32 %x",
                "declare i32 @ext(i32)",
            ),
            (
                "  %r = call i32 @g(i32 %x)\n  ret i32 %r",
                "i32 %x",
                "define i32 @g(i32 %y) {\n  ret i32 %y\n}",
            ),
            ("  ret i32 0", "ptr %p", ""),
            ("  ret i32 %x", "i32 dereferenceable(4) %x", ""),
        ],
        ids=[
            "undef",
            "freeze",
            "alloca",
            "load",
            "store",
            "gep",
            "external-call",
            "defined-call",
            "pointer-param",
            "dereferenceable-param",
        ],
    )
    def test_stateful_constructs_set_the_flag(self, body, params, declarations):
        assert _lane_state(body, params, declarations)

    def test_pure_control_and_arithmetic_is_stateless(self):
        body = """
entry:
  %a = add nsw i32 %x, 1
  %t = trunc i32 %a to i8
  %z = zext i8 %t to i32
  %s = sext i8 %t to i32
  %c = icmp slt i32 %z, %s
  %m = select i1 %c, i32 %z, i32 %s
  %u = call i32 @llvm.umax.i32(i32 %m, i32 %x)
  call void @llvm.assume(i1 true)
  br i1 %c, label %left, label %right
left:
  br label %join
right:
  switch i32 %u, label %join [
    i32 0, label %left
  ]
join:
  %r = phi i32 [ %a, %left ], [ %u, %right ]
  ret i32 %r
"""
        declarations = (
            "declare i32 @llvm.umax.i32(i32, i32)\ndeclare void @llvm.assume(i1)"
        )
        assert not _lane_state(body, "i32 noundef %x", declarations)


class TestEmptyBatch:
    SELF_LOOP = """
    define i32 @spin(i32 %x) {
    entry:
      br label %l
    l:
      br label %l
    }
    """

    def test_run_batch_with_no_lanes_returns(self):
        module = parsed(self.SELF_LOOP)
        function = module.get_function("spin")
        program = compile_batch_program(function)
        assert BatchRunner(module).run_batch(function, program, []) == []

    def test_execute_returns_on_an_empty_group(self):
        module = parsed(self.SELF_LOOP)
        program = compile_batch_program(module.get_function("spin"))
        ctx = _BatchContext(0, ExecutionLimits().max_steps)
        ctx.frame = [[] for _ in range(program.frame_size)]
        program.execute(ctx, [])
        assert ctx.divergence_splits == 0


# ---------------------------------------------------------------------------
# Blocks compile on first entry; the build only scans.
# ---------------------------------------------------------------------------


def scan_and_full_compile(function):
    """``lane_state`` as the build's scan sets it, and the flag the
    compile methods raise when every block is compiled."""
    compiler = _BatchCompiler(function)
    program = compiler.build()
    for shell in program.blocks:
        compiler.compile_block(shell)
    return program.lane_state, compiler.lane_state


def _supported_definitions(module):
    return [
        function
        for function in module.definitions()
        if check_function_supported(function) is None
    ]


UNREACHED_BLOCK = """
define i8 @f(i8 %x) {
entry:
  %c = icmp ult i8 %x, 0
  br i1 %c, label %never, label %done
never:
  %y = mul i8 %x, 3
  ret i8 %y
done:
  %r = add i8 %x, 1
  ret i8 %r
}
"""

SPLIT_WITH_CALL = """
declare i8 @ext(i8)

define i8 @f(i8 %x) {
entry:
  %c = icmp ult i8 %x, 100
  br i1 %c, label %small, label %big
small:
  %a = call i8 @ext(i8 %x)
  ret i8 %a
big:
  %b = mul i8 %x, 3
  ret i8 %b
}
"""


def _lanes(values):
    return [([value], [], [], PathOracle([])) for value in values]


class TestLazyBlocks:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_scan_matches_full_compile_on_mutants(self, seed):
        pairs = corpus_modules(4, seed=seed % 1000 + 1)
        module = pairs[seed % len(pairs)][1]
        mutant, _record = Mutator(module, MutatorConfig(max_mutations=3)).create_mutant(
            seed
        )
        for function in _supported_definitions(mutant):
            scanned, compiled = scan_and_full_compile(function)
            assert scanned == compiled, f"@{function.name}"

    def test_scan_matches_full_compile_on_the_corpus(self):
        flags = set()
        for _name, text in generate_corpus(48, 0):
            for function in _supported_definitions(parse_module(text)):
                try:
                    scanned, compiled = scan_and_full_compile(function)
                except BatchUnsupported:
                    continue
                assert scanned == compiled, f"@{function.name}"
                flags.add(scanned)
        assert flags == {True, False}

    def test_undef_phi_input_on_a_compiled_edge_sets_the_flag(self):
        module = parsed("""
define i32 @f(i32 %x) {
entry:
  br label %join
join:
  %r = phi i32 [ undef, %entry ]
  ret i32 %r
}
""")
        assert scan_and_full_compile(module.get_function("f")) == (True, True)

    def test_unreached_block_stays_uncompiled(self):
        module = parsed(UNREACHED_BLOCK)
        function = module.get_function("f")
        target = parsed(UNREACHED_BLOCK.replace("add i8 %x, 1", "sub i8 %x, -1"))
        caches = TVCaches()
        result = check_refinement(
            function,
            target.get_function("f"),
            config=RefinementConfig(max_inputs=16),
            caches=caches,
        )
        assert result.verdict == Verdict.CORRECT
        program = caches.plans.plan_for(function).batch_program
        entry, never, done = program.blocks
        assert entry.steps is not None and done.steps is not None
        assert never.steps is None
        lanes = _lanes([0, 1, 77, 255])
        batched = BatchRunner(module).run_batch(function, program, lanes)
        assert batched == reference_lanes(module, function, lanes, ExecutionLimits())
        assert never.steps is None

    def test_program_shared_by_plan_equal_functions(self):
        first = parsed(SPLIT_WITH_CALL)
        second = parsed(SPLIT_WITH_CALL)
        plans = PlanCache()
        plan = plans.plan_for(first.get_function("f"))
        assert plans.plan_for(second.get_function("f")) is plan
        program = batch_program_for(plan, first.get_function("f"))
        entry, small, big = program.blocks
        # First entries under the first function, then under the second.
        BatchRunner(first).run_batch(
            first.get_function("f"), program, _lanes([1, 2])
        )
        assert small.steps is not None and big.steps is None
        BatchRunner(second).run_batch(
            second.get_function("f"), program, _lanes([200])
        )
        assert big.steps is not None
        values = [0, 1, 99, 100, 150, 255]
        for module in (first, second):
            function = module.get_function("f")
            lanes = _lanes(values)
            batched = BatchRunner(module).run_batch(function, program, lanes)
            assert batched == reference_lanes(
                module, function, lanes, ExecutionLimits()
            )
        watched = [weakref.ref(first.get_function("f")),
                   weakref.ref(second.get_function("f"))]
        del first, second, module, function
        gc.collect()
        assert [ref() for ref in watched] == [None, None]
        assert all(shell.steps is not None for shell in program.blocks)

    def test_unreached_unsized_load_is_refused_at_build(self):
        module = parse_module("""
define i8 @f(i8 %x, ptr %p) {
entry:
  ret i8 %x
dead:
  load void, ptr %p
  ret i8 0
}
""")
        with pytest.raises(BatchUnsupported, match="no memory size for type void"):
            compile_batch_program(module.get_function("f"))

    def test_unreached_unsized_store_falls_back_to_scalar(self):
        # check_function_supported refuses unsized stores itself, so
        # check_refinement never builds this program; the build's own
        # refusal still holds, although no input would run the store.
        module = parse_module("""
define i8 @f(i8 %x, ptr %p) {
entry:
  %r = add i8 %x, 1
  ret i8 %r
dead:
  store label %dead, ptr %p
  ret i8 0
}
""")
        function = module.get_function("f")
        with pytest.raises(BatchUnsupported, match="no memory size for type label"):
            compile_batch_program(function)
        plan = PlanCache().plan_for(function)
        assert batch_program_for(plan, function) is None
        assert batch_program_for(plan, function) is None  # cached refusal
        assert check_function_supported(function) == "store of unsized type label"


class TestStatelessEntryChecks:
    def test_noundef_poison_argument_traps_like_the_scalar_path(self):
        module = parsed(
            "define i32 @f(i32 %x, i32 noundef %y) {\n"
            "  %r = add i32 %x, %y\n  ret i32 %r\n}"
        )
        function = module.get_function("f")
        program = compile_batch_program(function)
        assert not program.lane_state
        lanes = [
            ([1, 2], [], [], PathOracle([])),
            ([POISON, 2], [], [], PathOracle([])),
            ([1, POISON], [], [], PathOracle([])),
        ]
        batched = BatchRunner(module).run_batch(function, program, lanes)
        scalar = reference_lanes(module, function, lanes, ExecutionLimits())
        assert batched == scalar
        assert batched[2][3] == "poison passed to noundef arg %y"

    def test_observable_memory_keeps_the_arena(self):
        # A pointer input checked against a pointer-free signature (as
        # when two files disagree on a parameter type) still reports the
        # block in its memory snapshot, exactly like the scalar path.
        module = parsed("define i32 @f(i64 %p) {\n  ret i32 7\n}")
        function = module.get_function("f")
        program = compile_batch_program(function)
        assert not program.lane_state
        lanes = [
            ([Pointer("arg:p", 0)], [("arg:p", 4, (1, 2, 3, 4))], ["arg:p"], None)
        ]
        batched = BatchRunner(module).run_batch(function, program, lanes)
        scalar = reference_lanes(module, function, lanes, ExecutionLimits())
        assert batched == scalar
        assert batched[0][2] == (("arg:p", (1, 2, 3, 4)),)

    def test_depth_limit_still_times_out(self):
        module = parsed("define i32 @f(i32 %x) {\n  ret i32 %x\n}")
        function = module.get_function("f")
        program = compile_batch_program(function)
        limits = ExecutionLimits(max_call_depth=-1)
        lanes = [([5], [], [], PathOracle([]))]
        batched = BatchRunner(module, limits).run_batch(function, program, lanes)
        assert batched == reference_lanes(module, function, lanes, limits)
        assert batched[0][0] == "timeout"


# ---------------------------------------------------------------------------
# Refinement-level invariance: batched on/off is unobservable.
# ---------------------------------------------------------------------------


def _result_key(result):
    return (
        result.verdict.value,
        result.inputs_checked,
        result.inconclusive_inputs,
        str(result.counterexample),
    )


def _pair(source_op, target_op):
    """``@f`` computing ``source_op`` and a differently-written twin."""
    template = "define i32 @f(i32 %x) {{\n  %r = {}\n  ret i32 %r\n}}"
    return (
        parsed(template.format(source_op)).get_function("f"),
        parsed(template.format(target_op)).get_function("f"),
    )


class TestRefinementInvariance:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_verdicts_identical_across_modes(self, seed):
        pairs = corpus_modules(3, seed=seed % 500 + 1)
        module = pairs[seed % len(pairs)][1]
        optimized = module.clone()
        PassManager(["O2"], OptContext(("53252",))).run(optimized)
        for function in module.definitions():
            tgt = optimized.get_function(function.name)
            if tgt is None:
                continue
            results = {}
            for batched in (True, False):
                config = RefinementConfig(max_inputs=8, batched=batched)
                results[batched] = check_refinement(
                    function, tgt, module, optimized, config
                )
            assert _result_key(results[True]) == _result_key(results[False])

    def test_nondet_budget_zero_matches_scalar(self):
        # max_nondet_runs=0 exhausts the budget before the first run in
        # both modes: zero outcomes, marked non-exhaustive.
        function, target = _pair("add i32 %x, 1", "sub i32 %x, -1")
        results = {}
        for batched in (True, False):
            config = RefinementConfig(max_inputs=4, max_nondet_runs=0, batched=batched)
            results[batched] = check_refinement(function, target, config=config)
        assert _result_key(results[True]) == _result_key(results[False])

    def test_unsupported_side_falls_back_to_scalar(self, monkeypatch):
        # If the batch compiler declines either side the whole check
        # silently drops to per-input tree-walking (counted as a
        # scalar fallback) with identical results.
        # (A target equal to the source would share its plan and never
        # reach an engine: see tests/test_refine_source_first.py.)
        function, target = _pair("xor i32 %x, 9", "xor i32 9, %x")
        config = RefinementConfig(max_inputs=4)
        baseline = check_refinement(function, target, config=config)

        def refuse(_function):
            raise BatchUnsupported("forced by test")

        monkeypatch.setattr("repro.tv.batch.compile_batch_program", refuse)
        caches = TVCaches()
        fallback = check_refinement(function, target, config=config, caches=caches)
        assert caches.stats.scalar_fallbacks == 1
        assert _result_key(fallback) == _result_key(baseline)


# ---------------------------------------------------------------------------
# Operand order in the memory rules both engines share.
# ---------------------------------------------------------------------------


def assert_no_choice(text):
    """Every run of the one function in ``text`` ends before its first
    oracle choice, so a single batched round covers the whole tree."""
    module = parsed(text)
    (function,) = module.definitions()
    inputs = inputs_for(function, RefinementConfig(max_inputs=12))
    assert assert_lanes_match(module, function, inputs) == len(inputs)


def assert_modes_agree(source_text, target_text):
    """Batched and tree-walked checks of one pair give equal results,
    ``inconclusive_inputs`` included."""
    source, target = parsed(source_text), parsed(target_text)
    (function,) = source.definitions()
    results = [
        check_refinement(
            function,
            target.get_function(function.name),
            source,
            target,
            RefinementConfig(max_inputs=12, batched=batched),
        )
        for batched in (True, False)
    ]
    assert _result_key(results[0]) == _result_key(results[1])


class TestOperandOrder:
    """A store checks its pointer before resolving the stored value, and
    a GEP reads no index of a poison pointer and none after a poison
    index.  An ``undef`` operand resolved out of that order would make
    an oracle choice the reference walker does not, changing path
    counts and inconclusive inputs."""

    def test_store_of_undef_through_poison_pointer(self):
        source = """
        define void @f(ptr %p, i1 %c) {
          %q = select i1 %c, ptr %p, ptr poison
          store i8 undef, ptr %q
          ret void
        }
        """
        check_text(source)
        assert_modes_agree(source, source.replace("i8 undef", "i8 0"))
        assert_no_choice("""
        define void @f() {
          store i8 undef, ptr poison
          ret void
        }
        """)

    def test_gep_of_poison_pointer_with_undef_index(self):
        source = """
        define ptr @f(ptr %p, i1 %c) {
          %q = select i1 %c, ptr %p, ptr poison
          %g = getelementptr inbounds i8, ptr %q, i2 undef
          ret ptr %g
        }
        """
        check_text(source)
        assert_modes_agree(source, source.replace("i2 undef", "i2 0"))
        assert_no_choice("""
        define ptr @f() {
          %g = getelementptr inbounds i8, ptr poison, i2 undef
          ret ptr %g
        }
        """)

    def test_gep_poison_index_before_undef_index(self):
        source = """
        define ptr @f(ptr %p, i8 %x) {
          %i = add nuw i8 %x, 1
          %g = getelementptr i8, ptr %p, i8 %i, i2 undef
          ret ptr %g
        }
        """
        check_text(source)
        assert_modes_agree(source, source.replace("i2 undef", "i2 0"))
        assert_no_choice("""
        define ptr @f(ptr %p) {
          %g = getelementptr i8, ptr %p, i8 poison, i2 undef
          ret ptr %g
        }
        """)


# ---------------------------------------------------------------------------
# Driver-level invariance and the exec.batch.* counters.
# ---------------------------------------------------------------------------

DRIVER_SEED = """
define i32 @clamp(i32 %x, i32 %y) {
  %c = icmp ult i32 %x, 100
  %r = select i1 %c, i32 %x, i32 100
  %s = add i32 %r, %y
  ret i32 %s
}
"""


class TestDriverParity:
    def _run(self, batched):
        config = FuzzConfig(
            mutator=MutatorConfig(max_mutations=2),
            tv=RefinementConfig(max_inputs=8, batched=batched),
            enabled_bugs=("53252",),
        )
        driver = FuzzDriver(parse_module(DRIVER_SEED), config, file_name="batch.ll")
        report = driver.run(iterations=40)
        return driver, report

    def test_findings_and_metrics_identical(self):
        batched_driver, batched_report = self._run(True)
        scalar_driver, scalar_report = self._run(False)

        def keys(report):
            return [
                (f.seed, f.kind, f.function, tuple(f.bug_ids))
                for f in report.findings
            ]

        assert keys(batched_report) == keys(scalar_report)
        assert (
            batched_driver.metrics.deterministic()
            == scalar_driver.metrics.deterministic()
        )

    def test_batch_counters_track_modes(self):
        batched_driver, _ = self._run(True)
        scalar_driver, _ = self._run(False)
        assert batched_driver.metrics.counter("exec.batch.batches") > 0
        assert batched_driver.metrics.counter("exec.batch.lanes") > 0
        assert scalar_driver.metrics.counter("exec.batch.batches") == 0
        assert scalar_driver.metrics.counter("exec.batch.lanes") == 0

    def test_stateless_lanes_are_harvested_outside_deterministic(self):
        # DRIVER_SEED has no memory, undef or call, so most of its
        # mutants run stateless; the counter stays out of deterministic().
        driver, _ = self._run(True)
        metrics = driver.metrics
        stateless = metrics.counter("exec.batch.stateless_lanes")
        assert 0 < stateless <= metrics.counter("exec.batch.lanes")
        assert not any("stateless" in name for name in metrics.deterministic())


# ---------------------------------------------------------------------------
# CLI wiring.
# ---------------------------------------------------------------------------


class TestCliFlag:
    def test_alive_tv_flag_parses(self):
        from repro.cli.alive_tv import build_parser

        args = build_parser().parse_args(["a.ll", "b.ll", "--no-batched-exec"])
        assert args.no_batched_exec is True
        args = build_parser().parse_args(["a.ll", "b.ll"])
        assert args.no_batched_exec is False

    def test_alive_mutate_flag_parses(self):
        from repro.cli.alive_mutate import build_parser

        args = build_parser().parse_args(["seed.ll", "--no-batched-exec"])
        assert args.no_batched_exec is True


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
