"""Differential tests for batched (struct-of-arrays) execution.

The batched runner must be a pure performance layer: for every lane it
has to reproduce the scalar interpreter's results *bit for bit* —
status, return value (including poison), observable memory, UB detail
strings, and exact step counts — across the whole nondeterminism tree.
These tests drive arbitrary compiled plans and input batches through
both paths and compare lane by lane, then check the refinement- and
driver-level invariance contracts (`RefinementConfig.batched` /
``--no-batched-exec`` may change speed, never findings or metrics).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import FuzzConfig, FuzzDriver, corpus_modules
from repro.ir import parse_module
from repro.mutate import Mutator, MutatorConfig
from repro.opt import OptContext, PassManager
from repro.tv import (
    POISON,
    ExecutionLimits,
    Interpreter,
    PathOracle,
    Pointer,
    RefinementConfig,
    StepLimitExceeded,
    UBError,
    check_function_supported,
    check_refinement,
    reset_global_plan_cache,
)
from repro.tv.batch import (
    BatchRunner,
    BatchUnsupported,
    _BatchContext,
    batch_program_for,
    compile_batch_program,
    global_batch_stats,
)
from repro.tv.oracle import advance_path
from repro.tv.refine import _inputs_for, _prepare_input

from helpers import parsed


# ---------------------------------------------------------------------------
# Lane-by-lane comparison harness.
# ---------------------------------------------------------------------------


def _scalar_reference(module, function, lanes, limits):
    """Per-lane (status, value, memory, detail, steps) via the scalar
    arena — the ground truth ``run_batch`` must reproduce exactly."""
    interp = Interpreter(module, None, limits, compiled=True)
    results = []
    for runtime_args, blocks, observable, oracle in lanes:
        interp.reset(oracle)
        for block_id, size, contents in blocks:
            interp.memory.add_block(block_id, size, list(contents))
        try:
            value = interp.run(function, runtime_args)
        except UBError as ub:
            results.append(("ub", None, (), ub.reason, interp._steps))
            continue
        except StepLimitExceeded:
            results.append(("timeout", None, (), "", interp._steps))
            continue
        snapshot = interp.memory.snapshot(observable)
        memory = tuple(sorted(snapshot.items()))
        results.append(("ok", value, memory, "", interp._steps))
    return results


def assert_lanes_match(module, function, inputs, limits=None, max_rounds=8):
    """Drive ``inputs`` through both executors across the whole
    nondeterminism tree (one batched run per round, scalar lanes as the
    oracle) and require bit-identical 5-tuples plus identical oracle
    bookkeeping.  Returns the number of compared lanes (0 when the
    batch compiler declined the function)."""
    limits = limits or ExecutionLimits()
    interp = Interpreter(module, None, limits, compiled=True)
    program = batch_program_for(interp.prepare(function), function)
    if program is None:
        return 0
    runner = BatchRunner(module, limits)
    prepared = [_prepare_input(function, test_input) for test_input in inputs]
    paths = [[] for _ in inputs]
    pending = list(range(len(inputs)))
    compared = 0
    for _ in range(max_rounds):
        if not pending:
            break
        scalar_oracles = [PathOracle(list(paths[i])) for i in pending]
        batch_oracles = [PathOracle(list(paths[i])) for i in pending]
        scalar = _scalar_reference(
            module,
            function,
            [prepared[i] + (o,) for i, o in zip(pending, scalar_oracles)],
            limits,
        )
        batched = runner.run_batch(
            function,
            program,
            [prepared[i] + (o,) for i, o in zip(pending, batch_oracles)],
        )
        for position, lane in enumerate(pending):
            assert batched[position] == scalar[position], (
                f"@{function.name} lane {lane} path {paths[lane]}: "
                f"batched={batched[position]!r} scalar={scalar[position]!r}"
            )
            s_oracle = scalar_oracles[position]
            b_oracle = batch_oracles[position]
            assert b_oracle.taken == s_oracle.taken
            assert b_oracle.domain_sizes == s_oracle.domain_sizes
            assert b_oracle.domain_truncated == s_oracle.domain_truncated
        compared += len(pending)
        next_pending = []
        for position, lane in enumerate(pending):
            oracle = scalar_oracles[position]
            path = advance_path(oracle.taken, oracle.domain_sizes)
            if path is not None:
                paths[lane] = path
                next_pending.append(lane)
        pending = next_pending
    return compared


def check_text(text, limits=None, max_inputs=12):
    """Run every supported definition of an IR snippet through the
    harness; the batch compiler must accept at least one function."""
    module = parsed(text)
    config = RefinementConfig(max_inputs=max_inputs)
    total = 0
    for function in module.definitions():
        if check_function_supported(function) is not None:
            continue
        inputs = _inputs_for(function, config)
        total += assert_lanes_match(module, function, inputs, limits=limits)
    assert total > 0, "batch compiler declined every function"
    return total


# ---------------------------------------------------------------------------
# Targeted edge cases: UB details, poison, divergence, steps.
# ---------------------------------------------------------------------------


class TestLaneBitEquality:
    def test_division_ub_details(self):
        # Division UB carries a reason string; lanes that trap must
        # report the same detail (and step count) as scalar runs.
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
        splits_before = global_batch_stats().divergence_splits
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
        """)
        assert global_batch_stats().divergence_splits > splits_before

    def test_loop_step_counts(self):
        # A data-dependent loop: per-lane step counts differ and must
        # match the scalar interpreter exactly.
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
        # count at the trap point must equal the scalar one.
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
        # Calls leave the columnar fast path; the per-lane scalar
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
        # lane-for-lane with the scalar interpreter.
        pairs = corpus_modules(4, seed=seed % 1000 + 1)
        module = pairs[seed % len(pairs)][1]
        mutant, _record = Mutator(module, MutatorConfig(max_mutations=3)).create_mutant(
            seed
        )
        config = RefinementConfig(max_inputs=6, seed=seed % 7)
        for function in mutant.definitions():
            if check_function_supported(function) is not None:
                continue
            inputs = _inputs_for(function, config)
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
                mutant, function, _inputs_for(function, config)
            )

    def test_wide_batch_of_256_lanes(self):
        # Two i8 arguments give a sampled set of max_inputs lanes in one
        # batch; traps, poison and divergence all occur among them.
        module = parsed(WIDE_BATCH_FUNCTION)
        function = module.get_function("wide")
        inputs = _inputs_for(function, RefinementConfig(max_inputs=256))
        assert len(inputs) == 256
        stateless_before = global_batch_stats().stateless_lanes
        assert assert_lanes_match(module, function, inputs) == 256
        assert global_batch_stats().stateless_lanes == stateless_before + 256
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
        scalar = _scalar_reference(module, function, lanes, ExecutionLimits())
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
        scalar = _scalar_reference(module, function, lanes, ExecutionLimits())
        assert batched == scalar
        assert batched[0][2] == (("arg:p", (1, 2, 3, 4)),)

    def test_depth_limit_still_times_out(self):
        module = parsed("define i32 @f(i32 %x) {\n  ret i32 %x\n}")
        function = module.get_function("f")
        program = compile_batch_program(function)
        limits = ExecutionLimits(max_call_depth=-1)
        lanes = [([5], [], [], PathOracle([]))]
        batched = BatchRunner(module, limits).run_batch(function, program, lanes)
        assert batched == _scalar_reference(module, function, lanes, limits)
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

    def test_batched_requires_compiled(self):
        # compiled=False forces the scalar path even with batched=True;
        # verdicts still agree and no batches run.
        function, target = _pair("mul i32 %x, 3", "mul i32 3, %x")
        batches_before = global_batch_stats().batches
        config = RefinementConfig(max_inputs=4, compiled=False, batched=True)
        result = check_refinement(function, target, config=config)
        assert result.verdict.value == "correct"
        assert global_batch_stats().batches == batches_before

    def test_unsupported_side_falls_back_to_scalar(self, monkeypatch):
        # If the batch compiler declines either side the whole check
        # silently drops to per-input scalar enumeration (counted as a
        # scalar fallback) with identical results.
        # (A target equal to the source would share its plan and never
        # reach an engine: see tests/test_refine_source_first.py.)
        function, target = _pair("xor i32 %x, 9", "xor i32 9, %x")
        config = RefinementConfig(max_inputs=4)
        baseline = check_refinement(function, target, config=config)

        def refuse(_function):
            raise BatchUnsupported("forced by test")

        reset_global_plan_cache()
        monkeypatch.setattr("repro.tv.batch.compile_batch_program", refuse)
        fallbacks_before = global_batch_stats().scalar_fallbacks
        fallback = check_refinement(function, target, config=config)
        assert global_batch_stats().scalar_fallbacks == fallbacks_before + 1
        assert _result_key(fallback) == _result_key(baseline)
        reset_global_plan_cache()


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
        reset_global_plan_cache()
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
        reset_global_plan_cache()
        batched_driver, _ = self._run(True)
        scalar_driver, _ = self._run(False)
        assert batched_driver.metrics.counter("exec.batch.batches") > 0
        assert batched_driver.metrics.counter("exec.batch.lanes") > 0
        assert scalar_driver.metrics.counter("exec.batch.batches") == 0
        assert scalar_driver.metrics.counter("exec.batch.lanes") == 0

    def test_stateless_lanes_are_harvested_outside_deterministic(self):
        # DRIVER_SEED has no memory, undef or call, so most of its
        # mutants run stateless; the counter stays out of deterministic().
        reset_global_plan_cache()
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
