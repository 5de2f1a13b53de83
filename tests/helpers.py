"""Shared test utilities."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ir import (Function, Module, parse_module, print_module,
                      verify_module)
from repro.opt import OptContext, PassManager
from repro.tv import (ExecutionLimits, Interpreter, PathOracle,
                      RefinementConfig, StepLimitExceeded, TVResult, UBError,
                      Verdict, check_refinement, global_plan_cache)
from repro.tv.batch import BatchRunner, batch_program_for
from repro.tv.oracle import advance_path
from repro.tv.refine import _prepare_input


def parsed(text: str) -> Module:
    """Parse and verify a module."""
    module = parse_module(text)
    verify_module(module)
    return module


def single_function(text: str) -> Function:
    module = parsed(text)
    definitions = module.definitions()
    assert len(definitions) == 1
    return definitions[0]


def optimize(module: Module, pipeline: str = "O2",
             bugs: Tuple[str, ...] = ()) -> Tuple[Module, OptContext]:
    """Optimize a clone; returns (optimized module, context)."""
    optimized = module.clone()
    ctx = OptContext(bugs)
    PassManager([pipeline], ctx).run(optimized)
    return optimized, ctx


def refine_after(module: Module, pipeline: str = "O2",
                 bugs: Tuple[str, ...] = (),
                 max_inputs: int = 32,
                 function: Optional[str] = None) -> TVResult:
    """Optimize and validate a module's (sole or named) function."""
    optimized, _ = optimize(module, pipeline, bugs)
    verify_module(optimized)
    definitions = module.definitions()
    if function is None:
        assert len(definitions) == 1
        function = definitions[0].name
    return check_refinement(
        module.get_function(function), optimized.get_function(function),
        module, optimized, RefinementConfig(max_inputs=max_inputs))


def assert_sound(module: Module, pipeline: str = "O2",
                 function: Optional[str] = None) -> None:
    result = refine_after(module, pipeline, function=function)
    assert result.verdict == Verdict.CORRECT, str(result.counterexample)


def block_function(blocks: int = 40, ops_per_block: int = 6) -> str:
    """The ``optimize_blocks`` shape: every block computes a short
    chain from the arguments, so a rewrite's closure stays in its block."""
    ops = ("add", "sub", "xor", "and", "or", "mul")
    lines = ["define i32 @work(i32 %x, i32 %y) {", "entry:", "  br label %b0"]
    incoming = []
    for b in range(blocks):
        lines.append(f"b{b}:")
        prev = "%x" if b % 2 == 0 else "%y"
        for i in range(ops_per_block):
            constant = (2 * (b * ops_per_block + i) + 3) % 256
            lines.append(f"  %v{b}_{i} = {ops[(b + i) % len(ops)]} i32 "
                         f"{prev}, {constant}")
            prev = f"%v{b}_{i}"
        lines.append(f"  %c{b} = icmp slt i32 {prev}, {b}")
        following = f"b{b + 1}" if b + 1 < blocks else "out"
        lines.append(f"  br i1 %c{b}, label %{following}, label %out")
        incoming.append(f"[ {prev}, %b{b} ]")
    lines += ["out:", "  %r = phi i32 " + ", ".join(incoming),
              "  ret i32 %r", "}"]
    return "\n".join(lines) + "\n"


def round_trips(module: Module) -> bool:
    text = print_module(module)
    reparsed = parse_module(text)
    verify_module(reparsed)
    return print_module(reparsed) == text


def reference_lanes(module, function, lanes, limits):
    """Per-lane (status, value, memory, detail, steps) from the reference
    tree-walker — the ground truth ``BatchRunner.run_batch`` must
    reproduce exactly.  ``lanes`` are ``(runtime_args, blocks,
    observable, oracle)`` tuples, as ``run_batch`` takes them."""
    interp = Interpreter(module, None, limits)
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
    """Drive ``inputs`` through the batch engine and the tree-walker
    across the whole nondeterminism tree (one batched run per round) and
    require bit-identical 5-tuples plus identical oracle bookkeeping.
    Returns the number of compared lanes (0 when the batch compiler
    declined the function)."""
    limits = limits or ExecutionLimits()
    program = batch_program_for(global_plan_cache().plan_for(function), function)
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
        walk_oracles = [PathOracle(list(paths[i])) for i in pending]
        batch_oracles = [PathOracle(list(paths[i])) for i in pending]
        walked = reference_lanes(
            module, function,
            [prepared[i] + (o,) for i, o in zip(pending, walk_oracles)],
            limits)
        batched = runner.run_batch(
            function, program,
            [prepared[i] + (o,) for i, o in zip(pending, batch_oracles)])
        for position, lane in enumerate(pending):
            assert batched[position] == walked[position], (
                f"@{function.name} lane {lane} path {paths[lane]}: "
                f"batched={batched[position]!r} walked={walked[position]!r}")
            w_oracle = walk_oracles[position]
            b_oracle = batch_oracles[position]
            assert b_oracle.taken == w_oracle.taken
            assert b_oracle.domain_sizes == w_oracle.domain_sizes
            assert b_oracle.domain_truncated == w_oracle.domain_truncated
        compared += len(pending)
        next_pending = []
        for position, lane in enumerate(pending):
            oracle = walk_oracles[position]
            path = advance_path(oracle.taken, oracle.domain_sizes)
            if path is not None:
                paths[lane] = path
                next_pending.append(lane)
        pending = next_pending
    return compared
