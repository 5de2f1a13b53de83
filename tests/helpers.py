"""Shared test utilities."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, List, Optional, Tuple

from repro.fuzz.feedback import bug_feature
from repro.ir import (Function, Module, parse_module, print_module,
                      verify_module)
from repro.mutate import Mutator
from repro.opt import OptContext, OptimizerCrash, PassManager
from repro.tv import (ExecutionLimits, Interpreter, PathOracle, PlanCache,
                      RefinementConfig, StepLimitExceeded, TVResult, UBError,
                      Verdict, check_function_supported, check_refinement)
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


def assert_lanes_match(module, function, inputs, limits=None, max_rounds=8,
                       stats=None):
    """Drive ``inputs`` through the batch engine and the tree-walker
    across the whole nondeterminism tree (one batched run per round) and
    require bit-identical 5-tuples plus identical oracle bookkeeping.
    Returns the number of compared lanes (0 when the batch compiler
    declined the function); the batches are counted in ``stats``."""
    limits = limits or ExecutionLimits()
    program = batch_program_for(PlanCache().plan_for(function), function)
    if program is None:
        return 0
    runner = BatchRunner(module, limits, stats)
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


# -- the reference fuzzing loop ------------------------------------------------
#
# What the driver's memos, copy-on-write clones and function-major
# optimization must agree with: every iteration deep-clones the mutant,
# runs the whole module through the pipeline pass by pass, and validates
# every target afresh, with nothing cached between iterations.


@dataclass
class ReferenceIteration:
    """One reference iteration: finding keys ``(seed, kind, function,
    bug_ids)``, the coverage features, the inconclusive inputs, and the
    mutation operators applied."""

    findings: List[tuple] = field(default_factory=list)
    features: FrozenSet[str] = frozenset()
    inconclusive: int = 0
    applied: List[str] = field(default_factory=list)


def reference_targets(module: Module, config) -> List[str]:
    """The functions the driver's preprocessing keeps, decided on a
    whole-module pipeline run over a deep clone."""
    candidates = [function for function in module.definitions()
                  if check_function_supported(function) is None]
    optimized = module.clone()
    ctx = OptContext(config.enabled_bugs)
    try:
        PassManager([config.pipeline], ctx).run(optimized)
    except OptimizerCrash:
        return [function.name for function in candidates]
    targets = []
    for function in candidates:
        target = optimized.get_function(function.name)
        if target is None or target.is_declaration():
            continue
        result = check_refinement(function, target, module, optimized,
                                  config.tv)
        if result.verdict == Verdict.UNSOUND and not ctx.triggered_bugs:
            continue
        targets.append(function.name)
    return targets


def reference_iteration(mutant: Module, seed: int, targets, config
                        ) -> ReferenceIteration:
    """Optimize a deep clone of ``mutant`` and validate every target."""
    optimized = mutant.clone()
    ctx = OptContext(config.enabled_bugs)
    try:
        PassManager([config.pipeline], ctx).run(optimized)
    except OptimizerCrash as crash:
        return ReferenceIteration(
            findings=[(seed, "crash", "", (crash.bug_id,))],
            features=frozenset({bug_feature(crash.bug_id)}))
    outcome = ReferenceIteration(features=frozenset(ctx.stats) | frozenset(
        bug_feature(bug) for bug in ctx.triggered_bugs))
    for name in targets:
        source = mutant.get_function(name)
        target = optimized.get_function(name)
        if source is None or target is None or target.is_declaration():
            continue
        result = check_refinement(source, target, mutant, optimized,
                                  config.tv)
        outcome.inconclusive += result.inconclusive_inputs
        if result.verdict == Verdict.UNSOUND:
            outcome.findings.append((seed, "miscompilation", name,
                                     tuple(sorted(ctx.triggered_bugs))))
    return outcome


def reference_run(text: str, config, iterations: int
                  ) -> Tuple[List[str], List[ReferenceIteration]]:
    """The reference loop over seeds ``base_seed ..``: its targets and
    one :class:`ReferenceIteration` per seed.  The mutator works on a
    private deep clone of the seed module, so nothing is shared with
    any driver."""
    module = parsed(text)
    targets = reference_targets(module, config)
    mutator = Mutator(module.clone(),
                      replace(config.mutator, only_functions=targets))
    runs = []
    for seed in range(config.base_seed, config.base_seed + iterations):
        mutant, record = mutator.create_mutant(seed)
        run = reference_iteration(mutant, seed, targets, config)
        run.applied = [operator for _, operator in record.applied]
        runs.append(run)
    return targets, runs


def reference_findings(runs: List[ReferenceIteration]) -> List[tuple]:
    return [key for run in runs for key in run.findings]


def driver_findings(findings) -> List[tuple]:
    """Driver findings in :class:`ReferenceIteration` form."""
    return [(f.seed, f.kind, f.function, tuple(f.bug_ids))
            for f in findings]
