"""Shared test utilities."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ir import (Function, Module, parse_module, print_module,
                      verify_module)
from repro.opt import OptContext, PassManager
from repro.tv import (RefinementConfig, TVResult, Verdict, check_refinement)


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
    """The E11 / ``optimize_blocks`` shape: every block computes a short
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
