"""Pass framework: function passes, the registry, and the pass manager.

Mirrors how the paper drives LLVM: a pipeline is named on the command line
(``-O2``, ``instcombine``, or a comma-separated list) and run over every
function in the module (§III-C).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..ir.values import Value
from .context import OptContext


class FunctionPass:
    """Base class: transform one function, report whether IR changed."""

    name = "<unnamed>"
    # The registry of the PassManager that created this pass, if any:
    # where a pass reports work counts that must stay out of ``ctx.stats``.
    metrics = None

    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<pass {self.name}>"


_REGISTRY: Dict[str, Callable[[], FunctionPass]] = {}


def register_pass(name: str):
    """Class decorator adding a pass to the registry."""
    def decorate(cls):
        cls.name = name
        _REGISTRY[name] = cls
        return cls
    return decorate


def create_pass(name: str) -> FunctionPass:
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(f"unknown pass {name!r} "
                         f"(available: {', '.join(sorted(_REGISTRY))})")
    return factory()


def available_passes() -> List[str]:
    return sorted(_REGISTRY)


def replace_and_erase(inst: Instruction, replacement: Value) -> None:
    """RAUW + erase: the standard way a rewrite retires an instruction."""
    inst.replace_all_uses_with(replacement)
    inst.erase_from_parent()


class PassManager:
    """Runs a sequence of function passes over a module.

    Every execution of one pass over one function funnels through
    :meth:`_apply`, which owns the cross-cutting bookkeeping: wall-clock
    accumulation into :attr:`pass_seconds`, ``optimize.pass.<name>.seconds``
    counters when a ``metrics`` registry is attached, one
    ``optimize.pass.<name>`` span per (pass, function) when a ``tracer``
    is enabled, and the ``pass.<name>.changed`` stat.
    """

    def __init__(self, pass_names: Sequence[str],
                 ctx: Optional[OptContext] = None,
                 tracer=None, metrics=None) -> None:
        from . import pipelines  # late import: pipelines needs the registry

        expanded: List[str] = []
        for name in pass_names:
            expanded.extend(pipelines.expand(name))
        self.pass_names = expanded
        self.ctx = ctx or OptContext()
        self.tracer = tracer
        self.metrics = metrics
        self.pass_seconds: Dict[str, float] = {}
        self._passes = [create_pass(name) for name in expanded]
        for function_pass in self._passes:
            function_pass.metrics = metrics

    def _apply(self, function_pass: FunctionPass, function: Function,
               ctx: OptContext) -> bool:
        """Run one pass over one function."""
        name = function_pass.name
        begin = time.perf_counter()
        try:
            pass_changed = function_pass.run_on_function(function, ctx)
        finally:
            elapsed = time.perf_counter() - begin
            self.pass_seconds[name] = \
                self.pass_seconds.get(name, 0.0) + elapsed
            if self.metrics is not None:
                self.metrics.count(f"optimize.pass.{name}.seconds", elapsed)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.record("optimize.pass." + name, begin, elapsed,
                          function=function.name, changed=pass_changed)
        if pass_changed:
            ctx.count(f"pass.{name}.changed")
        return pass_changed

    def run(self, module: Module) -> bool:
        """Run the full pipeline (pass-major); True if anything changed.

        Seeded crash bugs raise :class:`OptimizerCrash` out of this method,
        the analog of the optimizer process dying.
        """
        changed = False
        for function_pass in self._passes:
            for function in module.definitions():
                if self._apply(function_pass, function, self.ctx):
                    changed = True
        return changed

    def run_function(self, function: Function,
                     ctx: Optional[OptContext] = None) -> bool:
        """Run the full pipeline over one function (function-major order).

        Because every registered pass is a :class:`FunctionPass`, running
        all passes over function A and then all passes over function B
        produces the same IR as the pass-major :meth:`run` — this is what
        lets the memoized driver optimize (and cache) functions one at a
        time.  ``ctx`` overrides the manager's context for this call so
        per-function bug attribution stays separable.
        """
        ctx = ctx if ctx is not None else self.ctx
        changed = False
        for function_pass in self._passes:
            if self._apply(function_pass, function, ctx):
                changed = True
        return changed


def optimize_module(module: Module, pipeline: Union[str, Sequence[str]] = "O2",
                    ctx: Optional[OptContext] = None) -> OptContext:
    """Convenience wrapper: optimize in place, return the context."""
    names = [pipeline] if isinstance(pipeline, str) else list(pipeline)
    manager = PassManager(names, ctx)
    manager.run(module)
    return manager.ctx
