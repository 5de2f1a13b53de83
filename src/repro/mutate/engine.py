"""The mutation engine (paper §III).

:class:`Mutator` owns a parsed module, preprocesses every function once
(dominator tree, constant pool, shufflable ranges — §III-A), and then
produces mutants: each :meth:`create_mutant` call clones the in-memory IR,
applies one or more randomly-selected mutation operators per function
through the two-level analysis overlay (§III-B), and returns the mutated
module together with the seed that reproduces it (§III-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import time

from ..analysis.overlay import MutantOverlay, OriginalFunctionInfo
from ..config import semantic
from ..ir.function import Function
from ..ir.module import Module
from ..ir.verifier import collect_function_errors
from ..obs import NULL_TRACER
from .mutations import DEFAULT_WEIGHTS, MUTATIONS
from .rng import MutationRNG


@dataclass
class MutatorConfig:
    """Tuning knobs for the engine."""

    # How many mutations to apply to each function (inclusive range).
    min_mutations: int = semantic(1)
    max_mutations: int = semantic(3)
    # Which operators are in play (None = all of §IV).
    enabled_mutations: Optional[Sequence[str]] = semantic(None)
    # Run the IR verifier on every mutant (the 100%-valid property; slow,
    # so campaigns may disable it and rely on the test suite's guarantee).
    # Semantic: an invalid mutant turns into an error instead of a run.
    verify_mutants: bool = semantic(False)
    # Restrict mutation to these function names (None = all definitions).
    only_functions: Optional[Sequence[str]] = semantic(None)
    # Analysis strategy (the paper §III-B ablation): "two-level" reuses the
    # original function's immutable analyses through the overlay;
    # "recompute" forces a fresh dominator tree per mutant.
    overlay_mode: str = semantic("two-level")

    def mutation_names(self) -> List[str]:
        if self.enabled_mutations is None:
            return list(MUTATIONS)
        unknown = set(self.enabled_mutations) - set(MUTATIONS)
        if unknown:
            raise ValueError(f"unknown mutations: {sorted(unknown)}")
        return list(self.enabled_mutations)


@dataclass
class MutantRecord:
    """What happened while creating one mutant (for logging/replay)."""

    seed: int
    applied: List[Tuple[str, str]] = field(default_factory=list)  # (fn, op)
    # How many definitions the clone deep-copied: only the mutation
    # targets (the clone is copy-on-write).
    functions_copied: int = 0

    def dirty_functions(self) -> set:
        """Names of functions at least one operator actually changed."""
        return {fn for fn, _ in self.applied}

    def describe(self) -> str:
        ops = ", ".join(f"{op}@{fn}" for fn, op in self.applied) or "none"
        return f"seed={self.seed} [{ops}]"


class MutantInvalidError(Exception):
    """A mutant failed IR verification (must never happen; see tests)."""

    def __init__(self, record: MutantRecord, errors: List[str]) -> None:
        super().__init__(f"{record.describe()}: {'; '.join(errors)}")
        self.record = record
        self.errors = errors


class Mutator:
    """Produces valid mutants of one module, repeatably."""

    def __init__(self, module: Module,
                 config: Optional[MutatorConfig] = None,
                 tracer=None) -> None:
        self.module = module
        self.config = config or MutatorConfig()
        # Span tracing (repro.obs): per-clone and per-operator spans when
        # enabled; the null tracer costs one attribute check otherwise.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # §III-A preprocessing: per-function analyses, computed once.
        self._infos: Dict[str, OriginalFunctionInfo] = {}
        for function in module.definitions():
            if self._targeted(function):
                self._infos[function.name] = OriginalFunctionInfo(function)
        # Per-iteration invariants hoisted out of create_mutant: operator
        # validation and the weights list never change between seeds.
        self._names = self.config.mutation_names()
        self._weights = [DEFAULT_WEIGHTS.get(name, 1) for name in self._names]

    def _targeted(self, function: Function) -> bool:
        only = self.config.only_functions
        return only is None or function.name in only

    @property
    def target_names(self) -> List[str]:
        return list(self._infos)

    # -- mutant creation ------------------------------------------------------

    def create_mutant(self, seed: int,
                      operators: Optional[Sequence[str]] = None
                      ) -> Tuple[Module, MutantRecord]:
        """Clone + mutate; deterministic in ``(seed, operators)``.

        ``operators`` restricts this call to the given mutation classes
        (a feedback scheduler pins one class per iteration); None keeps
        the engine's weighted draw over its configured classes.
        """
        if operators is None:
            names = self._names
            weights = self._weights
        else:
            unknown = set(operators) - set(MUTATIONS)
            if unknown:
                raise ValueError(f"unknown mutations: {sorted(unknown)}")
            names = list(operators)
            weights = [DEFAULT_WEIGHTS.get(name, 1) for name in names]
        rng = MutationRNG(seed)
        record = MutantRecord(seed=seed)
        tracer = self.tracer
        # Copy-on-write: declarations and untargeted definitions are
        # shared with the seed module; only the targets are deep-copied.
        mutable_only = set(self._infos)
        if tracer.enabled:
            begin = time.perf_counter()
            mutant_module = self.module.clone(mutable_only=mutable_only)
            tracer.record("mutate.clone", begin,
                          time.perf_counter() - begin, seed=seed)
        else:
            mutant_module = self.module.clone(mutable_only=mutable_only)
        record.functions_copied = len(mutable_only)

        for function_name, info in self._infos.items():
            mutant_function = mutant_module.get_function(function_name)
            if mutant_function is None or mutant_function.is_declaration():
                continue
            overlay = MutantOverlay(mutant_function, info)
            recompute = self.config.overlay_mode == "recompute"
            count = rng.randint(self.config.min_mutations,
                                self.config.max_mutations)
            applied = 0
            attempts = 0
            while applied < count and attempts < count * 6:
                attempts += 1
                if recompute:
                    # Ablation mode: no two-level caching — treat every
                    # analysis as stale before each mutation, like a tool
                    # that conservatively recomputes instead of overlaying.
                    overlay.invalidate_cfg()
                name = _weighted_choice(rng, names, weights)
                if tracer.enabled:
                    begin = time.perf_counter()
                    changed = MUTATIONS[name](overlay, rng)
                    tracer.record("mutate.op." + name, begin,
                                  time.perf_counter() - begin,
                                  function=function_name, changed=changed)
                else:
                    changed = MUTATIONS[name](overlay, rng)
                if changed:
                    overlay.pristine = False
                    record.applied.append((function_name, name))
                    applied += 1

        if self.config.verify_mutants:
            errors: List[str] = []
            shared = mutant_module.shared_names()
            for function in mutant_module.definitions():
                if function.name in shared:
                    continue  # immutable views of already-verified originals
                errors.extend(collect_function_errors(function))
            if errors:
                raise MutantInvalidError(record, errors)
        return mutant_module, record

    def recreate_mutant(self, seed: int) -> Module:
        """Replay a logged seed (the paper's save-on-demand workflow)."""
        mutant, _ = self.create_mutant(seed)
        return mutant


def _weighted_choice(rng: MutationRNG, names: Sequence[str],
                     weights: Sequence[int]) -> str:
    total = sum(weights)
    pick = rng.randint(1, total)
    for name, weight in zip(names, weights):
        pick -= weight
        if pick <= 0:
            return name
    return names[-1]
