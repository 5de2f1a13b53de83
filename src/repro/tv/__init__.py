"""Translation validation: bounded refinement checking for the IR.

The public API mirrors how the paper uses Alive2: check one function pair
(:func:`check_refinement`) or a whole module pair
(:func:`check_module_refinement`), and use
:func:`check_function_supported` during preprocessing to drop functions
the validator cannot handle (paper §III-A).  A :class:`TVCaches` holds
what checks reuse across calls (plans, input sets, counters); the fuzzing
driver owns one per job, and a call without one gets a fresh one.
"""

from .batch import (
    BatchProgram,
    BatchRunner,
    BatchStats,
    batch_program_for,
    compile_batch_program,
)
from .compile import ExecutionPlan, PlanCache, compile_function
from .domain import NULL_POINTER, POISON, Pointer, RuntimeValue, is_poison
from .interp import ExecutionLimits, Interpreter, StepLimitExceeded, UBError
from .memory import Memory, MemoryFault, UNDEF_BYTE
from .oracle import DeterministicOracle, Oracle, PathOracle
from .refine import (
    Counterexample,
    Outcome,
    RefinementConfig,
    TestInput,
    TVCaches,
    TVResult,
    Verdict,
    behavior_set,
    check_function_supported,
    check_module_refinement,
    check_refinement,
    generate_inputs,
    outcome_refines,
    value_refines,
)

__all__ = [
    "NULL_POINTER",
    "POISON",
    "Pointer",
    "RuntimeValue",
    "is_poison",
    "BatchProgram",
    "BatchRunner",
    "BatchStats",
    "batch_program_for",
    "compile_batch_program",
    "ExecutionLimits",
    "ExecutionPlan",
    "Interpreter",
    "PlanCache",
    "StepLimitExceeded",
    "UBError",
    "Memory",
    "MemoryFault",
    "UNDEF_BYTE",
    "DeterministicOracle",
    "Oracle",
    "PathOracle",
    "Counterexample",
    "Outcome",
    "RefinementConfig",
    "TestInput",
    "TVCaches",
    "TVResult",
    "Verdict",
    "behavior_set",
    "check_function_supported",
    "check_module_refinement",
    "check_refinement",
    "compile_function",
    "generate_inputs",
    "outcome_refines",
    "value_refines",
]
