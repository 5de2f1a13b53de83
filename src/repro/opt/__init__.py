"""The optimizer: pass manager, pipelines, passes, and seeded bugs."""

from . import passes  # noqa: F401  (registers all passes)
from .bugs import (SeededBug, all_bug_ids, all_bugs, bugs_by_id, crash_bugs,
                   get_bug, miscompilation_bugs)
from .context import OptContext, OptimizerCrash
from .pass_manager import (FunctionPass, PassManager, available_passes,
                           create_pass, optimize_module, register_pass,
                           replace_and_erase)
from .pipelines import PIPELINES, available_pipelines, expand
from .rewrite import RewriteRule, RuleIndex, rule
from .scan import SweepState

__all__ = [
    "SeededBug", "all_bug_ids", "all_bugs", "bugs_by_id", "crash_bugs",
    "get_bug", "miscompilation_bugs",
    "OptContext", "OptimizerCrash",
    "FunctionPass", "PassManager", "available_passes", "create_pass",
    "optimize_module", "register_pass", "replace_and_erase",
    "PIPELINES", "available_pipelines", "expand",
    "RewriteRule", "RuleIndex", "rule", "SweepState",
]
