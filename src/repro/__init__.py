"""repro: a reproduction of "High-Throughput, Formal-Methods-Assisted
Fuzzing for LLVM" (Fan & Regehr, CGO 2024) as a self-contained Python
library.

Subpackages
-----------
``repro.ir``       -- LLVM-like IR: types, SSA values, parser, printer,
                      verifier.
``repro.analysis`` -- dominators, the two-level mutant overlay, known bits.
``repro.opt``      -- pass manager, InstCombine-style passes, seeded bugs.
``repro.tv``       -- bounded translation validation (the Alive2 analog).
``repro.mutate``   -- the alive-mutate mutation engine (the contribution).
``repro.fuzz``     -- in-process/discrete fuzzing harnesses + experiments.
``repro.cli``      -- alive-mutate / repro-opt / alive-tv command lines.

Quick start
-----------
>>> from repro import Session
>>> report = Session.from_file("test.ll").run(iterations=100)
>>> print(report.summary())

Campaigns (optionally sharded across worker processes):

>>> from repro import CampaignConfig, run_campaign
>>> print(run_campaign(CampaignConfig(workers=4)).table())
"""

import importlib

__version__ = "1.2.0"

# The public names resolve on first use (PEP 562), so ``import repro.ir``
# does not import ``repro.fuzz``.  Every name not listed here comes from
# ``repro.fuzz``.
_HOMES = {"MetricsRegistry": "obs", "Tracer": "obs", "Verdict": "tv"}

__all__ = [
    "__version__",
    # The curated front door: the Session facade, the driver it wraps,
    # the campaign engine, and the result/record types they hand back.
    "Session",
    "FuzzDriver", "FuzzConfig", "FuzzReport", "StageTimings",
    "CampaignConfig", "CampaignExecutor", "CampaignReport", "run_campaign",
    "Finding", "BugLog", "Verdict",
    "ConfigError",
    # Observability (repro.obs): per-run metrics and span tracing.
    "MetricsRegistry", "Tracer",
]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    package = importlib.import_module("." + _HOMES.get(name, "fuzz"), __name__)
    value = globals()[name] = getattr(package, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
