"""Bounded LRU caches for the memoized fuzzing loop (paper §III-B).

The driver keeps two of these: an *optimize* cache mapping
``(pre-optimization function fingerprint, pipeline)`` to an
:class:`OptimizeEntry` (the optimized body to splice plus the bugs and
crash the pipeline produced), and a *verify* cache mapping
``(source closure fingerprint, target closure fingerprint, tv key)`` to
the :class:`~repro.tv.refine.TVResult` verdict to replay.  Both are
bounded :class:`~repro.tv.compile.LRUCache` maps (a segmented LRU; at
their default sizes they sit inside its probationary segment and
behave as plain LRUs) — eviction only ever costs extra recomputation,
never a missed finding, because cached results are replayed verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from ..ir.function import Function
from ..opt import OptimizerCrash
from ..tv.compile import LRUCache

__all__ = ["LRUCache", "OptimizeEntry"]


@dataclass
class OptimizeEntry:
    """What running the pipeline over one function produced.

    ``function`` is the optimized body to splice into future modules
    (None when the pipeline crashed), kept alive by the cache itself;
    ``fingerprint`` is its post-optimization structural hash (reused so
    splices never re-hash); ``triggered_bugs`` must be replayed into the
    iteration's :class:`~repro.opt.context.OptContext` on every hit so
    cache hits never mask bug attribution; ``crash`` is replayed as if
    the pipeline had crashed again; ``stats`` holds the per-function
    optimizer counters the pipeline run produced, replayed on hits so
    coverage feedback (see :mod:`repro.fuzz.feedback`) is identical with
    memoization on or off.
    """

    function: Optional[Function]
    fingerprint: str
    triggered_bugs: FrozenSet[str]
    crash: Optional[OptimizerCrash]
    stats: Dict[str, int] = field(default_factory=dict)
