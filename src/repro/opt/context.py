"""Optimization context: seeded-bug switches and pass statistics.

Every pass receives an :class:`OptContext`.  The context carries the set of
*enabled seeded bugs* — deliberately-wrong rule variants and over-strong
assertions modeled on the real LLVM bugs of the paper's Table I — plus
counters the benchmarks read.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Set


class OptimizerCrash(Exception):
    """Abnormal optimizer termination (assertion failure / segfault analog).

    Raised by seeded crash bugs; the fuzzing driver records it as a crash
    finding, mirroring how the paper counts "bugs leading to abnormal
    termination of the optimizer".
    """

    def __init__(self, bug_id: str, message: str) -> None:
        super().__init__(f"[bug {bug_id}] {message}")
        self.bug_id = bug_id
        self.message = message


class OptContext:
    """Shared state for one optimization run."""

    def __init__(self, enabled_bugs: Optional[Iterable[str]] = None) -> None:
        self.enabled_bugs: Set[str] = set(enabled_bugs or ())
        self.stats: Counter = Counter()
        # Bug ids whose injected code path actually executed this run.
        self.triggered_bugs: Set[str] = set()
        # The running scan pass's known-bits memo (None between passes).
        self.known_bits = None

    def bug_enabled(self, bug_id: str) -> bool:
        return bug_id in self.enabled_bugs

    def note_bug_trigger(self, bug_id: str) -> None:
        self.triggered_bugs.add(bug_id)

    def crash(self, bug_id: str, message: str) -> None:
        """Record and raise a seeded crash."""
        self.note_bug_trigger(bug_id)
        raise OptimizerCrash(bug_id, message)

    def count(self, stat: str, amount: int = 1) -> None:
        self.stats[stat] += amount
