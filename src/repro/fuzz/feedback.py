"""Coverage feedback: what the optimizer did with one mutant.

The paper's loop is feedback-blind — every mutant is drawn uniformly and
thrown away after verification.  This module defines the cheap structural
signal that makes the loop coverage-guided, the analog of IRFuzzer's
matcher-table coverage: :mod:`repro.opt` already counts every rewrite
rule that fires and every pass that changes a function into
``OptContext.stats`` (``instcombine.rule.<name>``, ``pass.<name>.changed``,
``gvn.cse``, ...), so the *feature set* of a run is simply the set of
counter keys it produced, plus one ``bug:<id>`` feature per seeded-bug
path it executed.  Collecting it costs nothing the optimizer was not
already paying.

* :class:`FeedbackMap` — the per-run map of feature → fire count;
* :class:`Feedback` — one iteration's feedback verdict as exposed on
  :attr:`FuzzDriver.last_feedback`: the features reached, which were
  novel, and whether the mutant entered the corpus;
* :class:`FeedbackConfig` — the single sub-config `FuzzConfig` and
  `CampaignConfig` take (``feedback=FeedbackConfig(enabled=True, ...)``);
* :class:`FeedbackStats` — aggregated corpus/coverage totals reported as
  first-class fields on fuzz, session, and campaign reports.

The feature space is memo-invariant by construction: optimize-cache hits
replay the stored per-function stats (see
:class:`repro.fuzz.memo.OptimizeEntry`), and crash iterations contribute
only their ``bug:<id>`` feature, which pass-major and function-major
execution agree on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from ..config import operational, semantic

__all__ = ["Feedback", "FeedbackConfig", "FeedbackMap", "FeedbackStats",
           "bug_feature"]

#: The prefix marking a seeded-bug-path feature (``bug:<issue id>``).
BUG_FEATURE_PREFIX = "bug:"

#: Scheduler names :class:`FeedbackConfig` accepts (see
#: :mod:`repro.fuzz.schedule`).
SCHEDULERS = ("bandit", "round-robin")


def bug_feature(bug_id: str) -> str:
    """The feature key for one executed seeded-bug path."""
    return BUG_FEATURE_PREFIX + bug_id


class FeedbackMap:
    """Per-run feedback: feature keys → fire counts.

    A thin, mergeable wrapper over a :class:`collections.Counter` whose
    keys are optimizer stat names and ``bug:<id>`` markers.  The *count*
    is informational (how hard a rule fired); admission and scheduling
    decisions use only the key set, so a rule firing 3 vs 30 times is
    the same feature.
    """

    def __init__(self, counts: Optional[Mapping[str, int]] = None) -> None:
        self.counts: Counter = Counter()
        if counts:
            self.counts.update(counts)

    def add_stats(self, stats: Mapping[str, int]) -> None:
        self.counts.update(stats)

    def add_bugs(self, bug_ids: Iterable[str]) -> None:
        for bug_id in bug_ids:
            self.counts[bug_feature(bug_id)] += 1

    def merge(self, other: "FeedbackMap") -> None:
        self.counts.update(other.counts)

    def features(self) -> FrozenSet[str]:
        return frozenset(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __repr__(self) -> str:
        return f"FeedbackMap({len(self.counts)} features)"


@dataclass(frozen=True)
class Feedback:
    """One iteration's feedback verdict (``FuzzDriver.last_feedback``).

    ``source`` is the mutation source the iteration drew from (``"seed"``
    or a corpus-entry fingerprint) and ``operator`` the mutation class —
    empty when scheduling is off.  ``counts`` keeps the fire counts for
    the curious; equality/novelty semantics live in the feature sets.
    """

    features: FrozenSet[str]
    new_features: FrozenSet[str]
    admitted: bool = False
    source: str = "seed"
    operator: str = ""
    counts: Mapping[str, int] = field(default_factory=dict)

    @property
    def novel(self) -> bool:
        return bool(self.new_features)


@dataclass
class FeedbackConfig:
    """The single knob block for coverage-guided fuzzing.

    ``scheduler=None`` means "the default scheduler when feedback is
    enabled" (the deterministic UCB1 bandit); naming one explicitly
    while ``enabled`` is False is rejected by :meth:`validate` — as is a
    ``corpus_dir`` without feedback — so a config cannot silently claim
    guidance it is not getting.
    """

    enabled: bool = semantic(False)
    # Directory for the per-driver corpus journal (None = in-memory only).
    # Operational: where the journal lands never changes what a job does.
    corpus_dir: Optional[str] = operational(None)
    # "bandit" (default) or "round-robin"; None = default when enabled.
    scheduler: Optional[str] = semantic(None)
    # Corpus distills back down to at most this many entries.
    max_corpus_size: int = semantic(64)

    def scheduler_name(self) -> str:
        return self.scheduler or "bandit"

    def validate(self) -> "FeedbackConfig":
        """Reject inconsistent combinations with :class:`ValueError`."""
        if self.scheduler is not None and not self.enabled:
            raise ValueError(
                f"feedback.scheduler={self.scheduler!r} requires "
                "feedback.enabled=True (a scheduler without feedback has "
                "no signal to act on)")
        if self.corpus_dir and not self.enabled:
            raise ValueError(
                f"feedback.corpus_dir={self.corpus_dir!r} requires "
                "feedback.enabled=True (nothing would ever be admitted)")
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown feedback.scheduler {self.scheduler!r} "
                f"(available: {', '.join(SCHEDULERS)})")
        if self.max_corpus_size < 1:
            raise ValueError("feedback.max_corpus_size must be >= 1, "
                             f"got {self.max_corpus_size}")
        return self


@dataclass
class FeedbackStats:
    """Aggregated coverage/corpus totals for reports.

    Per-driver these are exact; merged across drivers or campaign jobs
    they are sums over independent per-job corpora (feature spaces
    overlap between jobs, so ``features_covered`` reads as total
    coverage *work*, not a deduplicated global count).
    """

    features_covered: int = 0
    corpus_entries: int = 0
    admitted: int = 0
    distilled: int = 0
    new_features: int = 0
    draws: int = 0

    def merge(self, other: Optional["FeedbackStats"]) -> None:
        if other is None:
            return
        self.features_covered += other.features_covered
        self.corpus_entries += other.corpus_entries
        self.admitted += other.admitted
        self.distilled += other.distilled
        self.new_features += other.new_features
        self.draws += other.draws

    def to_dict(self) -> Dict[str, int]:
        return {
            "features_covered": self.features_covered,
            "corpus_entries": self.corpus_entries,
            "admitted": self.admitted,
            "distilled": self.distilled,
            "new_features": self.new_features,
            "draws": self.draws,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "FeedbackStats":
        return cls(**{key: int(data.get(key, 0)) for key in (
            "features_covered", "corpus_entries", "admitted", "distilled",
            "new_features", "draws")})
