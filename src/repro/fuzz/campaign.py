"""The bug-finding campaign (paper §V-A, Table I).

Enables the full seeded-bug registry, fuzzes a corpus with the in-process
driver, attributes findings to seeded bugs, and renders a Table-I-style
report: issue id, component, status, type, description, plus whether (and
after how many iterations) the campaign rediscovered each bug.

The campaign is a (corpus file × pipeline) job matrix.  Job execution and
sharding live in :mod:`repro.fuzz.parallel`; this module holds the
declarative configuration and the merged report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..mutate import MutatorConfig
from ..obs import MetricsRegistry
from ..opt.bugs import SeededBug, all_bug_ids, all_bugs
from ..tv import RefinementConfig
from .driver import ConfigError, FuzzConfig, StageTimings
from .feedback import FeedbackConfig, FeedbackStats
from .findings import Finding

# Seed-derivation contract: job ``i`` of the matrix fuzzes with driver
# base seed ``base_seed + i * JOB_SEED_STRIDE`` and refinement-input seed
# ``base_seed + i``.  The stride is a prime far larger than any per-job
# iteration budget, so the seed ranges of different jobs never overlap
# and a finding's (file, seed) pair identifies its job regardless of how
# the matrix was sharded across workers.
JOB_SEED_STRIDE = 1_000_003


def _default_fuzz_template() -> FuzzConfig:
    return FuzzConfig(mutator=MutatorConfig(max_mutations=3),
                      tv=RefinementConfig(max_inputs=16))


@dataclass
class CampaignConfig:
    corpus_size: int = 48
    corpus_seed: int = 0
    mutants_per_file: Optional[int] = 60
    # The paper ran two campaigns: LLVM's middle-end via -O2, and the
    # AArch64 backend (our codegen pass).  Each file is fuzzed under every
    # pipeline listed here.
    pipelines: Sequence[str] = ("O2", "backend", "O2+backend")
    base_seed: int = 0
    # Convenience shorthand for ``fuzz.tv.max_inputs`` (None = use the
    # template's value, which defaults to 16).
    max_inputs: Optional[int] = None
    enabled_bugs: Optional[Sequence[str]] = None   # None = all 33
    time_budget: Optional[float] = None             # per-file cap, seconds
    # Confirm each attribution by replaying the seed with ONLY that bug
    # enabled (the paper's re-run-with-same-seed triage workflow).
    confirm_attributions: bool = True
    # Worker processes for the job matrix.  1 = run on the calling
    # process (the exact sequential path; results are bit-identical to a
    # parallel run either way because merging is ordered by job index).
    workers: int = 1
    # Whole-campaign wall-clock cap, seconds.  On expiry no new jobs are
    # started; in-flight jobs are drained and merged, the rest are
    # counted in ``CampaignReport.skipped_jobs``.
    global_time_budget: Optional[float] = None
    # -- resilience knobs (all opt-in; defaults preserve the fast path) --
    # Per-job wall-clock deadline, seconds.  Enforced cooperatively at
    # the driver's stage boundaries; jobs with a deadline also run in
    # worker processes (even with workers=1), and a supervisor hard-kills
    # any worker that exceeds ``job_deadline * grace_factor`` and records
    # the job as a ``hang``.
    job_deadline: Optional[float] = None
    grace_factor: float = 2.0
    # Jobs that hang or kill their worker are retried with exponential
    # backoff (``retry_backoff * 2**attempt`` seconds) up to this many
    # times, then quarantined into ``CampaignReport.quarantined``.
    max_job_retries: int = 0
    retry_backoff: float = 0.25
    # Optional decorrelation jitter on the retry backoff: each delay is
    # stretched by up to ``retry_jitter`` of itself (a factor in
    # ``[1, 1 + retry_jitter)``), so a fleet of workers retrying the
    # same transient fault does not stampede in lockstep.  The jitter is
    # *seeded from the campaign fingerprint* (plus job index and attempt
    # number), so a re-run of the same campaign jitters identically —
    # reproducibility is preserved.  0.0 (the default) disables it and
    # keeps the exact historical delays.
    retry_jitter: float = 0.0
    # Directory for the campaign's checkpoint journal.  Each completed
    # shard is appended (fsync'd JSONL); ``execute(resume=True)`` skips
    # already-journaled jobs and merges their cached results.
    checkpoint_dir: Optional[str] = None
    # -- observability knobs (repro.obs; excluded from the checkpoint
    # fingerprint, so enabling them never invalidates completed work) --
    # Directory for per-job span traces (one JSONL file per job).
    # None = tracing off, which is the free path.
    trace_dir: Optional[str] = None
    # Keep one span in every 1/trace_sample (deterministic sampling).
    trace_sample: float = 1.0
    # Coverage-guided fuzzing for every job (see repro.fuzz.feedback).
    # None = use the fuzz template's own (disabled by default).  The
    # corpus_dir inside is an operational path knob and is excluded from
    # the checkpoint fingerprint, like trace_dir.
    feedback: Optional[FeedbackConfig] = None
    # Distributed execution (see repro.fuzz.dist): when set, execute()
    # runs as the *coordinator* of a multi-node campaign — the job
    # matrix is published to ``dist.queue_dir`` and fuzzed by external
    # ``NodeRunner`` processes under time-bounded leases; node loss is
    # handled by lease expiry + reclaim.  None = single-host execution.
    # Like checkpoint_dir/trace_dir, this is an operational knob and is
    # excluded from the campaign fingerprint.
    dist: Optional["DistConfig"] = None  # noqa: F821 — see repro.fuzz.dist
    # Per-job FuzzConfig template; each job gets a ``dataclasses.replace``
    # of it with the job's pipeline, seeds, and enabled bugs filled in.
    fuzz: FuzzConfig = field(default_factory=_default_fuzz_template)

    def enabled(self) -> List[str]:
        return list(self.enabled_bugs if self.enabled_bugs is not None
                    else all_bug_ids())

    def job_config(self, job_index: int, pipeline: str) -> FuzzConfig:
        """The per-job FuzzConfig (the seed-derivation contract above)."""
        tv = replace(self.fuzz.tv,
                     max_inputs=(self.max_inputs if self.max_inputs is not None
                                 else self.fuzz.tv.max_inputs),
                     seed=self.base_seed + job_index)
        return replace(self.fuzz,
                       pipeline=pipeline,
                       enabled_bugs=self.enabled(),
                       tv=tv,
                       base_seed=self.base_seed + job_index * JOB_SEED_STRIDE,
                       feedback=(self.feedback if self.feedback is not None
                                 else self.fuzz.feedback))

    def validate(self) -> "CampaignConfig":
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.corpus_size < 0:
            raise ConfigError(
                f"corpus_size must be >= 0, got {self.corpus_size}")
        if self.corpus_seed < 0 or self.base_seed < 0:
            raise ConfigError("corpus_seed and base_seed must be >= 0")
        if not self.pipelines:
            raise ConfigError("at least one pipeline is required")
        if self.global_time_budget is not None \
                and self.global_time_budget < 0:
            raise ConfigError("global_time_budget must be >= 0, "
                              f"got {self.global_time_budget}")
        if self.job_deadline is not None and self.job_deadline <= 0:
            raise ConfigError(
                f"job_deadline must be positive, got {self.job_deadline}")
        if self.grace_factor < 1.0:
            raise ConfigError(
                f"grace_factor must be >= 1, got {self.grace_factor}")
        if self.max_job_retries < 0:
            raise ConfigError("max_job_retries must be >= 0, "
                              f"got {self.max_job_retries}")
        if self.retry_backoff < 0:
            raise ConfigError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}")
        if self.retry_jitter < 0:
            raise ConfigError(
                f"retry_jitter must be >= 0, got {self.retry_jitter}")
        if self.dist is not None:
            self.dist.validate()
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ConfigError("trace_sample must be in [0, 1], "
                              f"got {self.trace_sample}")
        for pipeline in self.pipelines:
            self.job_config(0, pipeline).validate(
                iterations=self.mutants_per_file,
                time_budget=self.time_budget,
                require_budget=True)
        return self


@dataclass
class BugOutcome:
    bug: SeededBug
    found: bool = False
    first_file: str = ""
    first_seed: int = -1
    findings: int = 0


@dataclass
class ShardFailure:
    """A job whose worker died, hung, or raised — contained, not fatal.

    ``kind`` classifies the failure: ``"error"`` (the job raised),
    ``"hang"`` (deadline exceeded, cooperatively or via supervisor
    kill), ``"crash"`` (the worker process died), ``"node_lost"`` (a
    distributed campaign lost every node that leased the job — see
    :mod:`repro.fuzz.dist`), or ``"parse"`` (the seed file did not
    parse; these live in :attr:`CampaignReport.parse_failures`).
    """

    job_index: int
    file: str
    pipeline: str
    error: str
    kind: str = "error"


@dataclass
class QuarantinedJob:
    """A poison job retired after exhausting its retry budget.

    Carries everything needed to reproduce the kill outside the
    campaign: the seed file, pipeline, and the job's driver base seed.
    """

    job_index: int
    file: str
    pipeline: str
    seed: int
    attempts: int
    error: str


@dataclass
class CampaignReport:
    outcomes: Dict[str, BugOutcome] = field(default_factory=dict)
    total_iterations: int = 0
    total_findings: int = 0
    unattributed: List[Finding] = field(default_factory=list)
    elapsed: float = 0.0
    workers: int = 1
    # Per-stage totals summed over every job, plus the same broken down
    # by the worker process that ran the job ("pid-<n>").
    timings: StageTimings = field(default_factory=StageTimings)
    worker_timings: Dict[str, StageTimings] = field(default_factory=dict)
    failed_shards: List[ShardFailure] = field(default_factory=list)
    # Seed files that did not parse (kind="parse"), recorded per job so
    # a corrupt corpus member is visible instead of silently vanishing.
    parse_failures: List[ShardFailure] = field(default_factory=list)
    # Poison jobs retired after max_job_retries hang/crash retries.
    quarantined: List[QuarantinedJob] = field(default_factory=list)
    # Jobs never started because the global time budget expired or a
    # graceful shutdown drained the campaign.
    skipped_jobs: int = 0
    # Jobs whose results were merged from a checkpoint journal.
    resumed_jobs: int = 0
    # A SIGINT/SIGTERM (or CampaignExecutor.request_stop) interrupted
    # the run; the report is a valid partial checkpointed state.
    interrupted: bool = False
    interrupt_signal: str = ""
    # Aggregate observability registry (repro.obs): the merge of every
    # completed job's per-shard registry plus campaign-level counters
    # (campaign.jobs.completed, campaign.retry.*, ...).  Its
    # ``deterministic()`` subset is identical across worker counts and
    # kill/resume cycles.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    # Merged coverage/corpus totals over every completed job (None when
    # no job ran with feedback enabled).
    feedback: Optional[FeedbackStats] = None

    def found_bugs(self) -> List[BugOutcome]:
        return [o for o in self.outcomes.values() if o.found]

    def found_by_kind(self) -> Tuple[int, int]:
        miscompilations = sum(1 for o in self.found_bugs()
                              if o.bug.kind == "miscompilation")
        crashes = sum(1 for o in self.found_bugs() if o.bug.kind == "crash")
        return miscompilations, crashes

    @property
    def throughput(self) -> float:
        """Mutants per wall-clock second."""
        if self.elapsed <= 0:
            return 0.0
        return self.total_iterations / self.elapsed

    def table(self) -> str:
        """Render the Table-I analog."""
        header = (f"{'Issue ID':<9} {'Component':<26} {'Status':<7} "
                  f"{'Type':<15} {'Found':<7} Description")
        rows = [header, "-" * len(header)]
        for outcome in self.outcomes.values():
            bug = outcome.bug
            found = "yes" if outcome.found else "no"
            rows.append(f"{bug.issue_id:<9} {bug.component:<26} "
                        f"{bug.status:<7} {bug.kind:<15} {found:<7} "
                        f"{bug.description}")
        miscompilations, crashes = self.found_by_kind()
        rows.append("-" * len(header))
        rows.append(f"found {len(self.found_bugs())} bugs: "
                    f"{miscompilations} miscompilations, {crashes} crashes "
                    "(paper: 33 = 19 + 14)")
        if self.feedback is not None:
            rows.append(
                f"coverage: {self.feedback.features_covered} features, "
                f"{self.feedback.corpus_entries} corpus entries "
                f"({self.feedback.admitted} admitted, "
                f"{self.feedback.distilled} distilled)")
        rows.extend(self.health_lines())
        return "\n".join(rows)

    def health_lines(self) -> List[str]:
        """Campaign-health footer: anything that did not run cleanly."""
        lines: List[str] = []
        if self.interrupted:
            signal_name = self.interrupt_signal or "stop request"
            lines.append(f"interrupted by {signal_name}; "
                         "partial report (checkpointed state is valid)")
        if self.resumed_jobs:
            lines.append(f"resumed {self.resumed_jobs} jobs from checkpoint")
        for failure in self.parse_failures:
            lines.append(f"parse failure: {failure.file} "
                         f"[{failure.pipeline}]: {failure.error}")
        for failure in self.failed_shards:
            lines.append(f"failed shard ({failure.kind}): {failure.file} "
                         f"[{failure.pipeline}] job {failure.job_index}: "
                         f"{failure.error}")
        for job in self.quarantined:
            lines.append(f"quarantined: {job.file} [{job.pipeline}] "
                         f"seed {job.seed} after {job.attempts} attempts: "
                         f"{job.error}")
        if self.skipped_jobs:
            lines.append(f"skipped {self.skipped_jobs} jobs "
                         "(budget/shutdown)")
        return lines


def new_report(config: CampaignConfig) -> CampaignReport:
    enabled = set(config.enabled())
    return CampaignReport(
        outcomes={bug.issue_id: BugOutcome(bug=bug) for bug in all_bugs()
                  if bug.issue_id in enabled},
        workers=config.workers)


def run_campaign(config: Optional[CampaignConfig] = None,
                 resume: bool = False) -> CampaignReport:
    """Run the campaign described by ``config`` and merge the report.

    Delegates to :class:`repro.fuzz.parallel.CampaignExecutor`;
    ``config.workers`` picks sequential (1) or sharded execution.
    ``resume=True`` (requires ``config.checkpoint_dir``) skips jobs
    already recorded in the checkpoint journal and merges their cached
    results.
    """
    from .parallel import CampaignExecutor
    return CampaignExecutor(config).execute(resume=resume)
