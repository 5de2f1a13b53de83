"""The in-process fuzzing driver (paper §III, Figure 3).

Everything — mutation, optimization, and translation validation — runs in
one process over in-memory IR.  The mutate→optimize→verify loop therefore
pays no parsing, printing, file-I/O, or process-management cost, which is
the source of the paper's 12x throughput claim; per-stage timings are
recorded so the overhead experiment (Figure 2 analog) can read them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import operational, semantic
from ..ir.fingerprint import (fingerprint_closure, fingerprint_function,
                              references_definitions)
from ..ir.function import Function
from ..ir.module import Module, clone_functions_into
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..mutate import MutantRecord, Mutator, MutatorConfig
from ..obs import (NULL_TRACER, GcProbe, MetricsRegistry, ProgressReporter,
                   Tracer)
from ..opt import OptContext, OptimizerCrash, PassManager
from ..tv import (RefinementConfig, TVCaches, Verdict,
                  check_function_supported, check_refinement)
from .corpus import Corpus, CorpusEntry, CorpusJournal, module_fingerprint
from .feedback import (Feedback, FeedbackConfig, FeedbackStats, bug_feature)
from .findings import CRASH, MISCOMPILATION, BugLog, Finding
from .memo import LRUCache, OptimizeEntry
from .schedule import create_scheduler


class ConfigError(ValueError):
    """A fuzzing configuration that cannot be satisfied.

    Subclasses :class:`ValueError` so callers that predate the structured
    validation keep working unchanged.
    """


class DeadlineExceeded(Exception):
    """A cooperative per-job wall-clock deadline expired mid-run.

    Raised at stage boundaries of the fuzzing loop (never mid-stage) when
    :attr:`FuzzDriver.deadline_at` has passed.  The campaign runtime
    records the job as a ``hang`` failure; see
    :mod:`repro.fuzz.parallel`.
    """


# Entries the driver's fingerprint memos keep (paper §III-B, lifted to
# whole stages): bounded LRU caches replay optimize results and verify
# verdicts for structurally repeated functions.  Finding-preserving —
# cached UNSOUND verdicts and optimizer crashes are replayed, and cache
# hits re-inject their ``OptContext.triggered_bugs``.
OPTIMIZE_CACHE_SIZE = 512
VERIFY_CACHE_SIZE = 2048

# The exec.* metrics the driver's TVCaches counters are folded into:
# plan lookups, lanes driven per batch (and how many needed no
# interpreter), divergence regrouping and scalar fallbacks, and the
# validation check_refinement proved unnecessary.
EXEC_COUNTERS = (
    "exec.plan_cache.hit", "exec.plan_cache.miss",
    "exec.plan_cache.fallback", "exec.plan_cache.evictions",
    "exec.batch.batches", "exec.batch.lanes",
    "exec.batch.divergence_splits", "exec.batch.scalar_fallbacks",
    "exec.verify.same_plan", "exec.verify.static_skips",
    "exec.verify.target_inputs_pruned", "exec.batch.stateless_lanes")


@dataclass
class FuzzConfig:
    """One job's settings; each field is tagged (:mod:`repro.config`)."""

    pipeline: str = semantic("O2")
    enabled_bugs: Sequence[str] = semantic(())
    mutator: MutatorConfig = semantic(default_factory=MutatorConfig)
    tv: RefinementConfig = semantic(default_factory=RefinementConfig)
    base_seed: int = semantic(0)
    # Saving mutants to disk is off by default — the paper's fast path.
    save_dir: Optional[str] = operational(None)
    save_all: bool = operational(False)
    log_path: Optional[str] = operational(None)
    stop_on_first_finding: bool = semantic(False)
    # Coverage-guided fuzzing (rule-firing feedback, runtime corpus,
    # adaptive scheduling) — one sub-config, off by default; see
    # repro.fuzz.feedback.
    feedback: FeedbackConfig = semantic(default_factory=FeedbackConfig)

    def validate(self, iterations: Optional[int] = None,
                 time_budget: Optional[float] = None,
                 require_budget: bool = False) -> "FuzzConfig":
        """Reject nonsense with a clear :class:`ConfigError`.

        Checks the config itself (seeds, pipeline, mutation range) and,
        when given, the run budget.  ``require_budget=True`` additionally
        demands that at least one of ``iterations``/``time_budget`` is
        set, mirroring :meth:`FuzzDriver.run`'s contract.
        """
        from ..opt import available_passes, available_pipelines, expand
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        try:
            self.tv.validate()
        except ValueError as exc:
            raise ConfigError(f"tv.{exc}") from None
        if self.mutator.min_mutations < 1:
            raise ConfigError("mutator.min_mutations must be >= 1, "
                              f"got {self.mutator.min_mutations}")
        if self.mutator.max_mutations < self.mutator.min_mutations:
            raise ConfigError(
                f"mutator.max_mutations ({self.mutator.max_mutations}) < "
                f"min_mutations ({self.mutator.min_mutations})")
        known = set(available_passes())
        for name in expand(self.pipeline):
            if name not in known:
                raise ConfigError(
                    f"unknown pipeline or pass {name!r} in "
                    f"{self.pipeline!r} (pipelines: "
                    f"{', '.join(available_pipelines())}; see "
                    "repro-opt --list-passes for individual passes)")
        try:
            self.feedback.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if iterations is not None and iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {iterations}")
        if time_budget is not None and time_budget <= 0:
            raise ConfigError(
                f"time_budget must be positive, got {time_budget}")
        if require_budget and iterations is None and time_budget is None:
            raise ConfigError("specify iterations and/or time_budget")
        return self


@dataclass
class StageTimings:
    """Per-stage wall-clock totals (seconds)."""

    mutate: float = 0.0
    optimize: float = 0.0
    verify: float = 0.0

    @property
    def total(self) -> float:
        return self.mutate + self.optimize + self.verify


@dataclass
class FuzzReport:
    iterations: int = 0
    findings: List[Finding] = field(default_factory=list)
    dropped_functions: Dict[str, str] = field(default_factory=dict)
    timings: StageTimings = field(default_factory=StageTimings)
    inconclusive: int = 0
    # How many times each mutation operator fired across all iterations.
    mutation_counts: Dict[str, int] = field(default_factory=dict)
    # Per-run observability registry (see repro.obs.metrics): stage
    # seconds, mutant validity, finding counters, latency histograms.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    # Coverage/corpus totals (None when feedback is disabled).
    feedback: Optional[FeedbackStats] = None

    def summary(self) -> str:
        return (f"{self.iterations} iterations, "
                f"{len(self.findings)} findings "
                f"({sum(1 for f in self.findings if f.kind == MISCOMPILATION)}"
                " miscompilations, "
                f"{sum(1 for f in self.findings if f.kind == CRASH)} crashes)"
                f" in {self.timings.total:.2f}s")


@dataclass
class _MutationSource:
    """One module mutants can be drawn from: the seed or a corpus entry.

    Each source carries its own mutator and its own fingerprint maps so
    the copy-on-write shortcut in :meth:`FuzzDriver._optimize_memo`
    never attributes another source's fingerprints to an untouched
    function.
    """

    module: Module
    mutator: Mutator
    fps: Dict[str, str]
    fp_by_id: Dict[int, str]


class FuzzDriver:
    """Owns one seed module and fuzzes it in-process."""

    def __init__(self, module: Module, config: Optional[FuzzConfig] = None,
                 file_name: str = "", *,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 progress: Optional[ProgressReporter] = None) -> None:
        self.config = (config or FuzzConfig()).validate()
        self.file_name = file_name or module.name
        self.report = FuzzReport()
        # Observability: the metrics registry is shared with the report
        # (and, in campaigns, shipped back inside ShardResult); the
        # tracer defaults to the free disabled singleton.
        self.metrics = metrics if metrics is not None else \
            self.report.metrics
        self.report.metrics = self.metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.progress = progress
        self.log = BugLog(self.config.log_path, metrics=self.metrics)
        self.module = module
        # Cooperative watchdog: an absolute ``time.monotonic()`` deadline
        # (or None).  Checked at stage boundaries; on expiry the loop
        # raises DeadlineExceeded instead of starting the next stage.
        self.deadline_at: Optional[float] = None
        # Every cache of the job belongs to the driver and dies with it:
        # the memos (repro.fuzz.memo), the seed's fingerprints (so CoW
        # mutants skip re-hashing untouched functions), and TVCaches.
        self._pipeline_key = self.config.pipeline
        self._tv_key = self.config.tv.cache_key()
        self._opt_cache = LRUCache(OPTIMIZE_CACHE_SIZE)
        self._tv_cache = LRUCache(VERIFY_CACHE_SIZE)
        self._seed_fps: Dict[str, str] = {}
        self._seed_fp_by_id: Dict[int, str] = {}
        # The TV counters are folded into metrics at stage boundaries.
        self._tv_caches = TVCaches()
        self._exec_seen = self._exec_stats()
        self._preprocess()
        self._harvest_exec_stats()
        self.mutator = Mutator(module, self._mutator_config(),
                               tracer=self.tracer)
        # Coverage-guided state (see repro.fuzz.feedback): the runtime
        # corpus, the (source, mutation-class) scheduler, and the
        # registry of mutation sources.  All deterministic per job.
        self.corpus: Optional[Corpus] = None
        self.scheduler = None
        self.last_feedback: Optional[Feedback] = None
        self._sources: Dict[str, _MutationSource] = {}
        if self.config.feedback.enabled:
            self._init_feedback()

    def _init_feedback(self) -> None:
        fb = self.config.feedback
        journal: Optional[CorpusJournal] = None
        if fb.corpus_dir:
            stem = os.path.splitext(
                os.path.basename(self.file_name or "input"))[0]
            journal = CorpusJournal(os.path.join(
                fb.corpus_dir,
                f"{stem}_{self.config.base_seed}.corpus.jsonl"))
            journal.start()
        self.corpus = Corpus(fb.max_corpus_size, journal=journal)
        # The seed's own baseline behavior is not "new" — pre-covering it
        # means only mutants reaching *beyond* the seed are admitted.
        self.corpus.cover(self._baseline_features)
        self.scheduler = create_scheduler(
            fb.scheduler_name(), self.mutator.config.mutation_names())
        self.scheduler.add_source("seed")
        self._sources["seed"] = _MutationSource(
            module=self.module, mutator=self.mutator,
            fps=self._seed_fps, fp_by_id=self._seed_fp_by_id)
        self.report.feedback = FeedbackStats()

    def close(self) -> None:
        """Release per-driver resources (the corpus journal stream)."""
        if self.corpus is not None and self.corpus.journal is not None:
            self.corpus.journal.close()

    @classmethod
    def from_text(cls, text: str, config: Optional[FuzzConfig] = None,
                  file_name: str = "") -> "FuzzDriver":
        return cls(parse_module(text, file_name or "input"), config,
                   file_name)

    def _mutator_config(self) -> MutatorConfig:
        base = self.config.mutator
        return MutatorConfig(
            min_mutations=base.min_mutations,
            max_mutations=base.max_mutations,
            enabled_mutations=base.enabled_mutations,
            verify_mutants=base.verify_mutants,
            only_functions=list(self._targets),
            overlay_mode=base.overlay_mode,
        )

    # -- preprocessing (paper §III-A) ---------------------------------------

    def _preprocess(self) -> None:
        """Drop functions the validator cannot handle, and functions whose
        *un-mutated* form already fails validation (no point mutating).

        The baseline clone+optimize runs once for the *whole module* (it
        used to run once per candidate function — O(F²) in module size);
        every candidate is checked against that single optimized copy.
        The per-function baseline results seed the optimize and verify
        caches, so functions a mutation round leaves untouched hit from
        the very first iteration.
        """
        self._targets: List[str] = []
        self._baseline_features: Set[str] = set()
        reasons: Dict[str, Optional[str]] = {}
        candidates: List[Function] = []
        for function in self.module.definitions():
            reason = check_function_supported(function)
            reasons[function.name] = reason
            if reason is None:
                candidates.append(function)
        if candidates:
            fp_cache: Dict[int, str] = {}
            baseline, crashed, union_bugs = self._optimize_baseline(fp_cache)
            if crashed:
                # Crashes on the seed itself still count as fuzz food.
                self._targets = [f.name for f in candidates]
            else:
                for function in candidates:
                    target = baseline.get_function(function.name)
                    if target is None or target.is_declaration():
                        reasons[function.name] = \
                            "function vanished during baseline optimization"
                        continue
                    result = check_refinement(function, target, self.module,
                                              baseline, self.config.tv,
                                              fp_cache=fp_cache,
                                              caches=self._tv_caches)
                    key = self._verify_key(function, target, fp_cache)
                    self._tv_cache.put(key, result)
                    if result.verdict == Verdict.UNSOUND and not union_bugs:
                        reasons[function.name] = ("un-mutated form already "
                                                  "fails translation "
                                                  "validation")
                        continue
                    self._targets.append(function.name)
        for function in self.module.definitions():
            reason = reasons.get(function.name)
            if reason is not None:
                self.report.dropped_functions[function.name] = reason

    def _optimize_baseline(self, fp_cache: Dict[int, str]
                           ) -> Tuple[Module, bool, Set[str]]:
        """Clone and optimize the seed once, one function at a time.

        Returns ``(optimized module, crashed?, union of triggered bug
        ids)`` and leaves every fingerprint it computed — the seed's
        and the optimized bodies' — in ``fp_cache``.  Function-major
        pipeline runs produce the same IR as the pass-major whole-module
        run (every pass is function-local), while letting each
        function's optimized body, bug attribution, and crash be
        recorded individually in the optimize cache.
        """
        for function in self.module.definitions():
            fp = fingerprint_function(function)
            self._seed_fps[function.name] = fp
            self._seed_fp_by_id[id(function)] = fp
        fp_cache.update(self._seed_fp_by_id)
        optimized = self.module.clone()
        manager = PassManager([self.config.pipeline], metrics=self.metrics)
        crashed = False
        union_bugs: Set[str] = set()
        for original in self.module.definitions():
            function = optimized.get_function(original.name)
            cacheable = not references_definitions(original)
            ctx = OptContext(self.config.enabled_bugs)
            crash: Optional[OptimizerCrash] = None
            try:
                manager.run_function(function, ctx)
            except OptimizerCrash as exc:
                crash = exc
                crashed = True
            union_bugs |= ctx.triggered_bugs
            self._baseline_features.update(ctx.stats)
            if cacheable:
                post_fp = ""
                if crash is None:
                    post_fp = fp_cache[id(function)] = \
                        fingerprint_function(function)
                self._store_optimize_entry(self._seed_fps[original.name],
                                           function, ctx, crash, post_fp)
        self._baseline_features.update(bug_feature(b) for b in union_bugs)
        return optimized, crashed, union_bugs

    def _store_optimize_entry(self, fp: str, function: Function,
                              ctx: OptContext,
                              crash: Optional[OptimizerCrash],
                              post_fp: str) -> None:
        """Cache one function's pipeline outcome under its pre-opt hash
        ``fp``; ``post_fp`` is the optimized body's (``""`` on a crash).

        Only called for *cacheable* functions — bodies referencing no
        definition but themselves before optimization, so their pipeline
        outcome cannot depend on another function's mutable state (only
        callee *names and attribute sets*, and those belong to shared,
        never-mutated declarations).  Function-local passes cannot
        introduce new calls, but guard the post-opt body anyway.
        """
        if crash is None and references_definitions(function):
            return
        entry = OptimizeEntry(function=None if crash is not None else function,
                              fingerprint=post_fp,
                              triggered_bugs=frozenset(ctx.triggered_bugs),
                              crash=crash,
                              stats=dict(ctx.stats))
        self._opt_cache.put((fp, self._pipeline_key), entry)

    @property
    def target_functions(self) -> List[str]:
        return list(self._targets)

    def set_deadline(self, seconds: Optional[float]) -> None:
        """Arm the cooperative deadline ``seconds`` from now (None disarms)."""
        self.deadline_at = (None if seconds is None
                            else time.monotonic() + seconds)

    def check_deadline(self) -> None:
        """Raise :class:`DeadlineExceeded` if the armed deadline passed."""
        if self.deadline_at is not None \
                and time.monotonic() >= self.deadline_at:
            raise DeadlineExceeded(
                "cooperative job deadline exceeded while fuzzing "
                f"{self.file_name or 'input'}")

    # -- the loop (paper §III-B..E) ---------------------------------------------

    def run(self, iterations: Optional[int] = None,
            time_budget: Optional[float] = None,
            strict: bool = False) -> FuzzReport:
        """Fuzz until the iteration count or the time budget is exhausted.

        When preprocessing dropped every function there is nothing to
        fuzz: the report comes back with zero iterations and
        ``dropped_functions`` populated, so callers need no pre-flight
        ``target_functions`` guard.  Pass ``strict=True`` to get the old
        behavior of raising ``ValueError`` instead.
        """
        self.config.validate(iterations=iterations, time_budget=time_budget,
                             require_budget=True)
        if not self._targets:
            if strict:
                raise ValueError(
                    "no processable functions (all were dropped during "
                    f"preprocessing: {self.report.dropped_functions})")
            return self.report
        started = time.perf_counter()
        i = 0
        # The collector's share of the loop goes into gc.* metrics.
        with GcProbe(self.metrics):
            while True:
                if iterations is not None and i >= iterations:
                    break
                if time_budget is not None \
                        and time.perf_counter() - started >= time_budget:
                    break
                self.check_deadline()
                finding = self.run_one(self.config.base_seed + i)
                i += 1
                self.report.iterations = i
                if self.progress is not None:
                    self.progress.tick(self.metrics)
                if finding and self.config.stop_on_first_finding:
                    break
        self.report.iterations = i
        return self.report

    def run_one(self, seed: int) -> List[Finding]:
        """One mutate→optimize→verify iteration; returns its findings."""
        timings = self.report.timings
        metrics = self.metrics
        found: List[Finding] = []

        begin = time.perf_counter()
        arm: Optional[Tuple[str, str]] = None
        if self.scheduler is not None:
            arm = self.scheduler.select()
            src = self._sources[arm[0]]
            mutant, record = src.mutator.create_mutant(
                seed, operators=(arm[1],))
            source_fps, source_fp_by_id = src.fps, src.fp_by_id
        else:
            mutant, record = self.mutator.create_mutant(seed)
            source_fps, source_fp_by_id = self._seed_fps, self._seed_fp_by_id
        mutate_seconds = time.perf_counter() - begin
        timings.mutate += mutate_seconds
        metrics.count("mutants.created")
        metrics.count("clone.functions_copied", record.functions_copied)
        if record.applied:
            metrics.count("mutants.valid")
        for _, operator in record.applied:
            self.report.mutation_counts[operator] = \
                self.report.mutation_counts.get(operator, 0) + 1
            metrics.count("mutate.op." + operator)
        metrics.count("stage.mutate.seconds", mutate_seconds)
        self.tracer.record("mutate", begin, mutate_seconds, seed=seed,
                           applied=len(record.applied))

        if self.config.save_all:
            self._save(mutant, seed)

        self.check_deadline()
        begin = time.perf_counter()
        fp_cache: Dict[int, str] = dict(source_fp_by_id)
        optimized, ctx, crash = self._optimize_memo(mutant, record,
                                                    fp_cache, source_fps)
        optimize_seconds = time.perf_counter() - begin
        timings.optimize += optimize_seconds
        metrics.count("stage.optimize.seconds", optimize_seconds)
        self.tracer.record("optimize", begin, optimize_seconds, seed=seed,
                           crashed=crash is not None)

        if crash is not None:
            finding = Finding(kind=CRASH, seed=seed, file=self.file_name,
                              detail=str(crash), bug_ids=[crash.bug_id])
            self.log.record(finding)
            self.report.findings.append(finding)
            found.append(finding)
            if self.config.save_dir and not self.config.save_all:
                self._save(mutant, seed)
            if self.corpus is not None:
                # The crash feature is the only one pass-major and
                # function-major execution agree on mid-crash.
                self._record_feedback(
                    seed, mutant, arm,
                    frozenset({bug_feature(crash.bug_id)}), {},
                    crashed=True)
            metrics.observe("iteration.seconds",
                            mutate_seconds + optimize_seconds)
            return found

        self.check_deadline()
        begin = time.perf_counter()
        for name in self._targets:
            source = mutant.get_function(name)
            target = optimized.get_function(name)
            if source is None or target is None or target.is_declaration():
                continue
            key = self._verify_key(source, target, fp_cache)
            result = self._tv_cache.get(key)
            metrics.count("cache.verify.hit" if result is not None
                          else "cache.verify.miss")
            if result is None:
                result = check_refinement(source, target, mutant, optimized,
                                          self.config.tv, tracer=self.tracer,
                                          fp_cache=fp_cache,
                                          caches=self._tv_caches)
                self._tv_cache.put(key, result)
            metrics.count("tv.checks")
            self.report.inconclusive += result.inconclusive_inputs
            if result.inconclusive_inputs:
                metrics.count("tv.inconclusive_inputs",
                              result.inconclusive_inputs)
            if result.verdict == Verdict.UNSOUND:
                detail = str(result.counterexample) if result.counterexample \
                    else "refinement failure"
                finding = Finding(kind=MISCOMPILATION, seed=seed,
                                  file=self.file_name, function=name,
                                  detail=detail,
                                  bug_ids=sorted(ctx.triggered_bugs))
                self.log.record(finding)
                self.report.findings.append(finding)
                found.append(finding)
                if self.config.save_dir and not self.config.save_all:
                    self._save(mutant, seed)
        verify_seconds = time.perf_counter() - begin
        timings.verify += verify_seconds
        self._harvest_exec_stats()
        metrics.count("stage.verify.seconds", verify_seconds)
        self.tracer.record("verify", begin, verify_seconds, seed=seed,
                           findings=len(found))
        if self.corpus is not None:
            features = frozenset(ctx.stats) | frozenset(
                bug_feature(bug) for bug in ctx.triggered_bugs)
            self._record_feedback(seed, mutant, arm, features,
                                  dict(ctx.stats), crashed=False)
        metrics.observe("iteration.seconds",
                        mutate_seconds + optimize_seconds + verify_seconds)
        return found

    def _exec_stats(self) -> Tuple[int, ...]:
        """The driver's TV counters, in :data:`EXEC_COUNTERS` order."""
        plans = self._tv_caches.plans
        return plans.stats() + (plans.evictions,) + \
            self._tv_caches.stats.stats()

    def _harvest_exec_stats(self) -> None:
        """Fold counter deltas since the last call into metrics, and
        raise the plan cache's resident-slots high-water mark."""
        stats = self._exec_stats()
        previous = self._exec_seen
        if stats == previous:
            return
        for name, now, then in zip(EXEC_COUNTERS, stats, previous):
            if now != then:
                self.metrics.count(name, now - then)
        self.metrics.gauge_max("exec.plan_cache.slots",
                               self._tv_caches.plans.slots)
        self._exec_seen = stats

    # -- coverage feedback (corpus admission + scheduling reward) -----------

    def _record_feedback(self, seed: int, mutant: Module,
                         arm: Optional[Tuple[str, str]],
                         features: frozenset, counts: Dict[str, int],
                         crashed: bool) -> None:
        """Close one iteration's feedback loop.

        Computes the novel-feature set, admits the mutant to the corpus
        (crashing mutants only mark coverage — every derivative would
        re-crash identically, so they make poor mutation sources),
        rewards the scheduler arm that produced it, and refreshes the
        report's :class:`FeedbackStats`.
        """
        corpus = self.corpus
        metrics = self.metrics
        fresh = corpus.new_features(features)
        admitted = False
        if fresh:
            if crashed:
                corpus.cover(features)
            else:
                text = print_module(mutant)
                entry = CorpusEntry(
                    text=text, fingerprint=module_fingerprint(text),
                    features=features, seed=seed,
                    source=arm[0] if arm else "seed",
                    operator=arm[1] if arm else "")
                admitted = bool(corpus.consider(entry))
                if admitted:
                    metrics.count("corpus.admitted")
                    if self.scheduler is not None \
                            and entry.fingerprint not in self._sources:
                        self._add_corpus_source(entry)
            metrics.count("feedback.features.new", len(fresh))
        if self.scheduler is not None and arm is not None:
            self.scheduler.update(arm[0], arm[1], float(len(fresh)))
            metrics.count("feedback.draws")
        metrics.gauge_max("corpus.size", len(corpus))
        metrics.gauge_max("feedback.features.covered",
                          corpus.features_covered())
        stats = self.report.feedback
        stats.new_features += len(fresh)
        if arm is not None:
            stats.draws += 1
        stats.features_covered = corpus.features_covered()
        stats.corpus_entries = len(corpus)
        stats.admitted = corpus.admitted_count
        stats.distilled = corpus.distilled_count
        self.last_feedback = Feedback(
            features=features, new_features=fresh, admitted=admitted,
            source=arm[0] if arm else "seed",
            operator=arm[1] if arm else "", counts=counts)

    def _add_corpus_source(self, entry: CorpusEntry) -> None:
        """Turn an admitted corpus entry into a live mutation source.

        The entry is re-parsed from its printed text — a fresh module
        with its own fingerprint maps — so the copy-on-write shortcut
        can never confuse its functions with the seed's.
        """
        module = parse_module(entry.text, f"corpus-{entry.fingerprint[:12]}")
        mutator = Mutator(module, self._mutator_config(), tracer=self.tracer)
        fps: Dict[str, str] = {}
        fp_by_id: Dict[int, str] = {}
        for function in module.definitions():
            fp = fingerprint_function(function)
            fps[function.name] = fp
            fp_by_id[id(function)] = fp
        self._sources[entry.fingerprint] = _MutationSource(
            module=module, mutator=mutator, fps=fps, fp_by_id=fp_by_id)
        self.scheduler.add_source(entry.fingerprint)

    def _verify_key(self, source: Function, target: Function,
                    fp_cache: Dict[int, str]) -> tuple:
        """The verify-cache key for one refinement check.

        Closure fingerprints cover every defined function the
        interpreter can reach from either side; the *source argument
        names* ride along because input generation derives pointer block
        ids (and thus concrete addresses) from them, which fingerprints
        deliberately normalize away.  Declarations contribute only their
        names/attributes and are immutable for the driver's lifetime.
        """
        return (fingerprint_closure(source, fp_cache),
                tuple(argument.name for argument in source.arguments),
                fingerprint_closure(target, fp_cache),
                self._tv_key)

    def _optimize_memo(self, mutant: Module, record: MutantRecord,
                       fp_cache: Dict[int, str], source_fps: Dict[str, str]
                       ) -> Tuple[Module, OptContext, Optional[OptimizerCrash]]:
        """Build the optimized module through the fingerprint caches.

        Each definition is classified by its pre-optimization
        fingerprint: hits adopt the cached optimized body as an
        immutable view (zero copying; its ``triggered_bugs``/crash are
        replayed so cache hits never mask findings), misses are
        deep-copied and run through the pipeline one function at a time.
        Crash policy matches a whole-module pipeline run for the common
        single-crash-bug case: the first crashing definition in module
        order wins and aborts the iteration.
        """
        metrics = self.metrics
        dirty = record.dirty_functions()
        ctx = OptContext(self.config.enabled_bugs)
        optimized = Module(mutant.name)
        hits: List[Tuple[str, OptimizeEntry]] = []
        misses: List[Tuple[int, Function]] = []
        cached_crash: Optional[Tuple[int, OptimizerCrash]] = None
        position = -1
        for function in mutant.functions():
            if function.is_declaration():
                optimized.adopt_shared(function)
                continue
            position += 1
            fp = fp_cache.get(id(function))
            if fp is None:
                # Copy-on-write shortcut: a target no operator changed
                # is structurally identical to its source's function.
                if function.name not in dirty \
                        and function.name in source_fps:
                    fp = source_fps[function.name]
                else:
                    fp = fingerprint_function(function)
                fp_cache[id(function)] = fp
            entry = self._opt_cache.get((fp, self._pipeline_key))
            if entry is None:
                metrics.count("cache.optimize.miss")
                misses.append((position, function))
                continue
            metrics.count("cache.optimize.hit")
            ctx.triggered_bugs |= entry.triggered_bugs
            ctx.stats.update(entry.stats)
            if entry.crash is not None:
                if cached_crash is None:
                    cached_crash = (position, entry.crash)
            else:
                hits.append((function.name, entry))

        # Hits are adopted (shared views of cached bodies; the
        # spliceability rule guarantees they reference nothing but
        # themselves and declarations, which resolve by name/attributes).
        # A hit cached under a different name — alpha-equivalent twin —
        # is spliced in under this function's name instead.  When a
        # cached crash will abort the iteration anyway, skip all hits.
        sources: Dict[str, Function] = {}
        renamed: Dict[str, OptimizeEntry] = {}
        if cached_crash is None:
            for name, entry in hits:
                if entry.function.name == name:
                    optimized.adopt_shared(entry.function)
                    fp_cache[id(entry.function)] = entry.fingerprint
                else:
                    sources[name] = entry.function
                    renamed[name] = entry
        for position, function in misses:
            if cached_crash is not None and position > cached_crash[0]:
                continue
            sources[function.name] = function
        copies = clone_functions_into(sources, optimized) if sources else {}
        metrics.count("clone.functions_copied", len(sources))
        for name, entry in renamed.items():
            # Self-references hash as "self", so the fingerprint is
            # rename-invariant and the cached one can be reused.
            fp_cache[id(copies[name])] = entry.fingerprint

        crash: Optional[OptimizerCrash] = None
        manager = PassManager([self.config.pipeline], ctx,
                              tracer=self.tracer, metrics=metrics)
        for position, function in misses:
            if cached_crash is not None and position > cached_crash[0]:
                break
            copy = copies[function.name]
            fn_ctx = OptContext(self.config.enabled_bugs)
            fn_crash: Optional[OptimizerCrash] = None
            try:
                manager.run_function(copy, fn_ctx)
            except OptimizerCrash as exc:
                fn_crash = exc
            ctx.triggered_bugs |= fn_ctx.triggered_bugs
            ctx.stats.update(fn_ctx.stats)
            post_fp = ""
            if fn_crash is None:
                post_fp = fp_cache[id(copy)] = fingerprint_function(copy)
            if not references_definitions(function):
                self._store_optimize_entry(fp_cache[id(function)], copy,
                                           fn_ctx, fn_crash, post_fp)
            if fn_crash is not None:
                crash = fn_crash
                break
        if crash is None and cached_crash is not None:
            crash = cached_crash[1]
        return optimized, ctx, crash

    def recreate(self, seed: int) -> Module:
        """Replay a logged seed (re-run with file saving, per §III-E)."""
        return self.mutator.recreate_mutant(seed)

    def _save(self, mutant: Module, seed: int) -> None:
        directory = self.config.save_dir
        if not directory:
            return
        os.makedirs(directory, exist_ok=True)
        stem = os.path.splitext(os.path.basename(self.file_name or "mutant"))[0]
        path = os.path.join(directory, f"{stem}_{seed}.ll")
        with open(path, "w") as stream:
            stream.write(print_module(mutant))
