"""Parallel sharded campaign execution.

The campaign's (corpus file × pipeline) job matrix is embarrassingly
parallel: every job owns a disjoint seed range (see
:data:`repro.fuzz.campaign.JOB_SEED_STRIDE`), so jobs can run on any
worker in any order and still produce the same findings.  This module
runs the matrix through one scheduler, :func:`run_jobs`, and merges the
per-job :class:`ShardResult` records back into one
:class:`~repro.fuzz.campaign.CampaignReport` on the calling process.

Determinism contract
--------------------
* Per-job seeds are derived from the job's *index in the full matrix*,
  never from which worker ran it or when.
* Merging walks shard results in job-index order, so "first discovery"
  attributions (``first_file``/``first_seed``) are identical for
  ``workers=1`` and ``workers=N``.
* ``workers=1`` without a job deadline runs every job on the calling
  process — no worker process, bit-identical results.

Fault containment
-----------------
A job that raises comes back as a :class:`ShardResult` with ``error``
set.  A worker death is pinned on the job its worker was running (a
``crash``), a job outliving ``deadline × grace_factor`` is killed (a
``hang``), and either is retried, then quarantined (see :func:`run_jobs`).
An optional global time budget stops starting jobs on expiry and drains
the running ones; the never-finished remainder is reported as skipped.
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.parser import ParseError, parse_module
from ..obs import MetricsRegistry, tracer_for_path
from .campaign import (
    CampaignConfig,
    CampaignReport,
    QuarantinedJob,
    ShardFailure,
    new_report,
)
from .driver import DeadlineExceeded, FuzzConfig, FuzzDriver, StageTimings
from .feedback import FeedbackStats
from .findings import Finding
from .seeds import generate_corpus

__all__ = [
    "CampaignExecutor",
    "KIND_NODE_LOST",
    "ShardJob",
    "ShardResult",
    "execute_job",
    "retry_delay",
    "run_jobs",
]


@dataclass
class ShardJob:
    """One cell of the job matrix, picklable for a worker process."""

    job_index: int
    file_name: str
    text: str
    config: FuzzConfig
    iterations: Optional[int] = None
    time_budget: Optional[float] = None
    confirm_attributions: bool = False
    # Per-job wall-clock deadline, seconds.  Enforced cooperatively at
    # the driver's stage boundaries; :func:`run_jobs` also runs the job
    # in a worker process and kills it at ``deadline * grace_factor``.
    deadline: Optional[float] = None
    # Span tracing (repro.obs): when ``trace_dir`` is set the job writes
    # its spans to ``<trace_dir>/job-<index>.jsonl`` (one file per job —
    # concurrent workers never share a trace stream), keeping one span
    # in every ``1/trace_sample`` via deterministic sampling.
    trace_dir: Optional[str] = None
    trace_sample: float = 1.0


@dataclass
class ShardResult:
    """What one job sends back to the main process (picklable)."""

    job_index: int
    file_name: str
    pipeline: str = ""
    worker: str = ""
    # The job's driver base seed, carried to reproduce failed/quarantined shards.
    seed: int = -1
    iterations: int = 0
    findings: List[Finding] = field(default_factory=list)
    # For findings[i], the bug ids that survived solo-replay confirmation
    # (== findings[i].bug_ids when confirmation was off or unneeded).
    confirmed_bug_ids: List[List[str]] = field(default_factory=list)
    dropped_functions: Dict[str, str] = field(default_factory=dict)
    timings: StageTimings = field(default_factory=StageTimings)
    parse_error: str = ""
    error: str = ""
    # Classifies a non-empty ``error``: "error" (raised), "hang"
    # (deadline exceeded), "crash" (worker process died), "quarantine"
    # (retired after exhausting hang/crash retries).
    failure_kind: str = ""
    attempts: int = 1
    # Per-job observability registry (repro.obs).  Hang results carry
    # the partial registry/iterations of the interrupted attempt; the
    # merge counts that partial work as *discarded*, never as campaign
    # progress (only the final successful attempt of a retried job
    # contributes to CampaignReport totals).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    # Coverage/corpus totals (None unless the job ran with feedback on).
    feedback: Optional[FeedbackStats] = None


JobRunner = Callable[[ShardJob], ShardResult]

# The failure kinds the scheduler retries (hang, crash) or retires with.
_KIND_HANG = "hang"
_KIND_CRASH = "crash"
_KIND_QUARANTINE = "quarantine"
# A distributed campaign retired the job after losing every node that
# leased it (see repro.fuzz.dist).
KIND_NODE_LOST = "node_lost"


def retry_delay(
    backoff: float,
    attempt: int,
    jitter: float = 0.0,
    jitter_seed: str = "",
    job_index: int = 0,
) -> float:
    """The backoff delay before retry ``attempt + 1`` of a job.

    Exponential in the attempt number (``backoff * 2**(attempt - 1)``),
    optionally stretched by a *decorrelation jitter* factor in
    ``[1, 1 + jitter)`` so concurrent retries de-synchronize.  The
    jitter is a pure function of ``(jitter_seed, job_index, attempt)``
    — campaigns seed it with the campaign fingerprint, so the same
    campaign always jitters the same way and stays reproducible.
    """
    delay = backoff * (2 ** (attempt - 1))
    if jitter <= 0.0 or delay <= 0.0:
        return delay
    digest = hashlib.sha256(f"{jitter_seed}:{job_index}:{attempt}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)  # [0, 1)
    return delay * (1.0 + jitter * unit)


def execute_job(job: ShardJob) -> ShardResult:
    """Run one job: parse, fuzz, confirm attributions.

    This is the default :data:`JobRunner`, on the calling process and in
    a worker alike.  A cooperative ``job.deadline`` covers the whole job
    — fuzzing *and* attribution confirmation — and turns an overrun into
    a ``hang`` shard.
    """
    result = _result(job)
    try:
        module = parse_module(job.text, job.file_name)
    except ParseError as exc:
        result.parse_error = str(exc)
        return result
    deadline_at = None if job.deadline is None else time.monotonic() + job.deadline
    tracer = None
    if job.trace_dir:
        os.makedirs(job.trace_dir, exist_ok=True)
        path = os.path.join(job.trace_dir, f"job-{job.job_index:04d}.jsonl")
        tracer = tracer_for_path(path, sample_rate=job.trace_sample)
    driver = None
    try:
        driver = FuzzDriver(
            module, job.config, job.file_name, metrics=result.metrics, tracer=tracer
        )
        driver.deadline_at = deadline_at
        report = driver.run(iterations=job.iterations, time_budget=job.time_budget)
        result.iterations = report.iterations
        result.findings = report.findings
        result.dropped_functions = dict(report.dropped_functions)
        result.timings = report.timings
        result.feedback = report.feedback
        cache: Dict[str, FuzzDriver] = {}
        for finding in report.findings:
            driver.check_deadline()
            if job.confirm_attributions and len(finding.bug_ids) > 1:
                confirmed = [
                    bug_id
                    for bug_id in finding.bug_ids
                    if _confirm(module, job, bug_id, finding, cache, deadline_at)
                ]
            else:
                confirmed = list(finding.bug_ids)
            result.confirmed_bug_ids.append(confirmed)
    except DeadlineExceeded as exc:
        # The hang result carries the interrupted attempt's partial
        # progress (iterations, timings, metrics) so the supervisor can
        # account for discarded work — the merge must NOT count it as
        # campaign progress, or retried jobs would be double-counted.
        error = f"{exc} (deadline {job.deadline}s)"
        return replace(
            _result(job, error, _KIND_HANG),
            iterations=driver.report.iterations,
            timings=driver.report.timings,
            metrics=result.metrics,
        )
    finally:
        if driver is not None:
            driver.close()
        if tracer is not None:
            tracer.close()
    return result


def _confirm(
    module,
    job: ShardJob,
    bug_id: str,
    finding: Finding,
    cache: Dict[str, FuzzDriver],
    deadline_at: Optional[float],
) -> bool:
    """Replay the finding's seed with only ``bug_id`` enabled."""
    driver = cache.get(bug_id)
    if driver is None:
        solo_config = FuzzConfig(
            pipeline=job.config.pipeline,
            enabled_bugs=[bug_id],
            mutator=job.config.mutator,
            tv=job.config.tv,
            base_seed=job.config.base_seed,
        )
        driver = FuzzDriver(module, solo_config, file_name=job.file_name)
        driver.deadline_at = deadline_at
        cache[bug_id] = driver
    replayed = driver.run_one(finding.seed)
    return any(bug_id in f.bug_ids for f in replayed)


def _result(
    job: ShardJob, error: str = "", kind: str = "", worker: str = ""
) -> ShardResult:
    """A result naming ``job``; ``error`` and ``kind`` make it a failure."""
    return ShardResult(
        job_index=job.job_index,
        file_name=job.file_name,
        pipeline=job.config.pipeline,
        worker=worker or f"pid-{os.getpid()}",
        seed=job.config.base_seed,
        error=error,
        failure_kind=kind,
    )


def _call_runner(runner: JobRunner, job: ShardJob) -> ShardResult:
    """In-worker wrapper: a raising job becomes a failed shard."""
    try:
        return runner(job)
    except Exception as exc:  # noqa: BLE001 — containment is the point
        return _result(job, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Job scheduling.
# ---------------------------------------------------------------------------


def _worker_main(runner: JobRunner, conn) -> None:
    """Worker entry: run each job sent until ``None`` (or EOF: the
    supervisor is gone).  A Ctrl-C to the process group must not kill a
    job mid-drain, so SIGINT is ignored; SIGTERM gets its default action
    back instead of the supervisor's inherited drain handler.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        result = _call_runner(runner, job)
        try:
            conn.send(result)
        except Exception as exc:  # noqa: BLE001 — an unpicklable result
            conn.send(_result(job, f"{type(exc).__name__}: {exc}"))


class _Worker:
    """One long-lived worker process, fed one job at a time over a pipe.

    The supervisor hands over every job itself, so it knows which job a
    worker runs and since when: EOF on the pipe means that job killed
    its worker, and ``kill_at`` is that job's watchdog time.
    """

    def __init__(self, ctx, runner: JobRunner) -> None:
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(runner, child), daemon=True
        )
        self.process.start()
        child.close()
        self.name = f"pid-{self.process.pid}"
        self.job, self.attempt, self.kill_at = None, 0, None

    def start(self, job: ShardJob, attempt: int, grace_factor: float) -> None:
        self.job, self.attempt, self.kill_at = job, attempt, None
        if job.deadline is not None:
            self.kill_at = time.perf_counter() + job.deadline * grace_factor
        try:
            self.conn.send(job)
        except OSError:  # it died while idle: the EOF is read as this job's crash
            pass

    def stop(self) -> None:
        """Let an idle worker exit; kill one that is still on a job."""
        if self.job is None:
            try:
                self.conn.send(None)
                self.process.join(timeout=5.0)
            except OSError:
                pass
        self.process.kill()  # SIGKILL: no handler can delay a watchdog kill
        self.process.join()
        self.conn.close()


def run_jobs(
    jobs: Sequence[ShardJob],
    workers: int = 1,
    runner: JobRunner = execute_job,
    time_budget: Optional[float] = None,
    grace_factor: float = 2.0,
    max_retries: int = 0,
    retry_backoff: float = 0.25,
    retry_jitter: float = 0.0,
    jitter_seed: str = "",
    on_result: Optional[Callable[[ShardResult], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> List[ShardResult]:
    """Run ``jobs`` in ``workers`` slots; return results by job index.

    The slots are the calling process when ``workers <= 1`` and no job
    has a deadline, else long-lived worker processes fed one job at a
    time: a job outliving ``deadline * grace_factor`` is killed (a
    ``hang``), a worker death is a ``crash`` of the job it ran, and a
    lost worker is replaced when a job next needs its slot.  A hang or
    crash is retried after :func:`retry_delay` until ``max_retries`` is
    used up, then quarantined; anything else is terminal.  Every
    terminal result goes to ``on_result`` on the calling process, in
    completion order (the checkpoint journal hangs off this hook).  Once
    ``time_budget`` expires or ``should_stop()`` is true, nothing new
    starts and pending retries are dropped; running jobs finish, and
    jobs without a terminal result have no entry in the returned list.
    """
    started = time.perf_counter()
    budget_end = None if time_budget is None else started + time_budget
    in_process = workers <= 1 and all(job.deadline is None for job in jobs)
    workers = max(1, workers)
    ctx = multiprocessing.get_context()
    pending = deque((job, 1) for job in jobs)
    delayed: List[Tuple[float, int, ShardJob, int]] = []  # a heap by due time
    idle: List[_Worker] = []
    busy: Dict[object, _Worker] = {}  # by pipe
    results: Dict[int, ShardResult] = {}

    def settle(job: ShardJob, attempt: int, result: ShardResult) -> None:
        result.attempts = attempt
        kind = result.failure_kind
        if kind in (_KIND_HANG, _KIND_CRASH):
            if attempt <= max_retries:
                delay = retry_delay(
                    retry_backoff, attempt, retry_jitter, jitter_seed, job.job_index
                )
                due = time.perf_counter() + delay
                heapq.heappush(delayed, (due, job.job_index, job, attempt + 1))
                return
            if max_retries:
                # Partial progress stays on, for the merge to count as discarded.
                detail = f"last failure ({kind}): {result.error}"
                result = replace(
                    result,
                    failure_kind=_KIND_QUARANTINE,
                    error=f"quarantined after {attempt} attempts; {detail}",
                )
        results[job.job_index] = result
        if on_result is not None:
            on_result(result)

    try:
        while pending or delayed or busy:
            now = time.perf_counter()
            expired = budget_end is not None and now >= budget_end
            if expired or (should_stop is not None and should_stop()):
                pending.clear()
                delayed.clear()
            while delayed and delayed[0][0] <= now:
                _due, _index, job, attempt = heapq.heappop(delayed)
                pending.append((job, attempt))
            if in_process and pending:
                job, attempt = pending.popleft()
                settle(job, attempt, _call_runner(runner, job))
                continue
            while pending and len(busy) < workers:
                job, attempt = pending.popleft()
                worker = idle.pop() if idle else _Worker(ctx, runner)
                worker.start(job, attempt, grace_factor)
                busy[worker.conn] = worker
            wake = [w.kill_at for w in busy.values() if w.kill_at is not None]
            if delayed:
                wake.append(delayed[0][0])
                if budget_end is not None:
                    wake.append(budget_end)
            timeout = max(0.0, min(wake) - time.perf_counter()) if wake else None
            if not busy:
                time.sleep(timeout or 0.0)  # only delayed retries, if any, remain
                continue
            for conn in wait(list(busy), timeout):
                worker = busy.pop(conn)
                job, attempt = worker.job, worker.attempt
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    worker.stop()
                    error = f"worker process died (exit code {worker.process.exitcode})"
                    result = _result(job, error, _KIND_CRASH, worker.name)
                else:
                    worker.job = None
                    idle.append(worker)
                settle(job, attempt, result)
            now = time.perf_counter()
            for conn, worker in list(busy.items()):
                if worker.kill_at is not None and now >= worker.kill_at:
                    del busy[conn]
                    worker.stop()
                    limit = f"{worker.job.deadline}s x grace {grace_factor}"
                    error = f"worker killed after exceeding deadline ({limit})"
                    hang = _result(worker.job, error, _KIND_HANG, worker.name)
                    settle(worker.job, worker.attempt, hang)
    finally:
        for worker in idle + list(busy.values()):
            worker.stop()
    return [results[index] for index in sorted(results)]


# ---------------------------------------------------------------------------
# The campaign engine.
# ---------------------------------------------------------------------------


class _Stop:
    """The drain flag: set by :meth:`CampaignExecutor.request_stop`, or by
    SIGINT/SIGTERM while ``with stop:`` holds.

    Only the main thread may install handlers; elsewhere (an executor
    driven from a worker thread) the ``with`` is a no-op and graceful
    shutdown remains available via :meth:`CampaignExecutor.request_stop`.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.requested = False
        self.signal_name = ""
        self._previous: Dict[int, object] = {}

    def request(self, signal_name: str = "") -> None:
        self.requested = True
        if signal_name and not self.signal_name:
            self.signal_name = signal_name

    def __enter__(self) -> "_Stop":
        if threading.current_thread() is not threading.main_thread():
            return self
        for signum in self.SIGNALS:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):
                pass
        return self

    def _handle(self, signum, _frame) -> None:
        self.request(signal.Signals(signum).name)

    def __exit__(self, *_exc) -> None:
        for signum, handler in self._previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError, TypeError):
                pass
        self._previous.clear()


class CampaignExecutor:
    """Shard a campaign's job matrix and merge the results.

    ``corpus`` overrides the generated corpus with explicit
    ``(file_name, text)`` pairs (the :class:`~repro.fuzz.session.Session`
    facade uses this).  ``job_runner`` swaps the per-job entry point —
    useful for fault-injection tests and custom execution strategies.

    With ``config.checkpoint_dir`` set, every terminal shard result is
    journaled durably as it completes, and :meth:`execute` with
    ``resume=True`` skips already-journaled jobs, merging their cached
    results in job-index order — so a killed campaign resumes with
    findings identical to an uninterrupted run.  SIGINT/SIGTERM (or
    :meth:`request_stop`) triggers a graceful drain: no new jobs start,
    in-flight ones finish and are journaled, and the returned report is
    a valid partial state with ``interrupted`` set.
    """

    def __init__(
        self,
        config: Optional[CampaignConfig] = None,
        corpus: Optional[Sequence[Tuple[str, str]]] = None,
        job_runner: JobRunner = execute_job,
    ) -> None:
        self.config = config or CampaignConfig()
        self._corpus = corpus
        self._runner = job_runner
        self._stop = _Stop()

    def request_stop(self) -> None:
        """Ask :meth:`execute` to drain and return (thread-safe).

        Sticky: a request made before ``execute`` starts still applies
        (the run drains immediately, journaling nothing new).
        """
        self._stop.request()

    def build_jobs(self) -> List[ShardJob]:
        """The (file × pipeline) matrix, one picklable job per cell."""
        config = self.config
        corpus = self._corpus
        if corpus is None:
            corpus = generate_corpus(config.corpus_size, config.corpus_seed)
        return [
            ShardJob(
                job_index=job_index,
                file_name=file_name,
                text=text,
                config=config.job_config(job_index, pipeline),
                iterations=config.mutants_per_file,
                time_budget=config.time_budget,
                confirm_attributions=config.confirm_attributions,
                deadline=config.job_deadline,
                trace_dir=config.trace_dir,
                trace_sample=config.trace_sample,
            )
            for job_index, (file_name, text, pipeline) in enumerate(
                (file_name, text, pipeline)
                for file_name, text in corpus
                for pipeline in config.pipelines
            )
        ]

    def execute(self, resume: bool = False) -> CampaignReport:
        from .checkpoint import CheckpointJournal, jobs_fingerprint

        config = self.config
        config.validate()
        if resume and not config.checkpoint_dir:
            raise ValueError("resume=True requires config.checkpoint_dir")
        if config.dist is not None:
            from .dist import run_coordinator

            return run_coordinator(self, resume=resume)
        report = new_report(config)
        started = time.perf_counter()
        jobs = self.build_jobs()
        journal: Optional[CheckpointJournal] = None
        cached: Dict[int, ShardResult] = {}
        fingerprint = ""
        if config.checkpoint_dir or config.retry_jitter > 0.0:
            fingerprint = jobs_fingerprint(jobs)
        if config.checkpoint_dir:
            journal = CheckpointJournal(config.checkpoint_dir)
            cached = journal.start(fingerprint, total_jobs=len(jobs), resume=resume)
        todo = [job for job in jobs if job.job_index not in cached]
        try:
            with self._stop as stop:
                results = run_jobs(
                    todo,
                    workers=config.workers,
                    runner=self._runner,
                    time_budget=config.global_time_budget,
                    grace_factor=config.grace_factor,
                    max_retries=config.max_job_retries,
                    retry_backoff=config.retry_backoff,
                    retry_jitter=config.retry_jitter,
                    jitter_seed=fingerprint,
                    on_result=journal.append if journal else None,
                    should_stop=lambda: stop.requested,
                )
        finally:
            if journal is not None:
                journal.close()
        merged = sorted([*cached.values(), *results], key=lambda r: r.job_index)
        self._merge(report, jobs, merged)
        report.resumed_jobs = len(cached)
        report.interrupted = stop.requested
        report.interrupt_signal = stop.signal_name
        report.elapsed = time.perf_counter() - started
        return report

    def _merge(
        self,
        report: CampaignReport,
        jobs: Sequence[ShardJob],
        results: Sequence[ShardResult],
    ) -> None:
        """Fold shard results (already job-index ordered) into the report.

        Accounting contract: each job contributes to the campaign totals
        (``total_iterations``, metrics, timings) through its **final
        successful attempt only**.  Failed/quarantined shards may carry
        partial progress from their last attempt (cooperative hangs ship
        it back); that work is recorded as
        ``campaign.retry.discarded_iterations`` — never added to
        ``total_iterations`` — so a retried job is not double-counted.
        """
        metrics = report.metrics
        for shard in results:
            if shard.attempts > 1:
                metrics.count("campaign.retry.attempts", shard.attempts - 1)
            if shard.error and shard.iterations:
                metrics.count("campaign.retry.discarded_iterations", shard.iterations)
            where = (shard.job_index, shard.file_name, shard.pipeline)
            if shard.failure_kind == _KIND_QUARANTINE:
                metrics.count("campaign.quarantined")
                job = QuarantinedJob(*where, shard.seed, shard.attempts, shard.error)
                report.quarantined.append(job)
                continue
            if shard.error:
                metrics.count("campaign.failed_shards")
                kind = shard.failure_kind or "error"
                report.failed_shards.append(ShardFailure(*where, shard.error, kind))
                continue
            if shard.parse_error:
                metrics.count("campaign.parse_failures")
                failure = ShardFailure(*where, shard.parse_error, "parse")
                report.parse_failures.append(failure)
                continue
            metrics.count("campaign.jobs.completed")
            metrics.merge(shard.metrics)
            if shard.feedback is not None:
                if report.feedback is None:
                    report.feedback = FeedbackStats()
                report.feedback.merge(shard.feedback)
            report.total_iterations += shard.iterations
            report.total_findings += len(shard.findings)
            _add_timings(report.timings, shard.timings)
            timings = report.worker_timings.setdefault(shard.worker, StageTimings())
            _add_timings(timings, shard.timings)
            for finding, confirmed in zip(shard.findings, shard.confirmed_bug_ids):
                if not finding.bug_ids:
                    report.unattributed.append(finding)
                    continue
                for bug_id in confirmed:
                    outcome = report.outcomes.get(bug_id)
                    if outcome is None:
                        continue
                    outcome.findings += 1
                    if not outcome.found:
                        outcome.found = True
                        outcome.first_file = shard.file_name
                        outcome.first_seed = finding.seed
        report.skipped_jobs = len(jobs) - len(results)
        if report.skipped_jobs:
            metrics.count("campaign.skipped_jobs", report.skipped_jobs)


def _add_timings(total: StageTimings, part: StageTimings) -> None:
    total.mutate += part.mutate
    total.optimize += part.optimize
    total.verify += part.verify
