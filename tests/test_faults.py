"""Fault-injection tests for the watchdog/quarantine runtime.

Uses :mod:`repro.fuzz.faults` to deterministically inject raises,
hangs, and worker deaths by job index, and asserts the campaign
contains each failure mode exactly as documented: hangs are detected
within deadline × grace, poison jobs are quarantined after bounded
retries without failing the campaign, and transient faults heal on
retry with results identical to a fault-free run.

Also home to the on-disk crash-consistency matrix: every fsync'd
journal (checkpoint, corpus, findings) and every single-record queue
file survives a torn write or a truncated multi-byte UTF-8 tail — the
reader drops exactly the damaged record, never raises, and never
parses half a record as state.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.fuzz import (CampaignConfig, CampaignExecutor, DeadlineExceeded,
                        FaultSpec, FaultyRunner, FuzzDriver, ShardJob,
                        run_campaign, run_jobs)
from repro.fuzz.parallel import execute_job

SMALL = dict(corpus_size=6, mutants_per_file=10, max_inputs=8,
             pipelines=("O2",))
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def report_key(report):
    return (
        report.total_iterations,
        report.total_findings,
        {bug_id: (o.found, o.first_file, o.first_seed, o.findings)
         for bug_id, o in report.outcomes.items()},
    )


# A campaign run in a fresh interpreter whose workers are spawned, not
# forked: job 1 kills its worker once, then heals on retry.
SPAWN_SCRIPT = """\
import json
import multiprocessing
import sys

from repro.fuzz import CampaignConfig, CampaignExecutor, FaultSpec, FaultyRunner

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    runner = FaultyRunner({{1: FaultSpec("exit", times=1)}},
                          state_dir=sys.argv[1])
    report = CampaignExecutor(
        CampaignConfig(workers=2, max_job_retries=1, retry_backoff=0.01,
                       **{small!r}),
        job_runner=runner).execute()
    key = [report.total_iterations, report.total_findings,
           {{bug_id: [o.found, o.first_file, o.first_seed, o.findings]
             for bug_id, o in report.outcomes.items()}}]
    print(json.dumps({{
        "key": key,
        "retries": report.metrics.counter("campaign.retry.attempts"),
        "failed": len(report.failed_shards) + len(report.quarantined)}}))
"""


@pytest.fixture(scope="module")
def reference():
    return run_campaign(CampaignConfig(workers=1, **SMALL))


class TestCooperativeDeadline:
    def test_driver_raises_at_stage_boundary(self):
        driver = FuzzDriver.from_text(
            "define i8 @f(i8 %x) {\n  %r = add i8 %x, 1\n  ret i8 %r\n}\n")
        driver.set_deadline(0.0)
        with pytest.raises(DeadlineExceeded):
            driver.run(iterations=5)

    def test_execute_job_converts_overrun_to_hang_shard(self):
        job = ShardJob(job_index=0, file_name="f.ll",
                       text="define i8 @f(i8 %x) {\n"
                            "  %r = add i8 %x, 1\n  ret i8 %r\n}\n",
                       config=CampaignConfig(**SMALL).job_config(0, "O2"),
                       iterations=10, deadline=1e-9)
        result = execute_job(job)
        assert result.failure_kind == "hang"
        assert "deadline" in result.error
        assert not result.findings

    def test_generous_deadline_changes_nothing(self, reference):
        report = run_campaign(CampaignConfig(
            workers=1, job_deadline=300.0, **SMALL))
        assert report_key(report) == report_key(reference)
        assert not report.failed_shards

    def test_sequential_hang_recorded_not_raised(self):
        report = run_campaign(CampaignConfig(
            workers=1, job_deadline=1e-9, grace_factor=1.0, **SMALL))
        assert len(report.failed_shards) == 6
        assert all(f.kind == "hang" for f in report.failed_shards)
        assert report.total_iterations == 0


class TestWatchdog:
    def test_hung_worker_is_killed_within_grace(self, reference):
        """An in-worker sleep never reaches a cooperative check; only
        the supervisor-side timer can end it — within deadline×grace
        plus scheduling slack, not the 60s the sleep asks for."""
        runner = FaultyRunner({1: FaultSpec("hang", seconds=60.0)})
        started = time.perf_counter()
        report = CampaignExecutor(
            CampaignConfig(workers=2, job_deadline=0.3, grace_factor=1.5,
                           **SMALL),
            job_runner=runner).execute()
        elapsed = time.perf_counter() - started
        assert [f.job_index for f in report.failed_shards] == [1]
        assert report.failed_shards[0].kind == "hang"
        assert "deadline" in report.failed_shards[0].error
        assert elapsed < 30.0
        # Everyone else still ran and merged.
        assert report.total_iterations == 5 * SMALL["mutants_per_file"]

    def test_hung_job_is_killed_with_one_worker(self):
        """A deadline puts even a single slot in a worker process, so
        the watchdog ends the sleep and the worker is replaced."""
        runner = FaultyRunner({1: FaultSpec("hang", seconds=60.0)})
        started = time.perf_counter()
        report = CampaignExecutor(
            CampaignConfig(workers=1, job_deadline=0.3, grace_factor=1.5,
                           **SMALL),
            job_runner=runner).execute()
        elapsed = time.perf_counter() - started
        assert [(f.job_index, f.kind) for f in report.failed_shards] == \
            [(1, "hang")]
        assert elapsed < 30.0
        assert report.total_iterations == 5 * SMALL["mutants_per_file"]

    def test_hang_then_quarantine_after_retries(self):
        runner = FaultyRunner({1: FaultSpec("hang", seconds=60.0)})
        report = CampaignExecutor(
            CampaignConfig(workers=2, job_deadline=0.2, grace_factor=1.5,
                           max_job_retries=1, retry_backoff=0.01, **SMALL),
            job_runner=runner).execute()
        assert not report.failed_shards
        assert [q.job_index for q in report.quarantined] == [1]
        assert report.quarantined[0].attempts == 2
        assert "hang" in report.quarantined[0].error


class TestQuarantine:
    def test_poison_job_quarantined_without_failing_campaign(self):
        runner = FaultyRunner({2: FaultSpec("exit")})
        report = CampaignExecutor(
            CampaignConfig(workers=2, max_job_retries=2, retry_backoff=0.01,
                           **SMALL),
            job_runner=runner).execute()
        assert [q.job_index for q in report.quarantined] == [2]
        quarantined = report.quarantined[0]
        assert quarantined.attempts == 3  # first try + 2 retries
        assert quarantined.file
        assert quarantined.pipeline == "O2"
        assert quarantined.seed >= 0  # the poison seed is reproducible
        assert not report.failed_shards
        assert report.total_iterations == 5 * SMALL["mutants_per_file"]

    def test_transient_crash_heals_on_retry(self, tmp_path, reference):
        runner = FaultyRunner({2: FaultSpec("exit", times=1)},
                              state_dir=str(tmp_path))
        report = CampaignExecutor(
            CampaignConfig(workers=2, max_job_retries=1, retry_backoff=0.01,
                           **SMALL),
            job_runner=runner).execute()
        assert not report.quarantined
        assert not report.failed_shards
        assert report_key(report) == report_key(reference)

    def test_raising_job_is_not_retried(self, tmp_path):
        """Only hangs and worker deaths are retried: a deterministic
        in-worker exception is recorded first time, every time."""
        runner = FaultyRunner({0: FaultSpec("raise")})
        report = CampaignExecutor(
            CampaignConfig(workers=2, max_job_retries=3, retry_backoff=0.01,
                           **SMALL),
            job_runner=runner).execute()
        assert [f.job_index for f in report.failed_shards] == [0]
        assert report.failed_shards[0].kind == "error"
        assert "injected fault" in report.failed_shards[0].error
        assert not report.quarantined

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hang_retries_do_not_depend_on_worker_count(self, workers):
        """One retry rule for every worker count: one worker retries and
        quarantines the hangs exactly as two do."""
        report = run_campaign(CampaignConfig(
            workers=workers, job_deadline=1e-9, grace_factor=1.0,
            max_job_retries=1, retry_backoff=0.01, corpus_size=2,
            pipelines=("O2",), mutants_per_file=2))
        assert not report.failed_shards
        assert [(q.job_index, q.attempts) for q in report.quarantined] == \
            [(0, 2), (1, 2)]
        assert report.metrics.counter("campaign.retry.attempts") == 2

    def test_spawned_workers_receive_the_runner(self, tmp_path, reference):
        """Under ``spawn`` (the macOS default; ``forkserver``, Linux's
        default from Python 3.14, pickles the same way) a worker gets
        the runner pickled at start-up; a transient crash still heals on
        retry with identical results."""
        script = tmp_path / "spawned.py"
        script.write_text(SPAWN_SCRIPT.format(small=SMALL))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (SRC_DIR, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "state")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outcome = json.loads(done.stdout.splitlines()[-1])
        assert outcome["key"] == json.loads(
            json.dumps(report_key(reference)))
        assert outcome["retries"] == 1 and outcome["failed"] == 0

    def test_times_needs_state_dir(self):
        with pytest.raises(ValueError):
            FaultyRunner({0: FaultSpec("exit", times=1)})


class TestSupervisedScheduler:
    @pytest.mark.parametrize("workers,deadline,retries", list(
        itertools.product((1, 2, 3), (None, 300.0), (0, 2))))
    def test_every_slot_layout_matches_reference(self, reference, workers,
                                                 deadline, retries):
        """In-process or in worker processes, with or without the
        watchdog and retries: without faults every layout reports
        exactly what the in-process reference does."""
        report = run_campaign(CampaignConfig(
            workers=workers, job_deadline=deadline, max_job_retries=retries,
            **SMALL))
        assert report_key(report) == report_key(reference)
        assert not report.failed_shards and not report.quarantined

    def test_time_budget_skips_unstarted_jobs(self):
        jobs = CampaignExecutor(CampaignConfig(**SMALL)).build_jobs()
        for job in jobs:
            job.deadline = 300.0
        results = run_jobs(jobs, workers=2, time_budget=1e-9,
                           max_retries=1)
        assert results == []

    def test_table_footer_reports_health(self):
        runner = FaultyRunner({2: FaultSpec("exit")})
        report = CampaignExecutor(
            CampaignConfig(workers=2, max_job_retries=1, retry_backoff=0.01,
                           **SMALL),
            job_runner=runner).execute()
        table = report.table()
        assert "quarantined" in table


class TestRetryJitter:
    """CampaignConfig.retry_jitter: decorrelated but reproducible backoff."""

    def test_default_off_preserves_exact_delays(self):
        from repro.fuzz.parallel import retry_delay
        assert retry_delay(0.5, 1) == 0.5
        assert retry_delay(0.5, 3) == 2.0
        assert retry_delay(0.5, 3, jitter=0.0, jitter_seed="abc") == 2.0

    def test_jitter_is_seeded_and_bounded(self):
        from repro.fuzz.parallel import retry_delay
        base = retry_delay(0.5, 2)
        jittered = retry_delay(0.5, 2, jitter=0.5, jitter_seed="fp", job_index=3)
        assert base <= jittered < base * 1.5
        # Pure function of (seed, job, attempt): reproducible...
        assert jittered == retry_delay(0.5, 2, jitter=0.5,
                                       jitter_seed="fp", job_index=3)
        # ...and decorrelated across jobs and attempts.
        delays = {retry_delay(0.5, 2, jitter=0.5, jitter_seed="fp",
                              job_index=j) for j in range(8)}
        assert len(delays) > 1

    def test_jittered_campaign_matches_reference(self, tmp_path, reference):
        """Jitter changes retry *timing* only, never findings."""
        runner = FaultyRunner({1: FaultSpec("exit", times=1)},
                              state_dir=str(tmp_path))
        report = CampaignExecutor(
            CampaignConfig(workers=2, max_job_retries=2, retry_backoff=0.01,
                           retry_jitter=0.5, **SMALL),
            job_runner=runner).execute()
        assert report_key(report) == report_key(reference)
        assert not report.quarantined

    def test_negative_jitter_rejected(self):
        from repro.fuzz.campaign import ConfigError
        with pytest.raises(ConfigError):
            CampaignConfig(retry_jitter=-0.1, **SMALL).validate()


# ---------------------------------------------------------------------------
# Crash consistency of every fsync'd journal and queue file.
# ---------------------------------------------------------------------------

# A detail string whose JSON encoding ends in multi-byte UTF-8, so a
# byte-level truncation of the final record splits a sequence.
MULTIBYTE = "péché λόγος ✓"


def truncate_tail_bytes(path, count=2):
    """Cut the last ``count`` bytes — mid-UTF-8-sequence by design."""
    size = os.path.getsize(path)
    with open(path, "rb+") as stream:
        stream.truncate(size - count)


class TestJournalCrashConsistency:
    def test_buglog_tolerates_truncated_multibyte_tail(self, tmp_path):
        from repro.fuzz import BugLog, Finding
        path = str(tmp_path / "bugs.jsonl")
        log = BugLog(path, fsync=True)
        log.record(Finding(kind="crash", seed=1, detail="plain"))
        log.record(Finding(kind="miscompilation", seed=2, detail=MULTIBYTE))
        truncate_tail_bytes(path)
        loaded = BugLog.load(path)
        assert [f.seed for f in loaded.findings] == [1]

    def test_buglog_tolerates_torn_write_tail(self, tmp_path):
        from repro.fuzz import BugLog, Finding, torn_write
        path = str(tmp_path / "bugs.jsonl")
        log = BugLog(path, fsync=True)
        log.record(Finding(kind="crash", seed=1))
        with open(path, "rb") as stream:
            good = stream.read()
        partial = Finding(kind="crash", seed=2,
                          detail=MULTIBYTE).to_json().encode("utf-8")
        torn_write(path, good + partial, fraction=0.9)
        loaded = BugLog.load(path)
        assert [f.seed for f in loaded.findings] == [1]

    def test_corpus_journal_tolerates_truncated_multibyte_tail(
            self, tmp_path):
        from repro.fuzz import Corpus, CorpusEntry, CorpusJournal
        path = str(tmp_path / "corpus.jsonl")
        journal = CorpusJournal(path)
        corpus = Corpus(max_size=8, journal=journal)
        corpus.consider(CorpusEntry(text="a", fingerprint="fa",
                                    features=frozenset(("x",))))
        corpus.consider(CorpusEntry(text=MULTIBYTE, fingerprint="fb",
                                    features=frozenset(("y",))))
        journal.close()
        truncate_tail_bytes(path)
        loaded = Corpus.load(path, max_size=8)
        assert [e.fingerprint for e in loaded.entries()] == ["fa"]

    def test_checkpoint_journal_tolerates_truncated_multibyte_tail(
            self, tmp_path, reference):
        from repro.fuzz.checkpoint import JOURNAL_NAME
        config = CampaignConfig(workers=1, checkpoint_dir=str(tmp_path),
                                **SMALL)
        run_campaign(config)
        path = os.path.join(str(tmp_path), JOURNAL_NAME)
        # Graft a record whose tail is a split multi-byte sequence.
        with open(path, "ab") as stream:
            stream.write(json.dumps({"kind": "shard", "job_index": 99,
                                     "error": MULTIBYTE}).encode()[:-2])
        resumed = run_campaign(config, resume=True)
        assert report_key(resumed) == report_key(reference)

    def test_damage_journal_on_corpus_journal(self, tmp_path):
        from repro.fuzz import (Corpus, CorpusEntry, CorpusJournal,
                                damage_journal)
        path = str(tmp_path / "corpus.jsonl")
        journal = CorpusJournal(path)
        corpus = Corpus(max_size=8, journal=journal)
        corpus.consider(CorpusEntry(text="a", fingerprint="fa",
                                    features=frozenset(("x",))))
        corpus.consider(CorpusEntry(text="b", fingerprint="fb",
                                    features=frozenset(("y",))))
        journal.close()
        damage_journal(path)
        loaded = Corpus.load(path, max_size=8)
        assert [e.fingerprint for e in loaded.entries()] == ["fa"]

    def test_damage_journal_on_single_record_queue_file(self, tmp_path):
        from repro.fuzz import damage_journal
        from repro.fuzz.dist import WorkQueue
        queue = WorkQueue(str(tmp_path), node="n1")
        path = queue.store.path("lease", 0)
        queue.store.replace("lease", 0,
                            {"kind": "lease", "node": "n1", "attempt": 1,
                             "claimed_at": 0.0, "expires_at": 9.0})
        with pytest.raises(ValueError):
            damage_journal(path)  # journal contract kept
        damage_journal(path, allow_single=True)
        assert queue.read_lease(0) is None  # damaged == absent

    def test_torn_queue_files_read_as_absent(self, tmp_path):
        from repro.fuzz import torn_write
        from repro.fuzz.dist import WorkQueue
        queue = WorkQueue(str(tmp_path), node="n1")
        payload = json.dumps({"kind": "manifest", "fingerprint": "f" * 64,
                              "detail": MULTIBYTE}).encode("utf-8")
        torn_write(os.path.join(str(tmp_path), "manifest.json"), payload,
                   fraction=0.6)
        assert queue.manifest() is None
        path = queue.store.path("tombstone", 0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        torn_write(path, payload, fraction=0.3)
        assert not queue.settled(0)
        assert queue.metrics.counter("dist.files.damaged") == 2
