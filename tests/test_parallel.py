"""Tests for the sharded campaign engine (repro.fuzz.parallel)."""

import os
import time

import pytest

from repro.fuzz import (CampaignConfig, CampaignExecutor, FaultSpec,
                        FaultyRunner, ShardJob, ShardResult, execute_job,
                        run_campaign, run_jobs)
from repro.fuzz.campaign import JOB_SEED_STRIDE

SMALL = dict(corpus_size=6, mutants_per_file=10, max_inputs=8,
             pipelines=("O2",))


def report_key(report):
    """Everything that must be identical across worker counts."""
    return (
        report.total_iterations,
        report.total_findings,
        [(f.kind, f.seed, f.file, tuple(f.bug_ids))
         for f in report.unattributed],
        {bug_id: (o.found, o.first_file, o.first_seed, o.findings)
         for bug_id, o in report.outcomes.items()},
    )


# Module-level so they pickle by reference into spawned workers.
def poisoned_runner(job):
    if job.job_index == 2:
        raise RuntimeError("poisoned job")
    return execute_job(job)


def dying_runner(job):
    if job.job_index == 1:
        os._exit(17)  # kill the worker process outright
    return execute_job(job)


def slow_runner(job):
    time.sleep(0.25)
    return execute_job(job)


def slow_dying_runner(job):
    time.sleep(0.2)
    os._exit(17)


def parse_error_runner(job):
    if job.job_index == 3:
        return ShardResult(job_index=job.job_index, file_name=job.file_name,
                           pipeline=job.config.pipeline, worker="test",
                           parse_error="expected type at line 1")
    return execute_job(job)


class TestDeterminism:
    @pytest.fixture(scope="class")
    def sequential(self):
        return run_campaign(CampaignConfig(workers=1, **SMALL))

    def test_parallel_report_matches_sequential(self, sequential):
        parallel = run_campaign(CampaignConfig(workers=4, **SMALL))
        assert report_key(parallel) == report_key(sequential)

    def test_two_workers_matches_too(self, sequential):
        parallel = run_campaign(CampaignConfig(workers=2, **SMALL))
        assert report_key(parallel) == report_key(sequential)

    def test_job_seed_derivation_is_index_based(self):
        executor = CampaignExecutor(CampaignConfig(base_seed=7, **SMALL))
        jobs = executor.build_jobs()
        assert [job.job_index for job in jobs] == list(range(len(jobs)))
        for job in jobs:
            assert job.config.base_seed == 7 + job.job_index * JOB_SEED_STRIDE
            assert job.config.tv.seed == 7 + job.job_index

    def test_worker_timings_sum_to_totals(self):
        report = run_campaign(CampaignConfig(workers=3, **SMALL))
        assert report.worker_timings
        total = sum(t.total for t in report.worker_timings.values())
        assert total == pytest.approx(report.timings.total)


class TestCrashContainment:
    def test_raising_job_becomes_failed_shard(self):
        config = CampaignConfig(workers=2, **SMALL)
        report = CampaignExecutor(config, job_runner=poisoned_runner).execute()
        assert len(report.failed_shards) == 1
        failure = report.failed_shards[0]
        assert failure.job_index == 2
        assert "poisoned" in failure.error
        # The rest of the campaign still ran and merged.
        expected_jobs = len(CampaignExecutor(config).build_jobs())
        assert report.total_iterations == \
            (expected_jobs - 1) * SMALL["mutants_per_file"]

    def test_raising_job_contained_sequentially_too(self):
        config = CampaignConfig(workers=1, **SMALL)
        report = CampaignExecutor(config, job_runner=poisoned_runner).execute()
        assert [f.job_index for f in report.failed_shards] == [2]

    def test_worker_process_death_is_contained(self):
        # os._exit kills the worker; EOF on its pipe pins the death on
        # the job it was running, so exactly the dying job is failed.
        config = CampaignConfig(workers=2, **SMALL)
        report = CampaignExecutor(config, job_runner=dying_runner).execute()
        assert [f.job_index for f in report.failed_shards] == [1]
        assert report.failed_shards[0].kind == "crash"
        assert "died" in report.failed_shards[0].error
        expected_jobs = len(CampaignExecutor(config).build_jobs())
        assert report.total_iterations == \
            (expected_jobs - 1) * SMALL["mutants_per_file"]

    def test_workers_are_reused_and_a_dead_one_replaced(self):
        # Two long-lived workers run six jobs; job 2 kills its worker,
        # which is replaced once.  A process per job would show six pids.
        jobs = CampaignExecutor(CampaignConfig(**SMALL)).build_jobs()
        results = run_jobs(jobs, workers=2,
                           runner=FaultyRunner({2: FaultSpec("exit")}))
        assert [r.job_index for r in results] == list(range(6))
        assert [r.job_index for r in results if r.error] == [2]
        assert results[2].failure_kind == "crash"
        assert len({r.worker for r in results}) <= 3


class TestGlobalTimeBudget:
    def test_zero_budget_skips_everything_sequentially(self):
        report = run_campaign(CampaignConfig(
            workers=1, global_time_budget=1e-9, **SMALL))
        total_jobs = SMALL["corpus_size"] * len(SMALL["pipelines"])
        assert report.skipped_jobs == total_jobs
        assert report.total_iterations == 0

    def test_parallel_zero_budget_skips_everything(self):
        # Submission is gated on the budget, so an already-expired budget
        # starts no jobs at all.
        report = run_campaign(CampaignConfig(
            workers=2, global_time_budget=1e-9, **SMALL))
        total_jobs = SMALL["corpus_size"] * len(SMALL["pipelines"])
        assert report.skipped_jobs == total_jobs
        assert report.total_iterations == 0

    def test_parallel_midrun_budget_drains_and_reports_skips(self):
        # A budget that expires mid-campaign: whatever ran was merged,
        # whatever did not start is counted, nothing is lost or orphaned.
        report = run_campaign(CampaignConfig(
            workers=2, global_time_budget=0.05, **SMALL))
        total_jobs = SMALL["corpus_size"] * len(SMALL["pipelines"])
        merged_jobs = (total_jobs - report.skipped_jobs
                       - len(report.failed_shards))
        assert 0 <= merged_jobs <= total_jobs
        assert report.total_iterations <= \
            total_jobs * SMALL["mutants_per_file"]

    def test_budget_expiry_starts_no_new_job(self):
        # Jobs take ~0.25s each and the budget expires at 0.1s: the two
        # jobs started at once finish and merge, and no slot is refilled
        # after expiry — the other ten simply have no entry (skipped,
        # not failed).
        wide = dict(SMALL, corpus_size=12)
        jobs = CampaignExecutor(CampaignConfig(**wide)).build_jobs()
        results = run_jobs(jobs, workers=2, runner=slow_runner,
                           time_budget=0.1)
        assert [r.job_index for r in results] == [0, 1]
        assert all(not r.error for r in results)

    def test_deaths_after_expiry_are_crashes_at_their_indices(self):
        # Every worker dies 0.2s in, after the 0.1s budget has expired.
        # Each death is pinned on the job its worker was running, no
        # replacement worker starts another job, and the run ends fast.
        jobs = CampaignExecutor(CampaignConfig(**SMALL)).build_jobs()
        started = time.perf_counter()
        results = run_jobs(jobs, workers=2, runner=slow_dying_runner,
                           time_budget=0.1)
        elapsed = time.perf_counter() - started
        assert [(r.job_index, r.failure_kind) for r in results] == \
            [(0, "crash"), (1, "crash")]
        assert all("exit code 17" in r.error for r in results)
        assert elapsed < 10.0


class TestParseFailureSurfacing:
    def test_parse_error_shard_lands_in_parse_failures(self):
        config = CampaignConfig(workers=2, **SMALL)
        report = CampaignExecutor(
            config, job_runner=parse_error_runner).execute()
        assert [f.job_index for f in report.parse_failures] == [3]
        failure = report.parse_failures[0]
        assert failure.kind == "parse"
        assert "expected type" in failure.error
        assert not report.failed_shards
        # The rest of the campaign merged normally.
        expected_jobs = len(CampaignExecutor(config).build_jobs())
        assert report.total_iterations == \
            (expected_jobs - 1) * SMALL["mutants_per_file"]
        assert "parse failure" in report.table()


class TestRunJobs:
    def test_results_ordered_by_job_index(self):
        executor = CampaignExecutor(CampaignConfig(**SMALL))
        jobs = executor.build_jobs()[:4]
        results = run_jobs(jobs, workers=3)
        assert [r.job_index for r in results] == [0, 1, 2, 3]
        assert all(isinstance(r, ShardResult) for r in results)

    def test_parse_error_recorded_not_raised(self):
        job = ShardJob(job_index=0, file_name="bad.ll", text="not ir at all",
                       config=CampaignConfig(**SMALL).job_config(0, "O2"),
                       iterations=5)
        result = execute_job(job)
        assert result.parse_error
        assert result.iterations == 0

    def test_empty_module_yields_zero_iteration_shard(self):
        job = ShardJob(job_index=0, file_name="wide.ll",
                       text="define i128 @wide(i128 %x) {\n"
                            "  ret i128 %x\n}\n",
                       config=CampaignConfig(**SMALL).job_config(0, "O2"),
                       iterations=5)
        result = execute_job(job)
        assert result.iterations == 0
        assert not result.error
        assert "wide" in result.dropped_functions
