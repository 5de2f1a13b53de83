"""Distributed campaigns: lease protocol, node runners, coordinator merge.

Protocol-level tests drive :class:`WorkQueue` directly under a fake
clock (no wall-clock sleeps: lease expiry, backoff windows, and clock
skew are all simulated by advancing the clock), so every lease state
transition is exercised deterministically.  Campaign-level tests prove
the headline invariant — kill any node (or the coordinator)
mid-campaign, resume, and the merged findings + ``deterministic()``
metrics equal an uninterrupted single-host run, with reclaimed-job
duplicates deduplicated.
"""

from __future__ import annotations

import json
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz import CampaignConfig, run_campaign
from repro.fuzz.checkpoint import jobs_fingerprint
from repro.fuzz.dist import (DistConfig, NodeRunner, QueueMismatch,
                             WorkQueue, job_from_dict, job_to_dict,
                             merge_corpus_journals)
from repro.fuzz.driver import FuzzConfig
from repro.fuzz.faults import ChaosQueue, torn_write
from repro.fuzz.parallel import CampaignExecutor, ShardJob, ShardResult

SMALL = dict(corpus_size=4, mutants_per_file=8, max_inputs=8,
             pipelines=("O2",))
# The hypothesis property re-runs campaigns per example; keep them tiny.
TINY = dict(corpus_size=2, mutants_per_file=4, max_inputs=6,
            pipelines=("O2",))

IR = """define i32 @f(i32 %a) {
entry:
  %t = add i32 %a, 1
  ret i32 %t
}
"""


def report_key(report):
    """Everything that must be identical across distribution patterns."""
    return (
        report.total_iterations,
        report.total_findings,
        [(f.kind, f.seed, f.file, tuple(f.bug_ids))
         for f in report.unattributed],
        {bug_id: (o.found, o.first_file, o.first_seed, o.findings)
         for bug_id, o in report.outcomes.items()},
    )


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_jobs(count=3):
    return [ShardJob(job_index=index, file_name=f"f{index}.ll", text=IR,
                     config=FuzzConfig(base_seed=index * 100),
                     iterations=2)
            for index in range(count)]


def make_result(index, worker="w"):
    return ShardResult(job_index=index, file_name=f"f{index}.ll",
                       pipeline="O2", worker=worker, seed=index * 100,
                       iterations=2)


def published_queue(tmp_path, clock=None, node="n1", jobs=None, **manifest):
    jobs = make_jobs() if jobs is None else jobs
    fingerprint = jobs_fingerprint(jobs)
    coordinator = WorkQueue(str(tmp_path), node="coordinator")
    coordinator.publish(jobs, fingerprint, **manifest)
    queue = WorkQueue(str(tmp_path), node=node,
                      clock=clock or FakeClock())
    return queue, fingerprint


@pytest.fixture(scope="module")
def reference():
    return run_campaign(CampaignConfig(workers=1, **SMALL))


def dist_config(tmp_path, **extra):
    return CampaignConfig(
        workers=1,
        dist=DistConfig(queue_dir=os.path.join(str(tmp_path), "queue"),
                        wait_timeout=120.0, **extra.pop("dist", {})),
        **extra, **SMALL)


def run_distributed(config, node_names=("n1",), node_workers=1,
                    resume=False, chaos=None):
    """A coordinator thread plus in-process node runners."""
    box = {}

    def coordinate():
        box["report"] = run_campaign(config, resume=resume)

    coordinator = threading.Thread(target=coordinate)
    coordinator.start()
    reports = []
    try:
        for name in node_names:
            queue = (chaos(name) if chaos is not None
                     else WorkQueue(config.dist.queue_dir, node=name))
            runner = NodeRunner(queue, workers=node_workers)
            reports.append(runner.run(time_budget=120,
                                      wait_for_manifest=60))
    finally:
        coordinator.join(timeout=120)
    assert not coordinator.is_alive(), "coordinator did not finish"
    return box["report"], reports


# ---------------------------------------------------------------------------
# Job serialization.
# ---------------------------------------------------------------------------


class TestJobSerialization:
    def test_round_trip_preserves_fingerprint(self):
        jobs = make_jobs()
        rebuilt = [job_from_dict(json.loads(json.dumps(job_to_dict(job))))
                   for job in jobs]
        assert jobs_fingerprint(rebuilt) == jobs_fingerprint(jobs)

    def test_round_trip_preserves_budgets_and_deadline(self):
        job = make_jobs(1)[0]
        job.deadline = 12.5
        job.time_budget = 3.0
        job.confirm_attributions = True
        rebuilt = job_from_dict(job_to_dict(job))
        assert rebuilt.deadline == 12.5
        assert rebuilt.time_budget == 3.0
        assert rebuilt.confirm_attributions is True
        assert rebuilt.config.base_seed == job.config.base_seed


# ---------------------------------------------------------------------------
# The lease protocol (fake clock; no campaign runs).
# ---------------------------------------------------------------------------


class TestLeaseProtocol:
    def test_claim_is_exclusive(self, tmp_path):
        clock = FakeClock()
        queue, _ = published_queue(tmp_path, clock)
        other = WorkQueue(str(tmp_path), node="n2", clock=clock)
        taken = queue.claim(0)
        assert taken is not None
        job, lease = taken
        assert job.job_index == 0 and lease.attempt == 1
        assert other.claim(0) is None  # live lease

    def test_expired_lease_reclaims_with_bumped_attempt(self, tmp_path):
        clock = FakeClock()
        queue, _ = published_queue(tmp_path, clock,
                                   lease_duration=10.0, retry_backoff=1.0)
        queue.claim(0)
        other = WorkQueue(str(tmp_path), node="n2", clock=clock)
        clock.advance(10.5)           # expired, but inside backoff
        assert other.claim(0) is None
        clock.advance(1.0)            # past expiry + backoff
        taken = other.claim(0)
        assert taken is not None
        assert taken[1].attempt == 2
        assert taken[1].node == "n2"

    def test_reclaim_honors_exponential_backoff(self, tmp_path):
        clock = FakeClock()
        queue, _ = published_queue(tmp_path, clock, lease_duration=10.0,
                                   retry_backoff=2.0, max_attempts=5)
        queue.claim(0)
        clock.advance(12.5)           # 10 + backoff 2*2^0
        assert queue.claim(0) is not None  # attempt 2
        clock.advance(10.5)
        assert queue.claim(0) is None  # attempt-2 backoff is 4s
        clock.advance(4.0)
        taken = queue.claim(0)
        assert taken is not None and taken[1].attempt == 3

    def test_attempts_exhausted_tombstones_as_node_lost(self, tmp_path):
        clock = FakeClock()
        queue, _ = published_queue(tmp_path, clock, lease_duration=5.0,
                                   max_attempts=2, retry_backoff=0.1)
        queue.claim(0)
        clock.advance(100.0)
        queue.claim(0)                # attempt 2 (the last allowed)
        clock.advance(100.0)
        assert queue.claim(0) is None  # exhausted: tombstoned instead
        stones = queue.collect_tombstones()
        assert stones[0]["reason"] == "node_lost"
        assert stones[0]["attempts"] == 2
        assert queue.settled(0)

    def test_released_lease_tombstones_as_quarantine(self, tmp_path):
        clock = FakeClock()
        queue, _ = published_queue(tmp_path, clock, max_attempts=1)
        _job, lease = queue.claim(0)
        queue.release_for_retry(0, lease, "hang", "deadline exceeded")
        assert queue.claim(0) is None
        stones = queue.collect_tombstones()
        assert stones[0]["reason"] == "quarantine"
        assert "deadline exceeded" in stones[0]["error"]

    def test_released_lease_is_reclaimable_before_exhaustion(self, tmp_path):
        clock = FakeClock()
        queue, _ = published_queue(tmp_path, clock, max_attempts=3,
                                   retry_backoff=1.0)
        _job, lease = queue.claim(0)
        queue.release_for_retry(0, lease, "crash", "worker died")
        assert queue.claim(0) is None  # inside backoff
        clock.advance(2.0)
        taken = queue.claim(0)
        assert taken is not None and taken[1].attempt == 2

    def test_heartbeat_renews_and_detects_loss(self, tmp_path):
        clock = FakeClock()
        queue, _ = published_queue(tmp_path, clock, lease_duration=10.0,
                                   retry_backoff=0.1)
        queue.claim(0)
        clock.advance(8.0)
        assert queue.heartbeat(0, 10.0)
        clock.advance(8.0)            # would be past the original expiry
        lease = queue.read_lease(0)
        assert lease.expires_at > clock()
        # Another node steals after expiry; our next heartbeat reports loss.
        clock.advance(20.0)
        thief = WorkQueue(str(tmp_path), node="thief", clock=clock)
        assert thief.claim(0) is not None
        assert not queue.heartbeat(0, 10.0)
        assert queue.metrics.counter("dist.lease.lost") == 1

    def test_heartbeat_under_clock_skew_keeps_exclusivity(self, tmp_path):
        base = FakeClock()
        queue, _ = published_queue(tmp_path, base, lease_duration=10.0)
        skewed = ChaosQueue(str(tmp_path), node="n1", clock=base,
                            clock_skew=-6.0)  # this node's clock runs behind
        skewed.claim(0)
        # The skewed owner heartbeats on its own (late) clock; a peer on
        # true time must still see a live lease after renewal.
        base.advance(8.0)
        assert skewed.heartbeat(0, 10.0)
        peer = WorkQueue(str(tmp_path), node="n2", clock=base)
        # expires_at = skewed_now(2.0) + 10 = 12 > true now (8): still live.
        assert peer.claim(0) is None
        # Skew eats into effective lease time but never grants two owners:
        # once the true clock passes the skewed expiry the lease is simply
        # reclaimable, which is the at-least-once path, not a safety hole.
        base.advance(10.0)
        assert peer.claim(0) is not None

    def test_damaged_lease_file_reads_as_claimable(self, tmp_path):
        clock = FakeClock()
        queue, _ = published_queue(tmp_path, clock)
        queue.claim(0)
        torn_write(queue.lease_path(0), b'{"kind": "lease", "node": "n1"',
                   fraction=0.7)
        other = WorkQueue(str(tmp_path), node="n2", clock=clock)
        taken = other.claim(0)
        assert taken is not None and taken[1].node == "n2"

    def test_sweep_retires_exhausted_leases(self, tmp_path):
        clock = FakeClock()
        queue, _ = published_queue(tmp_path, clock, lease_duration=5.0,
                                   max_attempts=1)
        queue.claim(0)
        queue.claim(1)
        clock.advance(100.0)
        sweeper = WorkQueue(str(tmp_path), node="coordinator", clock=clock)
        assert sweeper.sweep() == 2
        stones = sweeper.collect_tombstones()
        assert set(stones) == {0, 1}
        assert all(s["reason"] == "node_lost" for s in stones.values())
        assert sweeper.metrics.counter("dist.node_lost") == 2


# ---------------------------------------------------------------------------
# Result publishing: dedup, repair, foreign fingerprints.
# ---------------------------------------------------------------------------


class TestResultPublishing:
    def test_duplicate_result_is_dropped_deterministically(self, tmp_path):
        queue, fingerprint = published_queue(tmp_path)
        first = make_result(0, worker="n1")
        assert queue.publish_result(first, fingerprint)
        dupe = make_result(0, worker="n2")
        dupe.iterations = 999  # would corrupt totals if it won
        assert not queue.publish_result(dupe, fingerprint)
        collected = queue.collect_results(fingerprint)
        assert collected[0].worker == "n1"
        assert collected[0].iterations == 2
        assert queue.metrics.counter("dist.results.duplicate") == 1

    def test_known_results_are_not_read_again(self, tmp_path, monkeypatch):
        queue, fingerprint = published_queue(tmp_path)
        for index in (0, 1, 2):
            assert queue.publish_result(make_result(index), fingerprint)
        assert set(queue.collect_results(fingerprint)) == {0, 1, 2}
        read = []
        original = queue._read_json
        monkeypatch.setattr(
            queue, "_read_json",
            lambda path: read.append(os.path.basename(path))
            or original(path))
        assert set(queue.collect_results(fingerprint, known={0, 2})) == {1}
        assert read == [os.path.basename(queue.result_path(1))]

    def test_torn_result_reads_as_absent_and_is_repaired(self, tmp_path):
        queue, fingerprint = published_queue(tmp_path)
        path = queue.result_path(0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        torn_write(path, json.dumps(
            {"kind": "result", "fingerprint": fingerprint,
             "result": {"job_index": 0}}).encode(), fraction=0.4)
        assert not queue.has_result(0)
        assert 0 not in queue.collect_results(fingerprint)
        assert queue.publish_result(make_result(0), fingerprint)  # repair
        assert queue.collect_results(fingerprint)[0].iterations == 2

    def test_foreign_fingerprint_results_are_dropped(self, tmp_path):
        queue, fingerprint = published_queue(tmp_path)
        queue.publish_result(make_result(0), "cafebabe" * 8)
        assert queue.collect_results(fingerprint) == {}
        assert queue.metrics.counter("dist.results.foreign") == 1

    def test_queue_dir_rejects_second_campaign(self, tmp_path):
        _queue, _fingerprint = published_queue(tmp_path)
        other_jobs = [ShardJob(job_index=0, file_name="other.ll", text=IR,
                               config=FuzzConfig(base_seed=7),
                               iterations=1)]
        coordinator = WorkQueue(str(tmp_path), node="coordinator")
        with pytest.raises(QueueMismatch):
            coordinator.publish(other_jobs, jobs_fingerprint(other_jobs))

    def test_republish_same_campaign_is_idempotent(self, tmp_path):
        queue, fingerprint = published_queue(tmp_path)
        coordinator = WorkQueue(str(tmp_path), node="coordinator")
        coordinator.publish(make_jobs(), fingerprint)
        assert queue.manifest()["fingerprint"] == fingerprint
        assert queue.published_indexes() == [0, 1, 2]


# ---------------------------------------------------------------------------
# Chaos injections.
# ---------------------------------------------------------------------------


class TestChaosQueue:
    def test_force_expire_reclaims_without_waiting(self, tmp_path):
        clock = FakeClock()
        chaos = ChaosQueue(str(tmp_path), node="n1", clock=clock)
        queue, _ = published_queue(tmp_path, clock, retry_backoff=0.0)
        del queue
        chaos.claim(0)
        assert chaos.force_expire(0)
        other = WorkQueue(str(tmp_path), node="n2", clock=clock)
        taken = other.claim(0)
        assert taken is not None and taken[1].attempt == 2

    def test_duplicate_delivery_lets_settled_job_be_reclaimed(self,
                                                              tmp_path):
        clock = FakeClock()
        _queue, fingerprint = published_queue(tmp_path, clock,
                                              retry_backoff=0.0)
        chaos = ChaosQueue(str(tmp_path), node="n2", clock=clock,
                           duplicate_delivery={0: 1})
        first = WorkQueue(str(tmp_path), node="n1", clock=clock)
        first.claim(0)
        first.publish_result(make_result(0, worker="n1"), fingerprint)
        clock.advance(100.0)
        taken = chaos.claim(0)        # sees the job as still open once
        assert taken is not None
        assert not chaos.publish_result(make_result(0, worker="n2"),
                                        fingerprint)  # deduped
        assert chaos.collect_results(fingerprint)[0].worker == "n1"


# ---------------------------------------------------------------------------
# Distributed campaigns end to end.
# ---------------------------------------------------------------------------


class TestDistributedCampaign:
    def test_single_node_matches_single_host(self, tmp_path, reference):
        config = dist_config(tmp_path)
        report, (node_report,) = run_distributed(config)
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        assert node_report.published == node_report.jobs_run
        assert not report.failed_shards and not report.quarantined

    def test_two_nodes_match_single_host(self, tmp_path, reference):
        config = dist_config(tmp_path)
        report, node_reports = run_distributed(
            config, node_names=("n1", "n2"), node_workers=2)
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        assert sum(r.published for r in node_reports) == SMALL["corpus_size"]

    def test_node_loss_recovers_with_parity(self, tmp_path, reference):
        """A node claims jobs and dies (lease expiry forced); a healthy
        node reclaims and finishes; the merged report shows parity."""
        config = dist_config(tmp_path,
                             dist=dict(lease_duration=5.0, max_attempts=3))
        queue_dir = config.dist.queue_dir

        def chaos(name):
            if name == "doomed":
                return ChaosQueue(queue_dir, node=name)
            return WorkQueue(queue_dir, node=name)

        box = {}

        def coordinate():
            box["report"] = run_campaign(config)

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        try:
            # The doomed node claims one job and vanishes mid-lease.
            doomed = ChaosQueue(queue_dir, node="doomed")
            runner = NodeRunner(doomed, workers=1)
            manifest = None
            import time as _time
            deadline = _time.monotonic() + 60
            while manifest is None and _time.monotonic() < deadline:
                manifest = doomed.manifest()
                if manifest is None:
                    _time.sleep(0.02)
            assert manifest is not None
            claimed = doomed.claim_next(limit=1)
            assert claimed
            dead_index = claimed[0][0].job_index
            del runner                # never runs the job: simulated kill -9
            doomed.force_expire(dead_index)
            # A healthy node drains everything, including the reclaim.
            healthy = NodeRunner(WorkQueue(queue_dir, node="healthy"),
                                 workers=1)
            healthy.run(time_budget=120, wait_for_manifest=60)
        finally:
            coordinator.join(timeout=120)
        assert not coordinator.is_alive()
        report = box["report"]
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        assert not report.failed_shards

    def test_coordinator_death_nodes_park_results_for_resume(
            self, tmp_path, reference):
        """Kill the coordinator before any result lands: nodes drain the
        queue on their own and park results; a restarted coordinator
        collects them without re-running anything."""
        config = dist_config(tmp_path)
        executor = CampaignExecutor(config)
        jobs = executor.build_jobs()
        fingerprint = jobs_fingerprint(jobs)
        # "Coordinator died right after publishing": only the queue
        # state exists, no coordinator process is polling.
        coordinator_queue = WorkQueue(config.dist.queue_dir,
                                      node="coordinator")
        coordinator_queue.publish(
            jobs, fingerprint, lease_duration=config.dist.lease_duration,
            max_attempts=config.dist.max_attempts,
            retry_backoff=config.retry_backoff)
        node = NodeRunner(WorkQueue(config.dist.queue_dir, node="n1"),
                          workers=2)
        node_report = node.run(time_budget=120, wait_for_manifest=5)
        assert node_report.published == len(jobs)
        # The restarted coordinator collects the parked results.
        report = run_campaign(config)
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()

    def test_torn_results_are_repaired_with_parity(self, tmp_path,
                                                   reference):
        """Chaos tears the first publish of two jobs mid-write; the
        reclaimed attempts repair them and parity holds."""
        config = dist_config(
            tmp_path, dist=dict(lease_duration=2.0, max_attempts=4))
        queue_dir = config.dist.queue_dir

        def chaos(name):
            return ChaosQueue(queue_dir, node=name,
                              torn_results={0: 1, 2: 1})

        report, (node_report,) = run_distributed(config, chaos=chaos)
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        # Chaos bookkeeping lives on the node's queue registry.
        assert node_report.metrics.counter("chaos.results.torn") == 2
        assert node_report.metrics.counter("dist.results.repaired") == 2

    def test_checkpointed_distributed_run_resumes(self, tmp_path,
                                                  reference):
        checkpoint = os.path.join(str(tmp_path), "ckpt")
        config = dist_config(tmp_path, checkpoint_dir=checkpoint)
        report, _ = run_distributed(config)
        assert report_key(report) == report_key(reference)
        # Resume with every job cached: no queue traffic needed.
        resume_config = dist_config(
            os.path.join(str(tmp_path), "second"),
            checkpoint_dir=checkpoint)
        resumed = run_campaign(resume_config, resume=True)
        assert resumed.resumed_jobs == SMALL["corpus_size"]
        assert report_key(resumed) == report_key(reference)
        assert resumed.metrics.deterministic() == \
            reference.metrics.deterministic()

    def test_feedback_corpus_deltas_merge_across_nodes(self, tmp_path):
        from repro.fuzz import Corpus
        from repro.fuzz.dist import MERGED_CORPUS_NAME
        from repro.fuzz.feedback import FeedbackConfig
        config = dist_config(tmp_path, feedback=FeedbackConfig(
            enabled=True, corpus_dir=os.path.join(str(tmp_path), "cd")))
        baseline = run_campaign(CampaignConfig(
            workers=1, feedback=FeedbackConfig(enabled=True), **SMALL))
        report, _ = run_distributed(config, node_names=("n1", "n2"))
        assert report_key(report) == report_key(baseline)
        merged_path = os.path.join(config.dist.queue_dir,
                                   MERGED_CORPUS_NAME)
        queue = WorkQueue(config.dist.queue_dir)
        if queue.corpus_paths():      # deltas only exist if jobs admitted
            merged = Corpus.load(merged_path, max_size=4096)
            per_job = [len(Corpus.load(path, max_size=4096).entries())
                       for _i, path in queue.corpus_paths()]
            assert len(merged) >= 1
            assert len(merged) <= sum(per_job)


# ---------------------------------------------------------------------------
# Hypothesis: any interleaving of node deaths yields the same findings.
# ---------------------------------------------------------------------------


_property_state = {}


def _property_reference():
    if "reference" not in _property_state:
        _property_state["reference"] = run_campaign(
            CampaignConfig(workers=1, **TINY))
    return _property_state["reference"]


class TestNodeDeathInterleavings:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(deaths=st.lists(st.booleans(), min_size=0, max_size=6))
    def test_any_death_interleaving_preserves_findings(self, tmp_path,
                                                       deaths):
        """Each drawn boolean is one scheduling step: True = a node
        claims a job and dies mid-lease (kill -9), False = a node runs
        one job to completion.  Whatever the interleaving, the drained
        queue merges to the uninterrupted run's findings and
        deterministic metrics."""
        reference = _property_reference()
        import shutil
        import uuid
        queue_dir = os.path.join(str(tmp_path), uuid.uuid4().hex)
        config = CampaignConfig(
            workers=1,
            dist=DistConfig(queue_dir=queue_dir, wait_timeout=120.0,
                            lease_duration=30.0, max_attempts=100,
                            poll_interval=0.01),
            **TINY)
        executor = CampaignExecutor(config)
        jobs = executor.build_jobs()
        fingerprint = jobs_fingerprint(jobs)
        coordinator_queue = WorkQueue(queue_dir, node="coordinator")
        coordinator_queue.publish(jobs, fingerprint,
                                  lease_duration=30.0, max_attempts=100,
                                  retry_backoff=0.0)
        clock = FakeClock()
        for step, dies in enumerate(deaths):
            node = f"node-{step}"
            if dies:
                chaos = ChaosQueue(queue_dir, node=node, clock=clock)
                if chaos.claim_next(limit=1):
                    clock.advance(31.0)  # the dead node's lease expires
            else:
                runner = NodeRunner(
                    WorkQueue(queue_dir, node=node, clock=clock),
                    workers=1)
                runner.run_once()
        # A final healthy node drains whatever is left.
        clock.advance(1000.0)
        survivor = NodeRunner(
            WorkQueue(queue_dir, node="survivor", clock=clock), workers=1)
        while survivor.run_once() is not None:
            pass
        report = run_campaign(config)   # restarted coordinator collects
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        shutil.rmtree(queue_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Corpus-journal merging.
# ---------------------------------------------------------------------------


class TestMergeCorpusJournals:
    def test_merges_in_job_index_order(self, tmp_path):
        from repro.fuzz.corpus import Corpus, CorpusEntry, CorpusJournal
        queue, _ = published_queue(tmp_path)
        for index, features in ((0, ("a", "b")), (1, ("b", "c"))):
            path = os.path.join(str(tmp_path), f"delta{index}.jsonl")
            journal = CorpusJournal(path)
            corpus = Corpus(max_size=16, journal=journal)
            corpus.consider(CorpusEntry(text=f"m{index}",
                                        fingerprint=f"fp{index}",
                                        features=frozenset(features)))
            journal.close()
            queue.publish_corpus(index, path)
        out = os.path.join(str(tmp_path), "merged.jsonl")
        merged = merge_corpus_journals(queue, out)
        assert merged == 2
        loaded = Corpus.load(out, max_size=16)
        assert {e.fingerprint for e in loaded.entries()} == {"fp0", "fp1"}

    def test_duplicate_features_deduplicate(self, tmp_path):
        from repro.fuzz.corpus import Corpus, CorpusEntry, CorpusJournal
        queue, _ = published_queue(tmp_path)
        for index in (0, 1):
            path = os.path.join(str(tmp_path), f"delta{index}.jsonl")
            journal = CorpusJournal(path)
            corpus = Corpus(max_size=16, journal=journal)
            corpus.consider(CorpusEntry(text=f"m{index}",
                                        fingerprint=f"fp{index}",
                                        features=frozenset(("same",))))
            journal.close()
            queue.publish_corpus(index, path)
        out = os.path.join(str(tmp_path), "merged.jsonl")
        assert merge_corpus_journals(queue, out) == 1
        loaded = Corpus.load(out, max_size=16)
        # Job-index order decides the surviving witness deterministically.
        assert [e.fingerprint for e in loaded.entries()] == ["fp0"]


# ---------------------------------------------------------------------------
# Binary payloads and deduplicated job records.
# ---------------------------------------------------------------------------


class TestWirePayloads:
    def test_config_requires_exactly_one_transport(self):
        with pytest.raises(ValueError):
            DistConfig().validate()
        with pytest.raises(ValueError):
            DistConfig(queue_dir="/tmp/q",
                       queue_addr="127.0.0.1:1").validate()
        with pytest.raises(ValueError):
            DistConfig(queue_dir="/tmp/q",
                       payload_format="morse").validate()
        assert DistConfig(queue_addr="127.0.0.1:1").validate()

    def test_identical_modules_share_one_blob(self, tmp_path):
        # make_jobs() publishes three jobs over the same module text:
        # content addressing stores the bitcode exactly once.
        queue, _ = published_queue(tmp_path)
        assert len(queue.blobs.digests()) == 1

    def test_unchanged_republish_skips_serialization(self, tmp_path):
        queue, fingerprint = published_queue(tmp_path)
        coordinator = WorkQueue(str(tmp_path), node="coordinator")
        coordinator.publish(make_jobs(), fingerprint)
        assert coordinator.metrics.counter("dist.jobs.unchanged") == 3
        assert coordinator.metrics.counter("dist.jobs.published") == 0
        assert queue.published_indexes() == [0, 1, 2]

    def test_legacy_inline_text_record_still_loads(self, tmp_path):
        # Queue version 1 wrote self-contained records with inline text
        # and full config; old queue directories must drain cleanly.
        queue, fingerprint = published_queue(tmp_path)
        legacy = make_jobs(1)[0]
        queue._write_atomic(queue.job_path(0), {
            "kind": "job",
            "fingerprint": fingerprint,
            "job": job_to_dict(legacy),
        })
        queue._job_cache.pop(0, None)
        loaded = queue.load_job(0)
        assert loaded is not None
        assert loaded.text == legacy.text
        assert loaded.config.base_seed == legacy.config.base_seed

    def test_text_payload_campaign_matches_single_host(self, tmp_path,
                                                       reference):
        config = dist_config(tmp_path,
                             dist=dict(payload_format="text"))
        report, _nodes = run_distributed(config)
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        assert report.metrics.counter("bitcode.encode.count") == 0

    def test_bitcode_payload_travels_by_default(self, tmp_path,
                                                reference):
        config = dist_config(tmp_path)
        report, _nodes = run_distributed(config)
        assert report_key(report) == report_key(reference)
        assert report.metrics.counter("bitcode.encode.count") > 0
