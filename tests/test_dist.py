"""Distributed campaigns over the shared directory: the lease suite,
directory-only behaviour, node runners, coordinator merge.

The lease and result protocol itself is written once in
``queue_protocol.py`` and bound here to :class:`WorkQueue`; this module
adds what only a directory has (clock skew per reader, damaged and torn
files, file-level read accounting, the queue-version-2 file layout).
The store-level chaos suite runs here over the directory and in
``test_lease.py`` over memory.
Campaign-level tests prove the headline invariant — kill any node (or
the coordinator) mid-campaign, resume, and the merged findings +
``deterministic()`` metrics equal an uninterrupted single-host run, with
reclaimed-job duplicates deduplicated.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.fuzz import CampaignConfig, run_campaign
from repro.fuzz.checkpoint import jobs_fingerprint, result_to_dict
from repro.fuzz.dist import (DirectoryStore, DistConfig, NodeRunner,
                             WorkQueue, config_base, job_from_wire,
                             job_to_wire, merge_corpus_journals)
from repro.fuzz.faults import ChaosQueue, torn_write
from repro.fuzz.parallel import CampaignExecutor
from repro.fuzz.wire import BlobStore, encode_payload
from repro.ir.parser import parse_module
from repro.ir.printer import print_module

from .queue_protocol import (IR, ChaosSuite, FakeClock, LeaseProtocolSuite,
                             QueueHarness, ResultPublishingSuite, make_jobs,
                             make_result, node_death_interleavings,
                             report_key, v2_job_record, v2_manifest)

SMALL = dict(corpus_size=4, mutants_per_file=8, max_inputs=8,
             pipelines=("O2",))


@pytest.fixture()
def harness(tmp_path):
    return QueueHarness("dir", str(tmp_path / "queue"))


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


def wire_round_trip(job, shared_config):
    """``job`` through its JSON queue record, as a node rehydrates it."""
    record = job_to_wire(job, shared_config, "sha", "text")
    return job_from_wire(json.loads(json.dumps(record)), shared_config,
                         job.text)


class TestJobSerialization:
    def test_round_trip_preserves_fingerprint(self):
        jobs = make_jobs()
        rebuilt = [wire_round_trip(job, config_base(jobs)) for job in jobs]
        assert jobs_fingerprint(rebuilt) == jobs_fingerprint(jobs)

    def test_round_trip_preserves_budgets_and_deadline(self):
        job = make_jobs(1)[0]
        job.deadline = 12.5
        job.time_budget = 3.0
        job.confirm_attributions = True
        rebuilt = wire_round_trip(job, config_base(make_jobs()))
        assert rebuilt.deadline == 12.5
        assert rebuilt.time_budget == 3.0
        assert rebuilt.confirm_attributions is True
        assert rebuilt.config.base_seed == job.config.base_seed


# ---------------------------------------------------------------------------
# The lease protocol (fake clock; no campaign runs).
# ---------------------------------------------------------------------------


class TestLeaseProtocol(LeaseProtocolSuite):
    TRANSPORT = "dir"

    def test_heartbeat_under_clock_skew_keeps_exclusivity(self, transport):
        transport.publish(make_jobs(1), lease_duration=10.0)
        base = transport.clock
        # This node's clock runs 6 s behind.
        skewed = WorkQueue(transport.directory, node="n1",
                           clock=lambda: base() - 6.0)
        skewed.claim_next()
        # The skewed owner heartbeats on its own (late) clock; a peer on
        # true time must still see a live lease after renewal.
        base.advance(8.0)
        assert skewed.heartbeat(0, 10.0)
        peer = transport.node("n2")
        # expires_at = skewed_now(1002) + 10 = 1012 > true now (1008).
        assert peer.claim_next() == []
        # Skew eats into effective lease time but never grants two owners:
        # once the true clock passes the skewed expiry the lease is simply
        # reclaimable, which is the at-least-once path, not a safety hole.
        base.advance(10.0)
        assert peer.claim_next() != []

    def test_damaged_lease_file_reads_as_claimable(self, transport):
        transport.publish(make_jobs(1))
        transport.node().claim_next()
        path = transport.store().path("lease", 0)
        torn_write(path, b'{"kind": "lease", "node": "n1"', fraction=0.7)
        (_job, lease), = transport.node("n2").claim_next()
        assert lease.node == "n2"
        # A file that parses but is no lease reads as damaged too.
        torn_write(path, b'{"kind": "lease", "node": "n2"}', fraction=1.0)
        (_job, lease), = transport.node("n3").claim_next()
        assert lease.node == "n3"


# ---------------------------------------------------------------------------
# Result publishing: dedup, repair, foreign fingerprints.
# ---------------------------------------------------------------------------


class TestResultPublishing(ResultPublishingSuite):
    TRANSPORT = "dir"

    def test_known_results_are_not_read_again(self, transport, monkeypatch):
        fingerprint = transport.publish()
        queue = transport.node()
        for index in (0, 1, 2):
            assert queue.publish_result(make_result(index), fingerprint)
        read = []
        original = queue.store.read
        monkeypatch.setattr(
            queue.store, "read",
            lambda kind, index: read.append((kind, index))
            or original(kind, index))
        assert set(queue.collect_results(fingerprint, known={0, 2})) == {1}
        assert read == [("result", 1)]

    def test_torn_result_reads_as_absent_and_is_repaired(self, transport):
        fingerprint = transport.publish()
        queue = transport.node()
        path = queue.store.path("result", 0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        torn_write(path, json.dumps(
            {"kind": "result", "fingerprint": fingerprint,
             "result": {"job_index": 0}}).encode(), fraction=0.4)
        assert not queue.settled(0)
        assert 0 not in queue.collect_results(fingerprint)
        assert queue.publish_result(make_result(0), fingerprint)  # repair
        assert queue.collect_results(fingerprint)[0].iterations == 2

    def test_queue_version_2_directory_drains(self, tmp_path):
        """Files the previous release wrote — manifest, job, lease,
        result, tombstone — are read as they are and the queue drains."""
        directory = str(tmp_path / "queue")
        jobs = make_jobs()
        fingerprint = jobs_fingerprint(jobs)
        sha = BlobStore(os.path.join(directory, "blobs")).put(
            encode_payload(IR)[0])

        def write(name, record):
            path = os.path.join(directory, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as stream:
                json.dump(record, stream)

        write("manifest.json", v2_manifest(fingerprint, config_base(jobs), 2))
        for index in range(3):
            write(f"jobs/job-{index:06d}.json",
                  {"kind": "job", "fingerprint": fingerprint,
                   "job": v2_job_record(index, sha)})
        write("results/job-000000.json",
              {"kind": "result", "fingerprint": fingerprint, "node": "n0",
               "attempt": 1, "result": result_to_dict(make_result(0))})
        write("leases/job-000001.json",
              {"kind": "lease", "node": "gone", "attempt": 1,
               "claimed_at": 0.0, "expires_at": 10.0, "released": False,
               "failure_kind": "", "error": ""})
        write("tombstones/job-000002.json",
              {"kind": "tombstone", "reason": "quarantine", "attempts": 3,
               "node": "n9", "failure_kind": "hang",
               "error": "deadline exceeded"})
        queue = WorkQueue(directory, node="n1", clock=FakeClock())
        assert queue.manifest()["fingerprint"] == fingerprint
        assert set(queue.collect_results(fingerprint)) == {0}
        assert queue.collect_tombstones()[2]["reason"] == "quarantine"
        assert not queue.drained()
        (job, lease), = queue.claim_next(limit=3)
        assert (job.job_index, job.config.base_seed) == (1, 100)
        assert job.text == print_module(parse_module(IR))
        assert (lease.node, lease.attempt) == ("n1", 2)
        assert queue.publish_result(make_result(1), fingerprint)
        assert queue.drained()


# ---------------------------------------------------------------------------
# Chaos injections.
# ---------------------------------------------------------------------------


class TestChaosQueue(ChaosSuite):
    TRANSPORT = "dir"


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

        box = {}

        def coordinate():
            box["report"] = run_campaign(config)

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        try:
            # The doomed node claims one job and vanishes mid-lease.
            chaos = ChaosQueue(DirectoryStore(queue_dir))
            doomed = WorkQueue(chaos, node="doomed")
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
            # It never runs the job: simulated kill -9.
            chaos.force_expire(dead_index)
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
            return WorkQueue(ChaosQueue(DirectoryStore(queue_dir),
                                        torn_results={0: 1, 2: 1}),
                             node=name)

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


class TestNodeDeathInterleavings:
    test_any_death_interleaving_preserves_findings = \
        node_death_interleavings("dir")


# ---------------------------------------------------------------------------
# Corpus-journal merging.
# ---------------------------------------------------------------------------


class TestMergeCorpusJournals:
    def test_merges_in_job_index_order(self, tmp_path, harness):
        from repro.fuzz.corpus import Corpus, CorpusEntry, CorpusJournal
        harness.publish()
        queue = harness.node()
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

    def test_duplicate_features_deduplicate(self, tmp_path, harness):
        from repro.fuzz.corpus import Corpus, CorpusEntry, CorpusJournal
        harness.publish()
        queue = harness.node()
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
        assert DistConfig(queue_addr="127.0.0.1:1").validate()

    def test_identical_modules_share_one_blob(self, harness):
        # make_jobs() publishes three jobs over the same module text:
        # content addressing stores the bitcode exactly once.
        harness.publish()
        assert len(harness.node().blobs.digests()) == 1

    def test_unchanged_republish_skips_serialization(self, harness):
        harness.publish()
        coordinator = harness.node("coordinator")
        coordinator.publish(make_jobs(), jobs_fingerprint(make_jobs()))
        assert coordinator.metrics.counter("dist.jobs.unchanged") == 3
        assert coordinator.metrics.counter("dist.jobs.published") == 0
        assert harness.store().indexes("job") == [0, 1, 2]

    def test_bitcode_payload_travels_by_default(self, tmp_path,
                                                reference):
        config = dist_config(tmp_path)
        report, _nodes = run_distributed(config)
        assert report_key(report) == report_key(reference)
        assert report.metrics.counter("bitcode.encode.count") > 0
