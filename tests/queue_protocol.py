"""One lease-protocol suite, run over three queue bindings.

Every behaviour of the lease and result protocol is written once here
and bound to a transport by its test class: ``TestLeaseProtocol`` /
``TestResultPublishing`` / ``TestChaosQueue`` /
``TestNodeDeathInterleavings`` in ``test_dist.py`` run it over the
shared-directory :class:`WorkQueue`, ``TestMemoryProtocol`` /
``TestMemoryChaos`` in ``test_lease.py`` over per-node queues sharing
one :class:`MemoryStore`, and ``TestSocketProtocol`` /
``TestSocketNodeDeathInterleavings`` in ``test_net.py`` over a loopback
:class:`QueueBroker` + :class:`SocketQueue`.  All use the same
:class:`FakeClock`, so lease expiry and backoff are simulated by
advancing it, never by sleeping.  What only one transport can have —
damaged lease files, torn results, disconnects, the broker journal — is
tested next to that transport.
"""

from __future__ import annotations

import os
import uuid

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz import CampaignConfig, run_campaign
from repro.fuzz.checkpoint import jobs_fingerprint
from repro.fuzz.dist import (DirectoryStore, DistConfig, NodeRunner,
                             QueueMismatch, WorkQueue)
from repro.fuzz.driver import FuzzConfig
from repro.fuzz.faults import ChaosQueue
from repro.fuzz.lease import Lease
from repro.fuzz.net import MemoryStore, QueueBroker, SocketQueue
from repro.fuzz.parallel import CampaignExecutor, ShardJob, ShardResult
from repro.ir.parser import parse_module
from repro.ir.printer import print_module

# The hypothesis property re-runs campaigns per example; keep them tiny.
TINY = dict(corpus_size=2, mutants_per_file=4, max_inputs=6,
            pipelines=("O2",))

IR = """define i32 @f(i32 %a) {
entry:
  %t = add i32 %a, 1
  ret i32 %t
}
"""


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


def v2_job_record(index, sha):
    """Job ``index`` of :func:`make_jobs` as queue version 2 stores it:
    config overrides against job 0's config, module by blob digest."""
    return {"job_index": index, "file_name": f"f{index}.ll",
            "payload": {"sha": sha, "format": "bitcode"},
            "config": {"base_seed": index * 100} if index else {},
            "iterations": 2, "time_budget": None,
            "confirm_attributions": False, "deadline": None,
            "trace_dir": None, "trace_sample": 1.0}


def v2_manifest(fingerprint, shared_config, version):
    """The manifest queue version 2 wrote for :func:`make_jobs`."""
    return {"kind": "manifest", "version": version,
            "fingerprint": fingerprint, "total_jobs": 3,
            "lease_duration": 30.0, "max_attempts": 3,
            "retry_backoff": 0.25, "retry_jitter": 0.0,
            "shared_config": shared_config}


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


class QueueHarness:
    """Per-node queues over one transport, all on one fake clock.

    ``"dir"`` opens :class:`WorkQueue` instances on ``directory``;
    ``"memory"`` opens them over one shared :class:`MemoryStore`;
    ``"socket"`` starts an in-memory broker on the fake clock and opens
    :class:`SocketQueue` clients to it.
    """

    def __init__(self, kind: str, directory: str) -> None:
        assert kind in ("dir", "memory", "socket"), kind
        self.clock = FakeClock()
        self.directory = directory
        self.broker = None
        self.memory = MemoryStore() if kind == "memory" else None
        self._opened = []
        if kind == "socket":
            self.broker = QueueBroker(clock=self.clock)
            self.broker.start()

    def node(self, name="n1"):
        if self.broker is None:
            queue = WorkQueue(self.memory or self.directory, node=name,
                              clock=self.clock)
        else:
            queue = SocketQueue(self.broker.address, node=name,
                                connect_timeout=10.0, retry_interval=0.05)
        self._opened.append(queue)
        return queue

    def store(self):
        """The record store every node's records live in (the broker's,
        over the socket)."""
        if self.broker is not None:
            return self.broker.store
        return self.memory or DirectoryStore(self.directory)

    def chaos(self, **faults):
        """A fault-injecting store over this binding's records; the
        broker's store is out of a socket client's reach."""
        assert self.broker is None, "chaos stores wrap dir or memory"
        return ChaosQueue(self.store(), **faults)

    def publish(self, jobs=None, **manifest):
        jobs = make_jobs() if jobs is None else jobs
        fingerprint = jobs_fingerprint(jobs)
        self.node("coordinator").publish(jobs, fingerprint, **manifest)
        return fingerprint

    def lease(self, index):
        """The stored lease of job ``index`` (None if there is none)."""
        record = self.store().read("lease", index)
        return None if record is None else Lease.from_dict(record)

    def corrupt_blobs(self):
        """Overwrite every stored module blob with bytes that do not
        decode."""
        blobs = self.store().blobs
        for digest in blobs.digests():
            if blobs.directory is None:
                blobs._memory[digest] = b"garbage"
            else:
                with open(os.path.join(blobs.directory, digest), "wb") as out:
                    out.write(b"garbage")

    def counter(self, queue, name):
        """A ``dist.*`` counter of the decisions ``queue`` asked for: the
        broker keeps them over the socket, the shared store's registry in
        memory, the node's queue over a directory."""
        registry = queue.metrics if self.broker is None \
            else self.broker.metrics
        return registry.counter(name)

    def dist_config(self, **fields):
        assert self.memory is None, "a campaign needs dir or socket"
        if self.broker is None:
            return DistConfig(queue_dir=self.directory, **fields)
        return DistConfig(queue_addr=self.broker.address, **fields)

    def close(self):
        for queue in self._opened:
            queue.close()
        if self.broker is not None:
            self.broker.stop()


class TransportSuite:
    """Binds the ``transport`` fixture to the subclass's ``TRANSPORT``."""

    TRANSPORT = ""

    @pytest.fixture()
    def transport(self, tmp_path):
        harness = QueueHarness(self.TRANSPORT, str(tmp_path / "queue"))
        yield harness
        harness.close()


def indexes(claims):
    return [job.job_index for job, _lease in claims]


# ---------------------------------------------------------------------------
# The lease protocol.
# ---------------------------------------------------------------------------


class LeaseProtocolSuite(TransportSuite):
    def test_publish_then_manifest_and_claim(self, transport):
        fingerprint = transport.publish()
        queue = transport.node()
        manifest = queue.manifest()
        assert manifest["fingerprint"] == fingerprint
        assert manifest["total_jobs"] == 3
        claims = queue.claim_next(limit=2)
        assert indexes(claims) == [0, 1]
        # The payload crossed as bitcode; the reconstructed text is the
        # canonical print of the original.
        assert claims[0][0].text == print_module(parse_module(IR))
        assert claims[0][0].config.base_seed == 0
        assert claims[1][0].config.base_seed == 100

    def test_claim_is_exclusive(self, transport):
        transport.publish(make_jobs(1))
        (job, lease), = transport.node("n1").claim_next()
        assert (job.job_index, lease.attempt, lease.node) == (0, 1, "n1")
        assert transport.node("n2").claim_next() == []  # live lease

    def test_claims_are_exclusive_across_clients(self, transport):
        transport.publish()
        assert indexes(transport.node("n1").claim_next()) == [0]
        # A batch claim skips the live lease and fills up from the rest.
        assert indexes(transport.node("n2").claim_next(limit=3)) == [1, 2]

    def test_expired_lease_reclaims_with_bumped_attempt(self, transport):
        transport.publish(make_jobs(1), lease_duration=10.0,
                          retry_backoff=1.0)
        transport.node("n1").claim_next()
        other = transport.node("n2")
        transport.clock.advance(10.5)   # expired, but inside backoff
        assert other.claim_next() == []
        transport.clock.advance(1.0)    # past expiry + backoff
        (job, lease), = other.claim_next()
        assert (job.job_index, lease.attempt, lease.node) == (0, 2, "n2")

    def test_reclaim_honors_exponential_backoff(self, transport):
        transport.publish(make_jobs(1), lease_duration=10.0,
                          retry_backoff=2.0, max_attempts=5)
        queue = transport.node()
        queue.claim_next()
        transport.clock.advance(12.5)   # 10 + backoff 2*2^0
        assert queue.claim_next()       # attempt 2
        transport.clock.advance(10.5)
        assert queue.claim_next() == []  # attempt-2 backoff is 4s
        transport.clock.advance(4.0)
        (_job, lease), = queue.claim_next()
        assert lease.attempt == 3

    def test_attempts_exhausted_tombstones_as_node_lost(self, transport):
        transport.publish(make_jobs(1), lease_duration=5.0, max_attempts=2,
                          retry_backoff=0.1)
        queue = transport.node()
        queue.claim_next()
        transport.clock.advance(100.0)
        assert queue.claim_next()       # attempt 2 (the last allowed)
        transport.clock.advance(100.0)
        assert queue.claim_next() == []  # exhausted: tombstoned instead
        stone = queue.collect_tombstones()[0]
        assert (stone["reason"], stone["attempts"]) == ("node_lost", 2)
        assert queue.drained()

    def test_released_lease_tombstones_as_quarantine(self, transport):
        transport.publish(make_jobs(1), max_attempts=1)
        queue = transport.node()
        (_job, lease), = queue.claim_next()
        queue.release_for_retry(0, lease, "hang", "deadline exceeded")
        assert queue.claim_next() == []
        stone = queue.collect_tombstones()[0]
        assert (stone["reason"], stone["failure_kind"]) == ("quarantine",
                                                            "hang")
        assert "deadline exceeded" in stone["error"]

    def test_released_lease_is_reclaimable_before_exhaustion(self,
                                                             transport):
        transport.publish(make_jobs(1), max_attempts=3, retry_backoff=1.0)
        queue = transport.node()
        (_job, lease), = queue.claim_next()
        queue.release_for_retry(0, lease, "crash", "worker died")
        assert queue.claim_next() == []  # inside backoff
        transport.clock.advance(2.0)
        (_job, lease), = queue.claim_next()
        assert lease.attempt == 2

    def test_stale_release_leaves_the_new_owner_alone(self, transport):
        """A node whose hung job outlived its lease releases *after*
        another node reclaimed the job: the release is a lost lease, not
        a rewrite that would hand the job to a third node."""
        transport.publish(make_jobs(1), lease_duration=10.0,
                          retry_backoff=0.0, max_attempts=3)
        late = transport.node("A")
        (_job, stale), = late.claim_next()
        transport.clock.advance(11.0)   # A's lease expires
        (_job, current), = transport.node("B").claim_next()
        assert current.attempt == 2
        late.release_for_retry(0, stale, "hang", "deadline exceeded")
        assert transport.lease(0) == current
        assert transport.counter(late, "dist.lease.lost") == 1
        assert transport.node("C").claim_next() == []  # B still holds it

    def test_heartbeat_renews_and_detects_loss(self, transport):
        transport.publish(make_jobs(1), lease_duration=10.0,
                          retry_backoff=0.1)
        queue = transport.node()
        queue.claim_next()
        transport.clock.advance(8.0)
        assert queue.heartbeat(0, 10.0)
        transport.clock.advance(8.0)    # past the original expiry
        assert transport.lease(0).expires_at > transport.clock()
        # Another node steals after expiry; our next heartbeat reports loss.
        transport.clock.advance(20.0)
        assert transport.node("thief").claim_next()
        assert not queue.heartbeat(0, 10.0)
        assert transport.counter(queue, "dist.lease.lost") == 1

    def test_heartbeat_renews_only_for_owner(self, transport):
        transport.publish(make_jobs(1), lease_duration=10.0)
        transport.node("n1").claim_next()
        held = transport.lease(0)
        assert transport.node("n2").heartbeat(0, 60.0) is False
        assert transport.lease(0) == held

    def test_sweep_retires_exhausted_leases(self, transport):
        transport.publish(lease_duration=5.0, max_attempts=1)
        transport.node().claim_next(limit=2)
        transport.clock.advance(100.0)
        sweeper = transport.node("coordinator")
        assert sweeper.sweep() == 2
        stones = sweeper.collect_tombstones()
        assert set(stones) == {0, 1}
        assert all(s["reason"] == "node_lost" for s in stones.values())
        assert transport.counter(sweeper, "dist.node_lost") == 2

    def test_drained_and_sweep(self, transport):
        fingerprint = transport.publish(lease_duration=5.0, max_attempts=1)
        queue = transport.node()
        assert queue.drained() is False
        for index in range(3):
            assert queue.claim_next()
            queue.publish_result(make_result(index), fingerprint)
        assert queue.drained() is True
        assert queue.sweep() == 0

    def test_drained_with_no_open_jobs(self, transport):
        """A resumed coordinator whose checkpoint holds every result
        publishes no jobs: the campaign is drained the moment it is
        published, on every transport, and not before."""
        queue = transport.node()
        assert queue.drained() is False
        transport.publish(jobs=[], total_jobs=3)
        assert queue.drained() is True

    def test_unresolvable_job_tombstones_and_drains(self, transport):
        """A job whose module blob is corrupt is still leased: no node
        can run it, so each lease lapses into the ordinary reclaim path
        until the attempts run out and the job is tombstoned."""
        transport.publish(make_jobs(1), lease_duration=5.0, max_attempts=2,
                          retry_backoff=0.1)
        transport.corrupt_blobs()
        queue = transport.node()
        for _round in range(6):
            assert queue.claim_next() == []
            queue.sweep()
            transport.clock.advance(100.0)
        stone = queue.collect_tombstones()[0]
        assert (stone["reason"], stone["attempts"]) == ("node_lost", 2)
        assert transport.counter(queue, "dist.lease.claims") == 1
        assert transport.counter(queue, "dist.lease.reclaims") == 1
        assert queue.drained()


# ---------------------------------------------------------------------------
# Results and publishing.
# ---------------------------------------------------------------------------


class ResultPublishingSuite(TransportSuite):
    def test_duplicate_result_is_dropped_deterministically(self,
                                                           transport):
        fingerprint = transport.publish()
        queue = transport.node()
        assert queue.publish_result(make_result(0, worker="n1"),
                                    fingerprint)
        dupe = make_result(0, worker="n2")
        dupe.iterations = 999  # would corrupt totals if it won
        assert not queue.publish_result(dupe, fingerprint)
        collected = queue.collect_results(fingerprint)
        assert (collected[0].worker, collected[0].iterations) == ("n1", 2)
        assert transport.counter(queue, "dist.results.duplicate") == 1

    def test_collect_omits_known_results(self, transport):
        fingerprint = transport.publish()
        queue = transport.node()
        for index in (0, 1, 2):
            assert queue.publish_result(make_result(index), fingerprint)
        assert set(queue.collect_results(fingerprint)) == {0, 1, 2}
        assert set(queue.collect_results(fingerprint, known=[0, 2])) == {1}
        assert queue.collect_results(fingerprint, known=[0, 1, 2]) == {}

    def test_foreign_fingerprint_results_are_dropped(self, transport):
        fingerprint = transport.publish()
        queue = transport.node()
        queue.publish_result(make_result(0), "cafebabe" * 8)
        assert queue.collect_results(fingerprint) == {}
        assert transport.counter(queue, "dist.results.foreign") == 1

    def test_foreign_fingerprint_publish_mismatches(self, transport):
        transport.publish()
        other_jobs = [ShardJob(job_index=0, file_name="other.ll", text=IR,
                               config=FuzzConfig(base_seed=7),
                               iterations=1)]
        with pytest.raises(QueueMismatch):
            transport.node("stranger").publish(
                other_jobs, jobs_fingerprint(other_jobs))

    def test_republish_same_campaign_is_idempotent(self, transport):
        fingerprint = transport.publish()
        transport.publish()
        queue = transport.node()
        assert queue.manifest()["fingerprint"] == fingerprint
        assert indexes(queue.claim_next(limit=5)) == [0, 1, 2]

    def test_corpus_delta_round_trips(self, transport, tmp_path):
        transport.publish()
        queue = transport.node()
        delta = tmp_path / "job-0.corpus.jsonl"
        delta.write_text('{"kind": "header", "version": 1}\n')
        assert queue.publish_corpus(0, str(delta)) is True
        paths = queue.corpus_paths()
        assert [index for index, _ in paths] == [0]
        assert open(paths[0][1]).read() == delta.read_text()


# ---------------------------------------------------------------------------
# Chaos at the record store (dir and memory: the broker's store is its own).
# ---------------------------------------------------------------------------


class ChaosSuite(TransportSuite):
    def test_force_expire_reclaims_without_waiting(self, transport):
        transport.publish(retry_backoff=0.0)
        chaos = transport.chaos()
        WorkQueue(chaos, node="n1", clock=transport.clock).claim_next()
        assert chaos.force_expire(0)
        (job, lease), = transport.node("n2").claim_next()
        assert (job.job_index, lease.attempt) == (0, 2)

    def test_duplicate_delivery_lets_settled_job_be_reclaimed(self,
                                                              transport):
        fingerprint = transport.publish(make_jobs(1), retry_backoff=0.0)
        first = transport.node("n1")
        first.claim_next()
        first.publish_result(make_result(0, worker="n1"), fingerprint)
        transport.clock.advance(100.0)
        again = WorkQueue(transport.chaos(duplicate_delivery=[0]),
                          node="n2", clock=transport.clock)
        # The settled job reads as open once: claimed and run again.
        assert indexes(again.claim_next()) == [0]
        assert not again.publish_result(make_result(0, worker="n2"),
                                        fingerprint)  # deduped
        assert again.collect_results(fingerprint)[0].worker == "n1"

    def test_duplicate_delivery_never_repairs_the_first_result(self,
                                                              transport):
        """The stale view is one read per job: the re-run's publish reads
        the stored result, so it is a duplicate (not a repair that would
        overwrite the first result), and the job is not claimed again."""
        fingerprint = transport.publish(make_jobs(2), retry_backoff=0.0)
        first = transport.node("n1")
        assert indexes(first.claim_next(limit=2)) == [0, 1]
        for index in (0, 1):
            first.publish_result(make_result(index, worker="n1"),
                                 fingerprint)
        again = WorkQueue(transport.chaos(duplicate_delivery=[0, 1]),
                          node="n2", clock=transport.clock)
        assert indexes(again.claim_next(limit=2)) == [0, 1]
        for index in (0, 1):
            assert not again.publish_result(make_result(index, worker="n2"),
                                            fingerprint)
        transport.clock.advance(100.0)  # n2's leases lapse; jobs settled
        assert again.claim_next(limit=2) == []
        assert transport.counter(again, "dist.results.duplicate") == 2
        assert transport.counter(again, "dist.results.repaired") == 0
        results = first.collect_results(fingerprint)
        assert [results[index].worker for index in (0, 1)] == ["n1", "n1"]


# ---------------------------------------------------------------------------
# Hypothesis: any interleaving of node deaths yields the same findings.
# ---------------------------------------------------------------------------


_property_state = {}


def _property_reference():
    if "reference" not in _property_state:
        _property_state["reference"] = run_campaign(
            CampaignConfig(workers=1, **TINY))
    return _property_state["reference"]


def node_death_interleavings(kind):
    """The node-death property over one transport.

    A factory rather than a base class: hypothesis wants each ``@given``
    test run from one class only, so every transport gets its own copy.
    """

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
        harness = QueueHarness(
            kind, os.path.join(str(tmp_path), uuid.uuid4().hex))
        try:
            config = CampaignConfig(
                workers=1,
                dist=harness.dist_config(wait_timeout=120.0,
                                         lease_duration=30.0,
                                         max_attempts=100,
                                         poll_interval=0.01),
                **TINY)
            jobs = CampaignExecutor(config).build_jobs()
            harness.node("coordinator").publish(
                jobs, jobs_fingerprint(jobs), lease_duration=30.0,
                max_attempts=100, retry_backoff=0.0)
            for step, dies in enumerate(deaths):
                queue = harness.node(f"node-{step}")
                if not dies:
                    NodeRunner(queue, workers=1).run_once()
                elif queue.claim_next(limit=1):
                    harness.clock.advance(31.0)  # the dead lease expires
            # A final healthy node drains whatever is left.
            harness.clock.advance(1000.0)
            survivor = NodeRunner(harness.node("survivor"), workers=1)
            while survivor.run_once() is not None:
                pass
            report = run_campaign(config)   # restarted coordinator
        finally:
            harness.close()
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()

    return test_any_death_interleaving_preserves_findings
