"""The socket transport: broker protocol, crash recovery, campaign parity.

Protocol tests drive :class:`QueueBroker` + :class:`SocketQueue` over a
real loopback socket under a fake broker clock (lease expiry and backoff
are simulated by advancing the clock, not by sleeping).  Campaign tests
prove the tentpole invariant — findings and ``deterministic()`` metrics
over the socket transport (either payload format, with or without
injected chaos, across a broker kill/restart) are identical to a
single-host run.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.fuzz import CampaignConfig, run_campaign
from repro.fuzz.checkpoint import jobs_fingerprint
from repro.fuzz.dist import DistConfig, NodeRunner, QueueMismatch
from repro.fuzz.driver import FuzzConfig
from repro.fuzz.faults import ChaosSocketQueue, damage_journal
from repro.fuzz.net import QueueBroker, SocketQueue, parse_address
from repro.fuzz.parallel import ShardJob
from repro.fuzz.wire import TAG_COLLECT_RESULTS
from repro.ir.parser import parse_module
from repro.ir.printer import print_module

from .test_dist import (FakeClock, IR, SMALL, make_jobs, make_result,
                        report_key)


@pytest.fixture()
def broker():
    broker = QueueBroker()
    broker.start()
    yield broker
    broker.stop()


def client(broker, node="n1", **kwargs):
    kwargs.setdefault("connect_timeout", 10.0)
    kwargs.setdefault("retry_interval", 0.05)
    return SocketQueue(broker.address, node=node, **kwargs)


def published(broker, node="n1", jobs=None, **manifest):
    jobs = make_jobs() if jobs is None else jobs
    fingerprint = jobs_fingerprint(jobs)
    coordinator = client(broker, node="coordinator")
    coordinator.publish(jobs, fingerprint, **manifest)
    coordinator.close()
    return client(broker, node=node), fingerprint


# ---------------------------------------------------------------------------
# The lease protocol over the wire (fake broker clock).
# ---------------------------------------------------------------------------


class TestSocketProtocol:
    def test_publish_then_manifest_and_claim(self, broker):
        queue, fingerprint = published(broker)
        manifest = queue.manifest()
        assert manifest["fingerprint"] == fingerprint
        assert manifest["total_jobs"] == 3
        claims = queue.claim_next(limit=2)
        assert [job.job_index for job, _lease in claims] == [0, 1]
        # The payload crossed as bitcode; the reconstructed text is the
        # canonical print of the original.
        assert claims[0][0].text == print_module(parse_module(IR))
        assert claims[0][0].config.base_seed == 0
        assert claims[1][0].config.base_seed == 100
        queue.close()

    def test_claims_are_exclusive_across_clients(self, broker):
        queue, _ = published(broker)
        other = client(broker, node="n2")
        taken = queue.claim_next(limit=1)
        assert len(taken) == 1
        stolen = [j for j, _ in other.claim_next(limit=3)]
        assert all(job.job_index != taken[0][0].job_index for job in stolen)
        queue.close()
        other.close()

    def test_heartbeat_renews_only_for_owner(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, lease_duration=10.0)
        (job, _lease), = queue.claim_next()
        assert queue.heartbeat(job.job_index, 10.0) is True
        thief = client(broker, node="n2")
        assert thief.heartbeat(job.job_index, 10.0) is False
        queue.close()
        thief.close()

    def test_expired_lease_reclaims_with_bumped_attempt(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, lease_duration=10.0,
                             retry_backoff=1.0)
        queue.claim_next(limit=1)
        other = client(broker, node="n2")
        clock.advance(10.5)            # expired, but inside backoff
        assert not [j for j, _ in other.claim_next(limit=1)
                    if j.job_index == 0]
        clock.advance(1.0)             # past expiry + backoff
        (job, lease), = other.claim_next(limit=1)
        assert job.job_index == 0
        assert lease.attempt == 2
        queue.close()
        other.close()

    def test_release_for_retry_feeds_reclaim(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, retry_backoff=0.5)
        (job, lease), = queue.claim_next()
        queue.release_for_retry(job.job_index, lease, "hang", "stuck")
        clock.advance(1.0)
        (again, lease2), = queue.claim_next()
        assert again.job_index == job.job_index
        assert lease2.attempt == 2
        queue.close()

    def test_exhausted_attempts_retire_with_quarantine(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, max_attempts=1, retry_backoff=0.1)
        (job, lease), = queue.claim_next()
        queue.release_for_retry(job.job_index, lease, "crash", "boom")
        clock.advance(1.0)
        queue.claim_next()  # attempt exhausted: retires instead
        stones = queue.collect_tombstones()
        assert stones[job.job_index]["reason"] == "quarantine"
        assert stones[job.job_index]["failure_kind"] == "crash"
        queue.close()

    def test_result_dedup_is_first_writer_wins(self, broker):
        queue, fingerprint = published(broker)
        queue.claim_next()
        result = make_result(0)
        assert queue.publish_result(result, fingerprint) is True
        assert queue.publish_result(result, fingerprint) is False
        collected = queue.collect_results(fingerprint)
        assert set(collected) == {0}
        queue.close()

    def test_collect_omits_known_results(self, broker):
        queue, fingerprint = published(broker)
        for index in (0, 1, 2):
            assert queue.publish_result(make_result(index), fingerprint)
        assert set(queue.collect_results(fingerprint, known=[0, 2])) == {1}
        assert queue.collect_results(fingerprint, known=[0, 1, 2]) == {}
        # A request without the field (an older node) gets everything,
        # and a malformed one is read as naming nothing.
        for header in ({"fingerprint": fingerprint},
                       {"fingerprint": fingerprint, "known": "0"},
                       {"fingerprint": fingerprint, "known": [[0], "1"]}):
            _tag, reply, _blobs = queue._request(TAG_COLLECT_RESULTS, header)
            assert len(reply["results"]) == 3
        queue.close()

    def test_foreign_fingerprint_publish_mismatches(self, broker):
        _queue, _ = published(broker)
        other_jobs = [ShardJob(job_index=0, file_name="g.ll", text=IR,
                               config=FuzzConfig(base_seed=7),
                               iterations=1)]
        stranger = client(broker, node="x")
        with pytest.raises(QueueMismatch):
            stranger.publish(other_jobs, jobs_fingerprint(other_jobs))
        stranger.close()

    def test_drained_and_sweep(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, fingerprint = published(broker, lease_duration=5.0,
                                       max_attempts=1)
        assert queue.drained() is False
        for index in range(3):
            claims = queue.claim_next()
            assert claims
            queue.publish_result(make_result(index), fingerprint)
        assert queue.drained() is True
        assert queue.sweep() == 0
        queue.close()

    def test_sweep_retires_lost_nodes(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, lease_duration=5.0, max_attempts=1)
        queue.claim_next(limit=3)
        clock.advance(6.0)  # all leases silently expired
        assert queue.sweep() == 3
        stones = queue.collect_tombstones()
        assert all(s["reason"] == "node_lost" for s in stones.values())
        queue.close()

    def test_corpus_delta_round_trips(self, broker, tmp_path):
        queue, _ = published(broker)
        delta = tmp_path / "job-0.corpus.jsonl"
        delta.write_text('{"kind": "header", "version": 1}\n')
        assert queue.publish_corpus(0, str(delta)) is True
        paths = queue.corpus_paths()
        assert [index for index, _ in paths] == [0]
        assert open(paths[0][1]).read() == delta.read_text()
        queue.close()

    def test_blob_cache_hits_on_repeat_claims(self, broker):
        # All three jobs share one module: after the first claim pulls
        # the blob, later claims hit the per-node cache.
        queue, _ = published(broker)
        queue.claim_next(limit=3)
        assert queue.metrics.counter("wire.blob_cache.hit") == 2
        assert queue.metrics.counter("wire.blob_cache.miss") == 1
        assert queue.metrics.counter("bitcode.decode_cache.hit") == 2
        queue.close()

    def test_parse_address_rejects_garbage(self):
        from repro.fuzz.dist import QueueError
        assert parse_address("127.0.0.1:99") == ("127.0.0.1", 99)
        for bad in ("nope", ":80", "host:", "host:notaport"):
            with pytest.raises(QueueError):
                parse_address(bad)


# ---------------------------------------------------------------------------
# Reconnects and lease expiry on disconnect.
# ---------------------------------------------------------------------------


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestDisconnects:
    def test_request_survives_connection_drop(self, broker):
        queue, _ = published(broker)
        queue._drop()  # simulate a broken connection between verbs
        assert queue.manifest() is not None
        queue.close()

    def test_disconnect_expires_leases_immediately(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, lease_duration=3600.0,
                             retry_backoff=0.5)
        (job, _lease), = queue.claim_next()
        queue.close()  # the node vanishes without releasing
        assert wait_for(lambda: all(
            lease.expires_at <= clock()
            for lease in broker.leases().values()))
        # The hour-long lease is reclaimable after just the backoff,
        # not after the hour.
        clock.advance(1.0)
        other = client(broker, node="n2")
        (again, lease2), = other.claim_next()
        assert again.job_index == job.job_index
        assert lease2.attempt == 2
        other.close()

    def test_reconnected_node_keeps_its_leases(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, lease_duration=3600.0)
        (job, _lease), = queue.claim_next()
        # A second connection from the same node, then the first dies:
        # the node is still connected, so nothing expires.
        second = client(broker, node="n1")
        assert second.manifest() is not None
        queue.close()
        time.sleep(0.2)
        lease = broker.leases()[job.job_index]
        assert lease.expires_at > clock()
        assert second.heartbeat(job.job_index, 10.0) is True
        second.close()

    def test_broker_restart_resets_leases_but_keeps_results(self, tmp_path):
        journal_dir = str(tmp_path / "broker")
        broker = QueueBroker(journal_dir=journal_dir)
        broker.start()
        try:
            queue, fingerprint = published(broker)
            queue.claim_next()
            queue.publish_result(make_result(0), fingerprint)
            queue.close()
        finally:
            broker.stop()
        revived = QueueBroker(journal_dir=journal_dir)
        revived.start()
        try:
            queue = client(revived)
            assert queue.manifest()["fingerprint"] == fingerprint
            assert set(queue.collect_results(fingerprint)) == {0}
            # Leases are soft state: job 1 is immediately claimable.
            claimed = [j.job_index for j, _ in queue.claim_next(limit=3)]
            assert claimed == [1, 2]
            queue.close()
        finally:
            revived.stop()


# ---------------------------------------------------------------------------
# Broker journal crash consistency.
# ---------------------------------------------------------------------------


class TestBrokerJournal:
    def test_torn_final_record_is_dropped(self, tmp_path):
        journal_dir = str(tmp_path / "broker")
        broker = QueueBroker(journal_dir=journal_dir)
        broker.start()
        try:
            queue, fingerprint = published(broker)
            queue.claim_next()
            queue.publish_result(make_result(0), fingerprint)
            queue.claim_next()
            queue.publish_result(make_result(1), fingerprint)
            queue.close()
        finally:
            broker.stop()
        # A crash mid-append tears the final journal record (result 1).
        damage_journal(os.path.join(journal_dir, "broker.jsonl"))
        revived = QueueBroker(journal_dir=journal_dir)
        revived.start()
        try:
            queue = client(revived)
            # Result 0 survived; result 1's record was torn away, so
            # the job is simply open again — at-least-once semantics.
            assert set(queue.collect_results(fingerprint)) == {0}
            claimed = [j.job_index for j, _ in queue.claim_next(limit=3)]
            assert 1 in claimed
            assert revived.metrics.counter("net.journal.torn_tail") == 1
            queue.close()
        finally:
            revived.stop()

    def test_in_memory_broker_needs_no_journal(self):
        broker = QueueBroker()  # no journal_dir: pure in-memory
        broker.start()
        try:
            queue, fingerprint = published(broker)
            queue.claim_next()
            assert queue.publish_result(make_result(0), fingerprint)
            assert set(queue.collect_results(fingerprint)) == {0}
            queue.close()
        finally:
            broker.stop()


# ---------------------------------------------------------------------------
# Campaign parity: socket transport == single host.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference():
    return run_campaign(CampaignConfig(workers=1, **SMALL))


def socket_config(address, **extra):
    return CampaignConfig(
        workers=1,
        dist=DistConfig(queue_addr=address, wait_timeout=120.0,
                        **extra.pop("dist", {})),
        **extra, **SMALL)


def run_socket_campaign(config, node_queues):
    box = {}

    def coordinate():
        box["report"] = run_campaign(config)

    coordinator = threading.Thread(target=coordinate)
    coordinator.start()
    reports = []
    try:
        for queue in node_queues:
            runner = NodeRunner(queue, workers=1)
            try:
                reports.append(runner.run(time_budget=120,
                                          wait_for_manifest=60))
            finally:
                queue.close()
    finally:
        coordinator.join(timeout=180)
    assert not coordinator.is_alive(), "coordinator did not finish"
    return box["report"], reports


class TestSocketCampaignParity:
    def test_bitcode_payloads_match_single_host(self, reference):
        broker = QueueBroker()
        broker.start()
        try:
            config = socket_config(broker.address)
            report, (node_report,) = run_socket_campaign(
                config, [client(broker)])
        finally:
            broker.stop()
        assert node_report.jobs_run > 0
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        # The payloads really did travel as bitcode.
        assert report.metrics.counter("bitcode.encode.count") > 0

    def test_text_payloads_match_single_host(self, reference):
        broker = QueueBroker()
        broker.start()
        try:
            config = socket_config(broker.address,
                                   dist=dict(payload_format="text"))
            report, _nodes = run_socket_campaign(
                config, [client(broker)])
        finally:
            broker.stop()
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        assert report.metrics.counter("bitcode.encode.count") == 0

    def test_wire_chaos_preserves_findings(self, reference):
        broker = QueueBroker()
        broker.start()
        try:
            config = socket_config(broker.address)
            chaos = ChaosSocketQueue(
                broker.address, node="n1", drop_every=5, torn_every=7,
                duplicate_results=2, connect_timeout=30.0,
                retry_interval=0.05)
            report, (node_report,) = run_socket_campaign(config, [chaos])
            assert chaos.metrics.counter(
                "chaos.net.dropped_connections") > 0
            assert chaos.metrics.counter("chaos.net.torn_frames") > 0
            assert chaos.metrics.counter("chaos.net.duplicate_results") > 0
        finally:
            broker.stop()
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()

    def test_broker_kill_and_recovery_mid_campaign(self, reference,
                                                   tmp_path):
        journal_dir = str(tmp_path / "broker")
        broker = QueueBroker(journal_dir=journal_dir)
        host, port = broker.start()
        address = f"{host}:{port}"
        config = socket_config(address)

        killed = threading.Event()
        revived_box = {}

        def assassin():
            # Wait for real progress, then kill the broker cold and
            # restart it from its journal on the same port.
            if wait_for(lambda: len(broker._results) >= 1, timeout=60):
                broker.stop()
                # The port needs a beat to shake off dying connection
                # sockets — retry the bind like a supervisor would.
                deadline = time.monotonic() + 30
                while True:
                    revived = QueueBroker(host=host, port=port,
                                          journal_dir=journal_dir)
                    try:
                        revived.start()
                        break
                    except OSError:
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.1)
                revived_box["broker"] = revived
                killed.set()

        hitman = threading.Thread(target=assassin)
        hitman.start()
        try:
            report, _nodes = run_socket_campaign(
                config, [client(broker, connect_timeout=60.0)])
        finally:
            hitman.join(timeout=90)
            if "broker" in revived_box:
                revived_box["broker"].stop()
            else:
                broker.stop()
        assert killed.is_set(), "broker was never killed (no results?)"
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
