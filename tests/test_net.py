"""The socket transport: the lease suite over the wire, the broker's
own duties, crash recovery, campaign parity.

The lease and result protocol itself is written once in
``queue_protocol.py`` and bound here to :class:`QueueBroker` +
:class:`SocketQueue` over a real loopback socket under a fake broker
clock; this module adds what only the broker has (the wire decoder,
blob transfer, disconnects, the journal).  Campaign tests prove that
findings and ``deterministic()`` metrics over the socket transport (with
or without injected chaos, across a broker kill/restart) are identical
to a single-host run.
"""

from __future__ import annotations

import copy
import json
import os
import socket
import threading
import time

import pytest

from repro.fuzz import CampaignConfig, run_campaign
from repro.fuzz.checkpoint import jobs_fingerprint, result_to_dict
from repro.fuzz.dist import DistConfig, NodeRunner, QueueError, config_base
from repro.fuzz.faults import ChaosSocketQueue, damage_journal
from repro.fuzz.lease import Lease
from repro.fuzz.net import QueueBroker, SocketQueue, parse_address
from repro.fuzz.wire import (TAG_BLOB_GET, TAG_BLOB_HAVE, TAG_CLAIM,
                             TAG_COLLECT_RESULTS, TAG_CORPUS, TAG_ERROR,
                             TAG_HEARTBEAT, TAG_HELLO, TAG_MANIFEST, TAG_OK,
                             TAG_PUBLISH, TAG_RELEASE, TAG_RESULT, BlobStore,
                             FrameStream, blob_digest, encode_payload)
from repro.ir.parser import parse_module
from repro.ir.printer import print_module

from .queue_protocol import (IR, FakeClock, LeaseProtocolSuite,
                             ResultPublishingSuite, make_jobs, make_result,
                             node_death_interleavings, report_key,
                             v2_job_record, v2_manifest)

SMALL = dict(corpus_size=4, mutants_per_file=8, max_inputs=8,
             pipelines=("O2",))


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


def broker_state(broker):
    """A deep snapshot of everything the broker holds, read through its
    record store."""
    store = broker.store
    with broker._lock:
        records = {kind: {index: store.read(kind, index)
                          for index in store.indexes(kind)}
                   for kind in ("job", "lease", "result", "tombstone")}
        corpus = []
        for index, path in store.corpus_paths():
            with open(path, "rb") as stream:
                corpus.append((index, stream.read()))
        return copy.deepcopy((store.manifest(), records, corpus))


# ``broker.jsonl`` as the previous release wrote it for ``make_jobs()``
# published with ``max_attempts=1``, job 0's result and corpus delta, and
# job 1's lease expired and swept (see
# ``test_literal_journal_replays_and_drains``).  Only what is not the
# journal's own layout is filled in: module digest, fingerprint, config
# base, result.
LITERAL_JOURNAL = """\
{"job": {"config": {}, "confirm_attributions": false, "deadline": null, \
"file_name": "f0.ll", "iterations": 2, "job_index": 0, "payload": \
{"format": "bitcode", "sha": "<sha>"}, "time_budget": null, "trace_dir": \
null, "trace_sample": 1.0}, "kind": "job"}
{"job": {"config": {"base_seed": 100}, "confirm_attributions": false, \
"deadline": null, "file_name": "f1.ll", "iterations": 2, "job_index": 1, \
"payload": {"format": "bitcode", "sha": "<sha>"}, "time_budget": null, \
"trace_dir": null, "trace_sample": 1.0}, "kind": "job"}
{"job": {"config": {"base_seed": 200}, "confirm_attributions": false, \
"deadline": null, "file_name": "f2.ll", "iterations": 2, "job_index": 2, \
"payload": {"format": "bitcode", "sha": "<sha>"}, "time_budget": null, \
"trace_dir": null, "trace_sample": 1.0}, "kind": "job"}
{"kind": "manifest", "manifest": {"fingerprint": "<fp>", "kind": \
"manifest", "lease_duration": 30.0, "max_attempts": 1, "retry_backoff": \
0.25, "retry_jitter": 0.0, "shared_config": <config>, "total_jobs": 3, \
"version": 1}}
{"job_index": 0, "kind": "result", "payload": {"attempt": 1, \
"fingerprint": "<fp>", "kind": "result", "node": "n1", "result": \
<result>}}
{"job_index": 0, "kind": "corpus", "sha": \
"4a51413dc6a1379db31f03a3623f7c6a1c870c6c5a6a26ad2753bf770df7b1b9"}
{"job_index": 1, "kind": "tombstone", "stone": {"attempts": 1, "error": \
"lease of node 'n1' expired (attempt 1)", "failure_kind": "node_lost", \
"kind": "tombstone", "node": "n1", "reason": "node_lost"}}
"""


def literal_journal(jobs, sha):
    """:data:`LITERAL_JOURNAL` filled in for ``jobs`` and module ``sha``."""
    filled = {"<sha>": sha, "<fp>": jobs_fingerprint(jobs),
              "<config>": json.dumps(config_base(jobs), sort_keys=True),
              "<result>": json.dumps(result_to_dict(make_result(0)),
                                     sort_keys=True)}
    text = LITERAL_JOURNAL
    for hole, value in filled.items():
        text = text.replace(hole, value)
    return text


def leases(broker):
    """The broker's stored leases, by job index."""
    with broker._lock:
        return {index: Lease.from_dict(broker.store.read("lease", index))
                for index in broker.store.indexes("lease")}


# ---------------------------------------------------------------------------
# The lease protocol over the wire (fake broker clock).
# ---------------------------------------------------------------------------


class TestSocketProtocol(LeaseProtocolSuite, ResultPublishingSuite):
    TRANSPORT = "socket"

    def test_collect_reads_known_leniently(self, transport):
        fingerprint = transport.publish()
        queue = transport.node()
        for index in (0, 1, 2):
            assert queue.publish_result(make_result(index), fingerprint)
        # A request without the field (an older node) gets everything,
        # and a malformed one is read as naming nothing.
        for header in ({"fingerprint": fingerprint},
                       {"fingerprint": fingerprint, "known": "0"},
                       {"fingerprint": fingerprint, "known": [[0], "1"]}):
            _tag, reply, _blobs = queue._request(TAG_COLLECT_RESULTS, header)
            assert len(reply["results"]) == 3

    def test_blob_cache_hits_on_repeat_claims(self, transport):
        # All three jobs share one module: after the first claim pulls
        # the blob, later claims hit the per-node cache.
        transport.publish()
        queue = transport.node()
        queue.claim_next(limit=3)
        assert queue.metrics.counter("wire.blob_cache.hit") == 2
        assert queue.metrics.counter("wire.blob_cache.miss") == 1
        assert queue.metrics.counter("bitcode.decode_cache.hit") == 2

    def test_malformed_headers_get_typed_errors(self, tmp_path):
        """One unreadable header per verb (and a frame of the retired
        ``retire`` verb): each gets a ``protocol`` error, the connection
        keeps serving, and neither the broker's state nor its journal
        changes — a publish is validated whole before its first
        journal append."""
        journal_dir = str(tmp_path / "broker")
        broker = QueueBroker(journal_dir=journal_dir)
        broker.start()
        try:
            queue, fingerprint = published(broker)
            (_job, lease), = queue.claim_next()
            fresh = dict(broker.store.read("job", 0)["job"],
                         job_index=7)  # valid, not stored
            requests = [
                (TAG_PUBLISH, {"fingerprint": fingerprint,
                               "jobs": [fresh, {"job_index": "x"}]}),
                (TAG_PUBLISH, {"fingerprint": fingerprint,
                               "lease_duration": "long", "jobs": [fresh]}),
                (TAG_PUBLISH, {"fingerprint": fingerprint,
                               "jobs": [dict(fresh, payload="sha")]}),
                (TAG_CLAIM, {"limit": "many"}),
                (TAG_HEARTBEAT, {"job_index": "zero",
                                 "lease_duration": 10.0}),
                (TAG_RELEASE, {"job_index": 0, "lease": "mine",
                               "failure_kind": "hang", "error": ""}),
                (TAG_RESULT, {"fingerprint": fingerprint, "attempt": "one",
                              "result": result_to_dict(make_result(1))}),
                (TAG_RESULT, {"fingerprint": fingerprint, "result": [1]}),
                (TAG_CORPUS, {"job_index": None}),
                (TAG_BLOB_HAVE, {"digests": "abc"}),
                (TAG_BLOB_GET, {"digests": [{"sha": "abc"}]}),
                (9, {"job_index": 0, "lease": lease.to_dict()}),
            ]
            journal = os.path.join(journal_dir, "broker.jsonl")
            with open(journal, "rb") as stream:
                journaled = stream.read()
            before = broker_state(broker)
            stream = FrameStream(socket.create_connection(
                (broker.host, broker.port), timeout=10.0))
            stream.send(TAG_HELLO, {"node": "raw"})
            assert stream.recv()[0] == TAG_OK
            for tag, header in requests:
                stream.send(tag, header)
                reply_tag, reply, _blobs = stream.recv()
                assert (reply_tag, reply["kind"]) == (TAG_ERROR, "protocol"), \
                    (tag, reply)
            stream.send(TAG_MANIFEST, {})
            assert stream.recv()[0] == TAG_OK
            stream.close()
            assert broker_state(broker) == before
            with open(journal, "rb") as stream:
                assert stream.read() == journaled
            # The client surfaces the error as a QueueError.
            with pytest.raises(QueueError, match="malformed claim"):
                queue._request(TAG_CLAIM, {"limit": "many"})
            assert queue.heartbeat(0, 10.0)
            queue.close()
        finally:
            broker.stop()

    def test_parse_address_rejects_garbage(self):
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
            for lease in leases(broker).values()))
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
        lease = leases(broker)[job.job_index]
        assert lease.expires_at > clock()
        assert second.heartbeat(job.job_index, 10.0) is True
        second.close()

    def test_heartbeat_to_a_dead_broker_is_counted_on_the_node(self):
        broker = QueueBroker()
        broker.start()
        queue, _ = published(broker)
        (job, _lease), = queue.claim_next()
        broker.stop()
        queue.connect_timeout = 0.2
        queue._drop()
        assert queue.heartbeat(job.job_index, 10.0) is False
        assert queue.metrics.counter("net.heartbeat.unreachable") == 1
        assert queue.metrics.counter("dist.lease.lost") == 0
        queue.close()

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

    def test_queue_version_2_journal_replays(self, tmp_path):
        """A journal the previous release wrote — manifest, job, result,
        tombstone and corpus records — replays; the campaign's re-publish
        adds no record, and the one open job drains it."""
        journal_dir = str(tmp_path / "broker")
        blobs = BlobStore(os.path.join(journal_dir, "blobs"))
        sha = blobs.put(encode_payload(IR)[0])
        delta = b'{"kind": "header", "version": 1}\n'
        jobs = make_jobs()
        fingerprint = jobs_fingerprint(jobs)
        records = [
            {"kind": "manifest",
             "manifest": v2_manifest(fingerprint, config_base(jobs), 1)},
            *({"kind": "job", "job": v2_job_record(index, sha)}
              for index in range(3)),
            {"kind": "result", "job_index": 0,
             "payload": {"kind": "result", "fingerprint": fingerprint,
                         "node": "n0", "attempt": 1,
                         "result": result_to_dict(make_result(0))}},
            {"kind": "tombstone", "job_index": 2,
             "stone": {"kind": "tombstone", "reason": "node_lost",
                       "attempts": 3, "node": "gone",
                       "failure_kind": "node_lost",
                       "error": "lease of node 'gone' expired (attempt 3)"}},
            {"kind": "corpus", "job_index": 0, "sha": blobs.put(delta)},
        ]
        journal = os.path.join(journal_dir, "broker.jsonl")
        with open(journal, "w") as stream:
            for record in records:
                stream.write(json.dumps(record, sort_keys=True) + "\n")
        broker = QueueBroker(journal_dir=journal_dir)
        broker.start()
        try:
            coordinator = client(broker, node="coordinator")
            coordinator.publish(jobs, fingerprint)
            with open(journal) as stream:
                assert len(stream.readlines()) == len(records)
            queue = client(broker)
            assert set(queue.collect_results(fingerprint)) == {0}
            assert queue.collect_tombstones()[2]["reason"] == "node_lost"
            (index, path), = queue.corpus_paths()
            with open(path, "rb") as stream:
                assert (index, stream.read()) == (0, delta)
            (job, lease), = queue.claim_next(limit=3)
            assert (job.job_index, job.config.base_seed) == (1, 100)
            assert lease.attempt == 1   # leases are soft state
            assert queue.publish_result(make_result(1), fingerprint)
            assert queue.drained()
            queue.close()
            coordinator.close()
        finally:
            broker.stop()

    def test_literal_journal_replays_and_drains(self, tmp_path):
        """The twin of ``test_queue_version_2_directory_drains``: these
        operations write :data:`LITERAL_JOURNAL` byte for byte, as the
        previous release did, and a broker restarted on it resumes and
        drains."""
        journal_dir = str(tmp_path / "broker")
        clock = FakeClock()
        broker = QueueBroker(journal_dir=journal_dir, clock=clock)
        broker.start()
        jobs = make_jobs()
        fingerprint = jobs_fingerprint(jobs)
        try:
            coordinator = client(broker, node="coordinator")
            coordinator.publish(jobs, fingerprint, max_attempts=1)
            queue = client(broker)
            queue.claim_next(limit=2)
            queue.publish_result(make_result(0), fingerprint)
            delta = tmp_path / "delta.jsonl"
            delta.write_bytes(b'{"kind": "header", "version": 1}\n')
            queue.publish_corpus(0, str(delta))
            clock.advance(100.0)
            assert coordinator.sweep() == 1
            queue.close()
            coordinator.close()
        finally:
            broker.stop()
        with open(os.path.join(journal_dir, "broker.jsonl")) as stream:
            assert stream.read() == literal_journal(
                jobs, blob_digest(encode_payload(IR)[0]))
        revived = QueueBroker(journal_dir=journal_dir)
        revived.start()
        try:
            queue = client(revived)
            assert queue.manifest()["max_attempts"] == 1
            assert set(queue.collect_results(fingerprint)) == {0}
            assert queue.collect_tombstones()[1]["reason"] == "node_lost"
            assert [index for index, _path in queue.corpus_paths()] == [0]
            assert not queue.drained()
            (job, lease), = queue.claim_next(limit=3)
            assert (job.job_index, job.config.base_seed) == (2, 200)
            assert job.text == print_module(parse_module(IR))
            assert queue.publish_result(make_result(2), fingerprint)
            assert queue.drained()
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
            if wait_for(lambda: broker.store.indexes("result"),
                        timeout=60):
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


# ---------------------------------------------------------------------------
# Hypothesis: any interleaving of node deaths yields the same findings.
# ---------------------------------------------------------------------------


class TestSocketNodeDeathInterleavings:
    test_any_death_interleaving_preserves_findings = \
        node_death_interleavings("socket")
