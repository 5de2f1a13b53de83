"""The socket transport: a TCP queue broker and its client.

For fleets whose hosts cannot share a directory, the queue state moves
into a :class:`QueueBroker` — a small TCP server holding the queue
**in memory**, journal-backed for crash recovery — and
nodes/coordinators talk to it through :class:`SocketQueue`, a drop-in
:class:`~repro.fuzz.dist.Transport`.  Every lease decision (claim,
renew, release, sweep, drained) and every stored record comes from
:mod:`repro.fuzz.lease`, the state machine the shared-dir queue uses
too; the broker adds only the lock, the journal, and lease expiry on
disconnect, so campaigns behave identically over either transport.

Protocol
--------
One frame per verb (see :mod:`repro.fuzz.wire` for the frame layout);
the client opens a connection, introduces itself (``hello {node}``),
then issues request/response pairs.  Module payloads are
content-addressed: ``publish`` ships each unique module's bitcode
exactly once (``blob-have`` → ``blob-put`` of the missing digests) and
job records carry only the sha256; a claiming node fetches blobs it has
never seen (``blob-get``), caches them, and decodes each digest once
through the bounded decode LRU.

Durability
----------
Every accepted mutation (manifest, job record, result, tombstone,
corpus delta) is appended to ``broker.jsonl`` — one fsync'd JSON line,
written *before* the reply — and blobs live in a content-addressed
directory next to it, so a broker killed with SIGKILL at any instant
restarts from the journal having lost at most the mutations it never
acknowledged; the clients that sent those never saw a reply and retry.
The journal reader tolerates the single crash failure mode (a torn
trailing line) exactly like every other journal in the system.

Leases are deliberately **not** journaled: they are soft state.  A
restarted broker comes up with no leases, which reads as "every node
vanished" — in-flight jobs are simply reclaimable again, and duplicate
completions dedup as always.  A *disconnect* expires the dropped node's
leases immediately (no other connection from that node remaining), so
lease recovery after a node kill -9 is bounded by TCP teardown, not by
the lease clock — feeding the existing reclaim/quarantine machinery.

Failure matrix delta vs the shared-dir queue: see DESIGN §13.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
from dataclasses import replace
from typing import (Callable, Collection, Dict, List, Optional, Sequence, Set,
                    Tuple)

from ..obs import MetricsRegistry
from . import lease as core
from .checkpoint import result_from_dict, result_to_dict
from .dist import (ShardJob, ShardResult, config_base, job_from_record,
                   job_to_wire)
from .lease import (KIND_MANIFEST, KIND_RESULT, KIND_TOMBSTONE, Lease,
                    Policy, QueueError, QueueMismatch)
from .wire import (TAG_NAMES, BlobStore, DecodeCache, FrameError,
                   FrameStream, WireError, TAG_BLOB_GET, TAG_BLOB_HAVE,
                   TAG_BLOB_PUT, TAG_CLAIM, TAG_COLLECT_CORPUS,
                   TAG_COLLECT_RESULTS, TAG_COLLECT_STONES, TAG_CORPUS,
                   TAG_DRAINED, TAG_ERROR, TAG_HEARTBEAT, TAG_HELLO,
                   TAG_MANIFEST, TAG_OK, TAG_PUBLISH, TAG_RELEASE,
                   TAG_RESULT, TAG_SWEEP, blob_digest, encode_payload)

__all__ = ["QueueBroker", "SocketQueue", "parse_address"]

BROKER_JOURNAL_NAME = "broker.jsonl"
BROKER_VERSION = 1


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` -> (host, port); raises :class:`QueueError`."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise QueueError(f"queue address must be HOST:PORT, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise QueueError(f"invalid port in queue address {address!r}")


def _digests(header: dict) -> List[str]:
    """The ``digests`` of a blob verb; a protocol error unless a list of
    strings."""
    digests = header.get("digests", [])
    if not isinstance(digests, list) \
            or not all(isinstance(digest, str) for digest in digests):
        raise TypeError(f"digests must be a list of strings: {digests!r}")
    return digests


# ---------------------------------------------------------------------------
# The broker.
# ---------------------------------------------------------------------------


class QueueBroker:
    """In-memory queue state behind a TCP socket, journaled for crashes.

    ``journal_dir`` (optional but recommended) makes the broker
    crash-safe: every accepted mutation is an fsync'd JSONL append
    *before* the reply, blobs are content-addressed files, and a
    restarted broker replays the journal.  Without it the broker is a
    fast in-memory queue that loses state with the process (fine for
    tests and single-run campaigns where the coordinator republishes).

    ``clock`` is injectable for chaos tests, exactly as on
    :class:`~repro.fuzz.dist.WorkQueue`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 journal_dir: Optional[str] = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.host = host
        self.port = port
        self.journal_dir = journal_dir
        self.clock = clock
        self.metrics = MetricsRegistry()
        blob_dir = os.path.join(journal_dir, "blobs") if journal_dir \
            else None
        self.blobs = BlobStore(blob_dir, metrics=self.metrics)
        self._lock = threading.Lock()
        self._manifest: Optional[dict] = None
        self._jobs: Dict[int, dict] = {}
        self._leases: Dict[int, Lease] = {}
        self._results: Dict[int, dict] = {}
        self._tombstones: Dict[int, dict] = {}
        self._corpus: Dict[int, str] = {}
        self._journal = None
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._live_conns: Set[socket.socket] = set()
        self._conns_by_node: Dict[str, int] = {}
        if journal_dir:
            os.makedirs(journal_dir, exist_ok=True)
            self._recover()

    # -- journal ------------------------------------------------------------

    def journal_path(self) -> str:
        assert self.journal_dir is not None
        return os.path.join(self.journal_dir, BROKER_JOURNAL_NAME)

    def _journal_append(self, record: dict) -> None:
        """Write-ahead: fsync the record before the state mutation's
        reply ever leaves the broker."""
        if self.journal_dir is None:
            return
        if self._journal is None:
            self._journal = open(self.journal_path(), "a")
        self._journal.write(json.dumps(record, sort_keys=True) + "\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())

    def _recover(self) -> None:
        """Replay the journal; tolerate (only) a torn trailing line."""
        path = self.journal_path()
        try:
            with open(path, "rb") as stream:
                raw = stream.read()
        except OSError:
            return
        pieces = raw.splitlines(keepends=True)
        for position, piece in enumerate(pieces):
            last = position == len(pieces) - 1
            stripped = piece.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                if last:
                    self.metrics.count("net.journal.torn_tail")
                    break  # crash mid-append: drop the damaged tail
                raise QueueError(f"{path}: damaged journal line "
                                 f"{position + 1}")
            if not piece.endswith(b"\n") and last:
                self.metrics.count("net.journal.torn_tail")
                break  # complete-looking JSON, newline never landed
            if not isinstance(record, dict):
                continue
            self._replay(record)
        self.metrics.count("net.journal.recovered",
                           len(self._results) + len(self._tombstones))

    def _replay(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == KIND_MANIFEST:
            self._manifest = record.get("manifest")
            return
        try:
            index = int(record["job"]["job_index"] if kind == "job"
                        else record["job_index"])
        except (KeyError, TypeError, ValueError):
            return
        if kind == "job":
            self._jobs[index] = record["job"]
        elif kind == KIND_RESULT:
            self._results.setdefault(index, record.get("payload", {}))
        elif kind == KIND_TOMBSTONE:
            self._tombstones.setdefault(index, record.get("stone", {}))
        elif kind == "corpus" and record.get("sha"):
            self._corpus[index] = record["sha"]

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and serve on a background thread.

        Returns the bound ``(host, port)`` — with ``port=0`` the OS
        picks a free one, which tests and the CLI report to clients.
        """
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.port))
        server.listen(64)
        self._server = server
        self.host, self.port = server.getsockname()[:2]
        self._stopping.clear()
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()
        return self.host, self.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`stop`."""
        if self._server is None:
            self.start()
        self._stopping.wait()

    def stop(self) -> None:
        """Tear the broker down without flushing anything extra.

        Deliberately crash-equivalent: because every accepted mutation
        was journaled before its reply, ``stop()`` and SIGKILL leave
        the same recoverable on-disk state — which is what the torn-
        journal and kill tests rely on.
        """
        self._stopping.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None
        for conn in list(self._live_conns):
            try:
                conn.close()
            except OSError:
                pass
        if self._journal is not None:
            try:
                self._journal.close()
            except OSError:
                pass
            self._journal = None

    def _accept_loop(self) -> None:
        assert self._server is not None
        while not self._stopping.is_set():
            try:
                conn, _addr = self._server.accept()
            except OSError:
                break
            self._live_conns.add(conn)
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True).start()

    # -- one connection -----------------------------------------------------

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        stream = FrameStream(conn, metrics=self.metrics)
        node = ""
        try:
            while not self._stopping.is_set():
                message = stream.recv_eof()
                if message is None:
                    break
                tag, header, blobs = message
                if tag == TAG_HELLO:
                    node = str(header.get("node", ""))
                    with self._lock:
                        self._conns_by_node[node] = \
                            self._conns_by_node.get(node, 0) + 1
                    stream.send(TAG_OK, {"version": BROKER_VERSION})
                    continue
                reply_tag, reply_header, reply_blobs = self._dispatch(
                    tag, header, blobs, node)
                stream.send(reply_tag, reply_header, reply_blobs)
        except (FrameError, OSError):
            # Torn frame or dropped connection: the frame protocol
            # cannot resynchronize, so the connection dies here and the
            # client's retry opens a fresh one.
            self.metrics.count("net.conns.dropped")
        finally:
            self._live_conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass
            if node:
                self._disconnect_node(node)

    def _disconnect_node(self, node: str) -> None:
        """Expire the node's live leases once its last connection dies.

        This is lease-expiry-on-disconnect: the reclaim machinery sees
        an already-expired lease (attempt history intact) instead of
        waiting out the lease clock.  A node that merely reconnected
        keeps its leases — only the *last* connection's loss expires.
        """
        now = self.clock()
        with self._lock:
            remaining = self._conns_by_node.get(node, 1) - 1
            if remaining > 0:
                self._conns_by_node[node] = remaining
                return
            self._conns_by_node.pop(node, None)
            for index, lease in list(self._leases.items()):
                if lease.node == node and lease.live(now) \
                        and not self._settled(index):
                    self._leases[index] = replace(lease, expires_at=now)
                    self.metrics.count("net.lease.disconnect_expired")

    # -- verb dispatch ------------------------------------------------------

    def _dispatch(self, tag: int, header: dict, blobs: List[bytes],
                  node: str) -> Tuple[int, dict, List[bytes]]:
        with self._lock:
            try:
                return self._handle(tag, header, blobs, node)
            except QueueMismatch as exc:
                return TAG_ERROR, {"error": str(exc), "kind": "mismatch"}, []
            except (KeyError, TypeError, ValueError) as exc:
                # Every handler reads its whole header before it changes
                # anything, so a request it cannot read changed nothing.
                verb = TAG_NAMES.get(tag, str(tag))
                return TAG_ERROR, {"error": f"malformed {verb} request: "
                                            f"{exc!r}",
                                   "kind": "protocol"}, []

    def _handle(self, tag: int, header: dict, blobs: List[bytes],
                node: str) -> Tuple[int, dict, List[bytes]]:
        if tag == TAG_MANIFEST:
            return TAG_OK, {"manifest": self._manifest}, []
        if tag == TAG_PUBLISH:
            return self._handle_publish(header)
        if tag == TAG_CLAIM:
            return self._handle_claim(header, node)
        if tag == TAG_HEARTBEAT:
            return self._handle_heartbeat(header, node)
        if tag == TAG_RELEASE:
            return self._handle_release(header, node)
        if tag == TAG_RESULT:
            return self._handle_result(header, node)
        if tag == TAG_CORPUS:
            return self._handle_corpus(header, blobs)
        if tag == TAG_COLLECT_RESULTS:
            fingerprint = str(header.get("fingerprint", ""))
            # Indices the caller already holds (absent from requests of
            # older nodes): stored results never change, so they need
            # not travel again.
            known = header.get("known")
            if not isinstance(known, list):
                known = ()
            known = {index for index in known if isinstance(index, int)}
            results = []
            for index in sorted(self._results):
                if index in known:
                    continue
                payload = self._results[index]
                if payload.get("fingerprint") != fingerprint:
                    self.metrics.count("dist.results.foreign")
                    continue
                results.append(payload)
            return TAG_OK, {"results": results}, []
        if tag == TAG_COLLECT_STONES:
            stones = [[index, stone] for index, stone
                      in sorted(self._tombstones.items())]
            return TAG_OK, {"tombstones": stones}, []
        if tag == TAG_COLLECT_CORPUS:
            deltas = [[index, sha] for index, sha
                      in sorted(self._corpus.items())]
            return TAG_OK, {"deltas": deltas}, []
        if tag == TAG_SWEEP:
            return TAG_OK, {"retired": self._sweep()}, []
        if tag == TAG_DRAINED:
            drained = core.drained(self._manifest, self._jobs, self._settled)
            return TAG_OK, {"drained": drained}, []
        if tag == TAG_BLOB_HAVE:
            missing = [d for d in _digests(header) if d not in self.blobs]
            return TAG_OK, {"missing": missing}, []
        if tag == TAG_BLOB_PUT:
            for data in blobs:
                self.blobs.put(data)
            return TAG_OK, {"stored": len(blobs)}, []
        if tag == TAG_BLOB_GET:
            found, out = [], []
            for digest in _digests(header):
                data = self.blobs.get(digest)
                if data is not None:
                    found.append(digest)
                    out.append(data)
            return TAG_OK, {"found": found}, out
        return TAG_ERROR, {"error": f"unknown verb tag {tag}",
                           "kind": "protocol"}, []

    # -- verb implementations (all called under the lock) -------------------

    def _settled(self, index: int) -> bool:
        return index in self._results or index in self._tombstones

    def _handle_publish(self, header: dict) -> Tuple[int, dict,
                                                     List[bytes]]:
        policy = Policy.from_manifest(header)
        proposed = header.get("shared_config")
        if not isinstance(proposed, (dict, type(None))):
            raise TypeError(f"shared_config must be an object: {proposed!r}")
        shared_config = core.publish_base(self._manifest, policy.fingerprint,
                                          proposed, "broker")
        records = header.get("jobs", [])
        total_jobs = int(header.get("total_jobs", len(records)))
        indexed = []
        for record in records:
            index = int(record["job_index"])
            sha = record["payload"]["sha"]
            if sha not in self.blobs:
                return TAG_ERROR, {
                    "error": f"job {index} references missing blob "
                             f"{str(sha)[:12]}; blob-put it first",
                    "kind": "missing-blob"}, []
            indexed.append((index, record))
        published = 0
        for index, record in indexed:
            if self._jobs.get(index) == record:
                self.metrics.count("dist.jobs.unchanged")
                continue
            self._journal_append({"kind": "job", "job": record})
            self._jobs[index] = record
            published += 1
            self.metrics.count("dist.jobs.published")
        manifest = core.manifest_record(policy, total_jobs, shared_config,
                                        BROKER_VERSION)
        if manifest != self._manifest:
            self._journal_append({"kind": KIND_MANIFEST,
                                  "manifest": manifest})
            self._manifest = manifest
        return TAG_OK, {"published": published}, []

    def _handle_claim(self, header: dict,
                      node: str) -> Tuple[int, dict, List[bytes]]:
        limit = max(1, int(header.get("limit", 1)))
        if self._manifest is None:
            return TAG_OK, {"claims": []}, []
        policy = Policy.from_manifest(self._manifest)
        now = self.clock()
        claims = []
        for index in sorted(self._jobs):
            if len(claims) >= limit:
                break
            if self._settled(index):
                continue
            decision = core.claim(self._leases.get(index), now, policy,
                                  index, node)
            if decision.outcome == core.RETIRE:
                self._retire(index, decision.lease)
            elif decision.lease is not None:
                self._leases[index] = decision.lease
                self.metrics.count("dist.lease.claims"
                                   if decision.outcome == core.FRESH
                                   else "dist.lease.reclaims")
                claims.append({"job": self._jobs[index],
                               "lease": decision.lease.to_dict()})
        return TAG_OK, {"claims": claims}, []

    def _handle_heartbeat(self, header: dict,
                          node: str) -> Tuple[int, dict, List[bytes]]:
        index = int(header["job_index"])
        duration = float(header["lease_duration"])
        renewed = core.renew(self._leases.get(index), node, self.clock(),
                             duration)
        if renewed is None:
            self.metrics.count("dist.lease.lost")
            return TAG_OK, {"renewed": False}, []
        self._leases[index] = renewed
        self.metrics.count("dist.heartbeats")
        return TAG_OK, {"renewed": True}, []

    def _handle_release(self, header: dict,
                        node: str) -> Tuple[int, dict, List[bytes]]:
        index = int(header["job_index"])
        held = Lease.from_dict(header["lease"])
        released = core.release(
            self._leases.get(index), node, held.claimed_at, self.clock(),
            str(header.get("failure_kind", "")), str(header.get("error", "")))
        if released is None:
            self.metrics.count("dist.lease.lost")
            return TAG_OK, {"released": False}, []
        self._leases[index] = released
        self.metrics.count("dist.lease.released")
        return TAG_OK, {"released": True}, []

    def _retire(self, index: int, lease: Lease) -> bool:
        if index in self._tombstones:
            return False
        stone = core.tombstone(lease)
        self._journal_append({"kind": KIND_TOMBSTONE, "job_index": index,
                              "stone": stone})
        self._tombstones[index] = stone
        self.metrics.count("dist.tombstones")
        if not lease.released:
            self.metrics.count("dist.node_lost")
        return True

    def _handle_result(self, header: dict,
                       node: str) -> Tuple[int, dict, List[bytes]]:
        result = header["result"]
        index = int(result["job_index"])
        payload = core.result_record(str(header.get("fingerprint", "")),
                                     node, int(header.get("attempt", 1)),
                                     result)
        if index in self._results:
            self.metrics.count("dist.results.duplicate")
            return TAG_OK, {"published": False}, []
        self._journal_append({"kind": KIND_RESULT, "job_index": index,
                              "payload": payload})
        self._results[index] = payload
        self._leases.pop(index, None)
        self.metrics.count("dist.results.published")
        return TAG_OK, {"published": True}, []

    def _handle_corpus(self, header: dict,
                       blobs: List[bytes]) -> Tuple[int, dict,
                                                    List[bytes]]:
        index = int(header["job_index"])
        if len(blobs) != 1:
            raise ValueError(f"corpus verb with {len(blobs)} blobs, not 1")
        sha = self.blobs.put(blobs[0])
        self._journal_append({"kind": "corpus", "job_index": index,
                              "sha": sha})
        self._corpus[index] = sha
        self.metrics.count("dist.corpus.published")
        return TAG_OK, {"ok": True}, []

    def _sweep(self) -> int:
        if self._manifest is None:
            return 0
        expired, exhausted = core.sweep(
            ((index, lease) for index, lease in sorted(self._leases.items())
             if not self._settled(index)),
            self.clock(), Policy.from_manifest(self._manifest).max_attempts)
        if expired:
            self.metrics.count("dist.lease.expired", expired)
        return sum(self._retire(index, lease) for index, lease in exhausted)

    # -- introspection (tests, smoke harnesses) -----------------------------

    def leases(self) -> Dict[int, Lease]:
        """A snapshot of the live lease table."""
        with self._lock:
            return dict(self._leases)


# ---------------------------------------------------------------------------
# The client.
# ---------------------------------------------------------------------------


class SocketQueue:
    """A broker-backed :class:`~repro.fuzz.dist.Transport`.

    One connection, shared by the caller's threads under a lock
    (:class:`~repro.fuzz.dist.NodeRunner`'s heartbeat thread and main
    loop both go through it).  Any connection failure — broker restart,
    chaos-injected drop, torn frame — closes the socket and the next
    request reconnects and retries until ``connect_timeout`` is spent;
    since every verb is either idempotent or first-writer-wins-deduped,
    a retried request after a lost reply is always safe.

    The per-node transfer cache (:class:`~repro.fuzz.wire.BlobStore`,
    memory-backed) and the bounded decode LRU make repeated claims over
    the same seed cost one ``blob-get`` and one decode, total.
    """

    def __init__(self, address: str, node: str = "",
                 clock: Callable[[], float] = time.time,
                 connect_timeout: float = 60.0,
                 retry_interval: float = 0.2,
                 socket_timeout: float = 60.0) -> None:
        self.host, self.port = parse_address(address)
        self.node = node or f"node-{os.getpid()}"
        self.clock = clock
        self.connect_timeout = connect_timeout
        self.retry_interval = retry_interval
        self.socket_timeout = socket_timeout
        self.metrics = MetricsRegistry()
        self.blobs = BlobStore(metrics=self.metrics)
        self.decode_cache = DecodeCache(metrics=self.metrics)
        self._lock = threading.RLock()
        self._stream: Optional[FrameStream] = None
        self._manifest_cache: Optional[dict] = None
        self._work_dir: Optional[str] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- connection management ----------------------------------------------

    def _connect(self) -> FrameStream:
        if self._stream is not None:
            return self._stream
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.socket_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        stream = FrameStream(sock, metrics=self.metrics)
        stream.send(TAG_HELLO, {"node": self.node})
        tag, _header, _blobs = stream.recv()
        if tag != TAG_OK:
            stream.close()
            raise QueueError(f"broker {self.address} rejected hello")
        self._stream = stream
        return stream

    def _drop(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def _request(self, tag: int, header: dict,
                 blobs: Sequence[bytes] = ()) -> Tuple[int, dict,
                                                       List[bytes]]:
        with self._lock:
            deadline = time.monotonic() + self.connect_timeout
            while True:
                try:
                    stream = self._connect()
                    stream.send(tag, header, blobs)
                    reply_tag, reply_header, reply_blobs = stream.recv()
                except (OSError, FrameError) as exc:
                    self._drop()
                    self.metrics.count("wire.reconnects")
                    if time.monotonic() >= deadline:
                        raise QueueError(
                            f"broker {self.address} unreachable: "
                            f"{exc}") from exc
                    time.sleep(self.retry_interval)
                    continue
                if reply_tag == TAG_ERROR:
                    message = reply_header.get("error", "broker error")
                    if reply_header.get("kind") == "mismatch":
                        raise QueueMismatch(message)
                    raise QueueError(message)
                return reply_tag, reply_header, reply_blobs

    # -- Transport: manifest and publish ------------------------------------

    def manifest(self) -> Optional[dict]:
        if self._manifest_cache is not None:
            return self._manifest_cache
        try:
            _tag, header, _blobs = self._request(TAG_MANIFEST, {})
        except QueueError:
            return None  # broker not up yet: same as "not published yet"
        manifest = header.get("manifest")
        if isinstance(manifest, dict):
            self._manifest_cache = manifest
            return manifest
        return None

    def publish(self, jobs: Sequence[ShardJob], fingerprint: str,
                total_jobs: Optional[int] = None,
                lease_duration: float = 30.0, max_attempts: int = 3,
                retry_backoff: float = 0.25,
                retry_jitter: float = 0.0) -> None:
        self._manifest_cache = None
        shared_config = core.publish_base(self.manifest(), fingerprint,
                                          config_base(jobs),
                                          f"broker {self.address}")
        records = []
        blobs_by_digest: Dict[str, bytes] = {}
        for job in jobs:
            data, actual_format = encode_payload(job.text,
                                                 metrics=self.metrics)
            sha = blob_digest(data)
            blobs_by_digest[sha] = data
            records.append(job_to_wire(job, shared_config, sha,
                                       actual_format))
        digests = sorted(blobs_by_digest)
        if digests:
            _tag, header, _blobs = self._request(
                TAG_BLOB_HAVE, {"digests": digests})
            missing = [d for d in header.get("missing", [])
                       if d in blobs_by_digest]
            if missing:
                self._request(TAG_BLOB_PUT, {"digests": missing},
                              [blobs_by_digest[d] for d in missing])
            for digest in digests:
                self.blobs.put(blobs_by_digest[digest])
        self._request(TAG_PUBLISH, {
            "fingerprint": fingerprint,
            "total_jobs": (total_jobs if total_jobs is not None
                           else len(jobs)),
            "lease_duration": lease_duration,
            "max_attempts": max_attempts,
            "retry_backoff": retry_backoff,
            "retry_jitter": retry_jitter,
            "shared_config": shared_config,
            "jobs": records,
        })
        self._manifest_cache = None

    # -- Transport: claims and results --------------------------------------

    def claim_next(self, limit: int = 1) -> List[Tuple[ShardJob, Lease]]:
        _tag, header, _blobs = self._request(TAG_CLAIM, {"limit": limit})
        claimed: List[Tuple[ShardJob, Lease]] = []
        for item in header.get("claims", []):
            try:
                record = item["job"]
                lease = Lease.from_dict(item["lease"])
            except (KeyError, TypeError, ValueError):
                continue
            job = self._resolve_job(record)
            if job is None:
                continue  # unresolvable: the lease expires on its own
            claimed.append((job, lease))
        return claimed

    def _resolve_job(self, record: dict) -> Optional[ShardJob]:
        try:
            return job_from_record(record, self.manifest(), self._blob,
                                   self.decode_cache)
        except (KeyError, TypeError, ValueError, WireError):
            self.metrics.count("wire.jobs.unresolvable")
            return None

    def _blob(self, sha: str) -> Optional[bytes]:
        """A module blob from the node's cache, fetched on a miss."""
        data = self.blobs.get(sha)
        if data is not None:
            self.metrics.count("wire.blob_cache.hit")
            return data
        self.metrics.count("wire.blob_cache.miss")
        return self._fetch_blob(sha)

    def _fetch_blob(self, sha: str) -> Optional[bytes]:
        _tag, header, blobs = self._request(TAG_BLOB_GET,
                                            {"digests": [sha]})
        found = header.get("found", [])
        if not found or not blobs or found[0] != sha:
            return None
        self.metrics.count("wire.blob.fetched")
        self.metrics.count("wire.blob.fetched_bytes", len(blobs[0]))
        self.blobs.put(blobs[0])
        return blobs[0]

    def heartbeat(self, job_index: int, lease_duration: float) -> bool:
        try:
            _tag, header, _blobs = self._request(TAG_HEARTBEAT, {
                "job_index": job_index, "lease_duration": lease_duration})
        except QueueError:
            self.metrics.count("dist.lease.lost")
            return False
        return bool(header.get("renewed", False))

    def release_for_retry(self, job_index: int, lease: Lease,
                          failure_kind: str, error: str) -> None:
        self._request(TAG_RELEASE, {
            "job_index": job_index, "lease": lease.to_dict(),
            "failure_kind": failure_kind, "error": error})

    def publish_result(self, result: ShardResult, fingerprint: str,
                       attempt: int = 1) -> bool:
        _tag, header, _blobs = self._request(TAG_RESULT, {
            "fingerprint": fingerprint, "attempt": attempt,
            "result": result_to_dict(result)})
        return bool(header.get("published", False))

    def publish_corpus(self, job_index: int, journal_path: str) -> bool:
        try:
            with open(journal_path, "rb") as stream:
                data = stream.read()
        except OSError:
            return False
        _tag, header, _blobs = self._request(
            TAG_CORPUS, {"job_index": job_index}, [data])
        return bool(header.get("ok", False))

    def corpus_paths(self) -> List[Tuple[int, str]]:
        """Materialize the broker's corpus deltas into local files."""
        _tag, header, _blobs = self._request(TAG_COLLECT_CORPUS, {})
        if self._work_dir is None:
            self._work_dir = tempfile.mkdtemp(
                prefix=f"repro-net-{self.node}-")
        deltas: List[Tuple[int, str]] = []
        for item in header.get("deltas", []):
            try:
                index, sha = int(item[0]), str(item[1])
            except (TypeError, ValueError, IndexError):
                continue
            data = self.blobs.get(sha)
            if data is None:
                data = self._fetch_blob(sha)
                if data is None:
                    continue
            path = os.path.join(self._work_dir,
                                f"job-{index:06d}.corpus.jsonl")
            with open(path, "wb") as stream:
                stream.write(data)
            deltas.append((index, path))
        return sorted(deltas)

    # -- Transport: collection and sweeping ---------------------------------

    def collect_results(self, fingerprint: str,
                        known: Collection[int] = ()
                        ) -> Dict[int, ShardResult]:
        _tag, header, _blobs = self._request(
            TAG_COLLECT_RESULTS,
            {"fingerprint": fingerprint, "known": sorted(known)})
        results: Dict[int, ShardResult] = {}
        for payload in header.get("results", []):
            try:
                result = result_from_dict(payload["result"])
            except (KeyError, TypeError):
                continue
            results[result.job_index] = result
        return results

    def collect_tombstones(self) -> Dict[int, dict]:
        _tag, header, _blobs = self._request(TAG_COLLECT_STONES, {})
        stones: Dict[int, dict] = {}
        for item in header.get("tombstones", []):
            try:
                stones[int(item[0])] = dict(item[1])
            except (TypeError, ValueError, IndexError):
                continue
        return stones

    def sweep(self) -> int:
        _tag, header, _blobs = self._request(TAG_SWEEP, {})
        return int(header.get("retired", 0))

    def drained(self) -> bool:
        _tag, header, _blobs = self._request(TAG_DRAINED, {})
        return bool(header.get("drained", False))

    def close(self) -> None:
        with self._lock:
            self._drop()
