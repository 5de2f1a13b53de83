"""The socket transport: a TCP queue broker, its record store, its client.

For fleets whose hosts cannot share a directory, the queue state moves
into a :class:`QueueBroker` — a small TCP server holding the queue
**in memory**, journal-backed for crash recovery — and
nodes/coordinators talk to it through :class:`SocketQueue`, a drop-in
:class:`~repro.fuzz.dist.Transport`.  The broker serves the same
:class:`~repro.fuzz.dist.WorkQueue` the shared directory uses, over a
:class:`MemoryStore` instead of files, so every verb, lease decision
and ``dist.*`` count is one piece of code on both transports; the broker
adds only the lock, frame dispatch, and lease expiry on disconnect.

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
The :class:`MemoryStore` appends every accepted mutation (manifest, job
record, result, tombstone, corpus delta) to ``broker.jsonl`` — one
fsync'd JSON line, written *before* the reply — next to a
content-addressed blob directory, so a broker killed with SIGKILL
restarts having lost only mutations it never acknowledged (their senders
retry).  A torn trailing line is dropped, as in every other journal.
Leases are soft state, never journaled: a restarted broker reads as
"every node vanished", and in-flight jobs are reclaimable again.

Failure matrix delta vs the shared-dir queue: see DESIGN §13.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
from contextlib import suppress
from dataclasses import replace
from typing import (Callable, Collection, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from ..obs import MetricsRegistry
from . import lease as core
from .checkpoint import result_to_dict
from .dist import (ShardJob, ShardResult, WorkQueue, config_base,
                   job_to_wire, resolve_claims, results_from_records)
from .lease import (KIND_CORPUS, KIND_JOB, KIND_LEASE, KIND_MANIFEST,
                    KIND_RESULT, KIND_TOMBSTONE, Lease, Policy, QueueError,
                    QueueMismatch)
from .wire import (TAG_NAMES, BlobStore, DecodeCache, FrameError,
                   FrameStream, TAG_BLOB_GET, TAG_BLOB_HAVE,
                   TAG_BLOB_PUT, TAG_CLAIM, TAG_COLLECT_CORPUS,
                   TAG_COLLECT_RESULTS, TAG_COLLECT_STONES, TAG_CORPUS,
                   TAG_DRAINED, TAG_ERROR, TAG_HEARTBEAT, TAG_HELLO,
                   TAG_MANIFEST, TAG_OK, TAG_PUBLISH, TAG_RELEASE,
                   TAG_RESULT, TAG_SWEEP, blob_digest, encode_payload)

__all__ = ["MemoryStore", "QueueBroker", "SocketQueue", "parse_address"]

BROKER_JOURNAL_NAME = "broker.jsonl"
BROKER_VERSION = 1
# The field a journal line holds a record in (a corpus delta's: its sha).
_JOURNAL_FIELDS = {KIND_RESULT: "payload", KIND_TOMBSTONE: "stone",
                   KIND_CORPUS: "sha"}


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
# The broker and its record store.
# ---------------------------------------------------------------------------


def write_deltas(directory: str, deltas: Iterable[Tuple[int, str]],
                 blob: Callable[[str], Optional[bytes]]
                 ) -> List[Tuple[int, str]]:
    """Write each ``(job index, sha)`` corpus delta whose bytes
    ``blob(sha)`` returns into ``directory``: (job index, path) pairs."""
    paths = []
    for index, sha in deltas:
        data = blob(sha)
        if data is None:
            continue
        path = os.path.join(directory, f"job-{index:06d}.corpus.jsonl")
        with open(path, "wb") as stream:
            stream.write(data)
        paths.append((index, path))
    return paths


class MemoryStore:
    """Queue records in dicts; with ``journal_dir``, every record but a
    lease is journaled before the call returns (see Durability above)
    and a store reopened on the directory replays it.  A job line keeps
    the wire record only.  Not thread-safe: the broker holds its lock."""

    version = BROKER_VERSION
    label = "broker"

    def __init__(self, journal_dir: Optional[str] = None) -> None:
        self.journal_dir = journal_dir
        self.metrics = MetricsRegistry()
        self.blobs = BlobStore(os.path.join(journal_dir, "blobs")
                               if journal_dir else None,
                               metrics=self.metrics)
        self.tables: Dict[str, Dict[int, dict]] = {
            kind: {} for kind in (KIND_JOB, KIND_LEASE, *_JOURNAL_FIELDS)}
        self._manifest: Optional[dict] = None
        self._journal = None
        self._work_dir: Optional[str] = None
        if journal_dir:
            os.makedirs(journal_dir, exist_ok=True)
            self._recover()

    def read(self, kind: str, job_index: int) -> Optional[dict]:
        return self.tables[kind].get(job_index)

    def create(self, kind: str, job_index: int, record: dict) -> bool:
        return job_index not in self.tables[kind] \
            and self.replace(kind, job_index, record)

    def replace(self, kind: str, job_index: int, record: dict,
                verify: bool = False) -> bool:
        if kind == KIND_JOB:
            self._append({"kind": kind, "job": record["job"]})
        elif kind != KIND_LEASE:
            self._append({"kind": kind, "job_index": job_index,
                          _JOURNAL_FIELDS[kind]: record})
        self.tables[kind][job_index] = record
        return True

    def delete(self, kind: str, job_index: int) -> None:
        """Drop a record (only leases are deleted: never journaled)."""
        self.tables[kind].pop(job_index, None)

    def indexes(self, kind: str) -> List[int]:
        return sorted(self.tables[kind])

    def manifest(self) -> Optional[dict]:
        return self._manifest

    def put_manifest(self, record: dict) -> None:
        self._append({"kind": KIND_MANIFEST, "manifest": record})
        self._manifest = record

    def put_corpus(self, job_index: int, data: bytes) -> None:
        self.replace(KIND_CORPUS, job_index, self.blobs.put(data))

    def corpus_paths(self) -> List[Tuple[int, str]]:
        """The corpus deltas, written out to a private temp directory."""
        if self._work_dir is None:
            self._work_dir = tempfile.mkdtemp(prefix="repro-queue-corpus-")
        return write_deltas(self._work_dir,
                            sorted(self.tables[KIND_CORPUS].items()),
                            self.blobs.get)

    # -- the journal ---------------------------------------------------------

    def _append(self, line: dict) -> None:
        if self.journal_dir is None:
            return
        if self._journal is None:
            self._journal = open(os.path.join(self.journal_dir,
                                              BROKER_JOURNAL_NAME), "a")
        self._journal.write(json.dumps(line, sort_keys=True) + "\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())

    def close(self) -> None:
        if self._journal is not None:
            with suppress(OSError):
                self._journal.close()
            self._journal = None

    def _recover(self) -> None:
        """Replay the journal; tolerate (only) a torn trailing line."""
        path = os.path.join(self.journal_dir, BROKER_JOURNAL_NAME)
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
                line = json.loads(stripped.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                if last:
                    self.metrics.count("net.journal.torn_tail")
                    break  # crash mid-append: drop the damaged tail
                raise QueueError(f"{path}: damaged journal line "
                                 f"{position + 1}")
            if not piece.endswith(b"\n") and last:
                self.metrics.count("net.journal.torn_tail")
                break  # complete-looking JSON, newline never landed
            if isinstance(line, dict):
                self._replay(line)
        self.metrics.count("net.journal.recovered",
                           len(self.tables[KIND_RESULT])
                           + len(self.tables[KIND_TOMBSTONE]))

    def _replay(self, line: dict) -> None:
        kind = line.get("kind")
        if kind == KIND_MANIFEST:
            self._manifest = line.get("manifest")
            return
        field = _JOURNAL_FIELDS.get(kind)
        with suppress(KeyError, TypeError, ValueError):  # malformed: skip
            if kind == KIND_JOB:
                self.tables[kind][int(line["job"]["job_index"])] = {
                    "kind": kind, "job": line["job"]}
            elif field and line.get(field):
                self.tables[kind][int(line["job_index"])] = line[field]


class QueueBroker:
    """A :class:`~repro.fuzz.dist.WorkQueue` over a :class:`MemoryStore`,
    behind a TCP socket: one lock around every verb, frame dispatch, and
    lease expiry when a node's last connection drops.

    ``journal_dir`` (recommended) makes it crash-safe; without it the
    broker loses its state with the process (fine for tests and
    single-run campaigns).  ``clock`` is injectable for chaos tests and
    may be reassigned while the broker runs.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 journal_dir: Optional[str] = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.host = host
        self.port = port
        self.journal_dir = journal_dir
        self.clock = clock
        self.store = MemoryStore(journal_dir)
        self.metrics = self.store.metrics
        self.blobs = self.store.blobs
        self.queue = WorkQueue(self.store, node="broker",
                               clock=lambda: self.clock())
        self._lock = threading.Lock()
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._live_conns: Set[socket.socket] = set()
        self._conns_by_node: Dict[str, int] = {}

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
        """Tear the broker down without flushing anything extra: every
        accepted mutation was journaled before its reply, so ``stop()``
        and SIGKILL leave the same recoverable state (the kill tests rely
        on it)."""
        self._stopping.set()
        if self._server is not None:
            with suppress(OSError):
                self._server.close()
            self._server = None
        for conn in list(self._live_conns):
            with suppress(OSError):
                conn.close()
        self.store.close()

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
        with suppress(OSError):
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
            with suppress(OSError):
                conn.close()
            if node:
                self._disconnect_node(node)

    def _disconnect_node(self, node: str) -> None:
        """Expire the node's live leases once its *last* connection dies,
        so the reclaim machinery sees an expired lease (attempt history
        intact) instead of waiting out the lease clock."""
        now = self.clock()
        with self._lock:
            remaining = self._conns_by_node.get(node, 1) - 1
            if remaining > 0:
                self._conns_by_node[node] = remaining
                return
            self._conns_by_node.pop(node, None)
            for index in self.store.indexes(KIND_LEASE):
                lease = self.queue.read_lease(index)
                if lease is not None and lease.node == node \
                        and lease.live(now) and not self.queue.settled(index):
                    self.store.replace(KIND_LEASE, index,
                                       replace(lease, expires_at=now).to_dict())
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
                # Every handler reads its whole header before it calls a
                # verb, so a request it cannot read changed nothing.
                verb = TAG_NAMES.get(tag, str(tag))
                return TAG_ERROR, {"error": f"malformed {verb} request: "
                                            f"{exc!r}",
                                   "kind": "protocol"}, []

    def _handle(self, tag: int, header: dict, blobs: List[bytes],
                node: str) -> Tuple[int, dict, List[bytes]]:
        queue = self.queue
        if tag == TAG_MANIFEST:
            return TAG_OK, {"manifest": queue.manifest()}, []
        if tag == TAG_PUBLISH:
            policy = Policy.from_manifest(header)
            shared_config = header.get("shared_config")
            if not isinstance(shared_config, (dict, type(None))):
                raise TypeError(f"shared_config must be an object: "
                                f"{shared_config!r}")
            records = [(int(record["job_index"]), record)
                       for record in header.get("jobs", [])]
            total_jobs = int(header.get("total_jobs", len(records)))
            for index, record in records:
                sha = record["payload"]["sha"]
                if sha not in self.blobs:
                    return TAG_ERROR, {
                        "error": f"job {index} references missing blob "
                                 f"{str(sha)[:12]}; blob-put it first",
                        "kind": "missing-blob"}, []
            published = queue.publish_records(policy, total_jobs,
                                              shared_config, records)
            return TAG_OK, {"published": published}, []
        if tag == TAG_CLAIM:
            claims = queue.claim(node, max(1, int(header.get("limit", 1))))
            return TAG_OK, {"claims": [{"job": record,
                                        "lease": lease.to_dict()}
                                       for record, lease in claims]}, []
        if tag == TAG_HEARTBEAT:
            renewed = queue.heartbeat(int(header["job_index"]),
                                      float(header["lease_duration"]),
                                      node=node)
            return TAG_OK, {"renewed": renewed}, []
        if tag == TAG_RELEASE:
            released = queue.release_for_retry(
                int(header["job_index"]), Lease.from_dict(header["lease"]),
                str(header.get("failure_kind", "")),
                str(header.get("error", "")), node=node)
            return TAG_OK, {"released": released}, []
        if tag == TAG_RESULT:
            result = header["result"]
            published = queue.store_result(
                node, int(result["job_index"]),
                str(header.get("fingerprint", "")),
                int(header.get("attempt", 1)), result)
            return TAG_OK, {"published": published}, []
        if tag == TAG_CORPUS:
            index = int(header["job_index"])
            if len(blobs) != 1:
                raise ValueError(f"corpus verb needs 1 blob, got {len(blobs)}")
            queue.put_corpus(index, blobs[0])
            return TAG_OK, {"ok": True}, []
        if tag == TAG_COLLECT_RESULTS:
            # Indices the caller already holds (older nodes send none):
            # stored results never change, so they need not travel again.
            known = header.get("known")
            if not isinstance(known, list):
                known = ()
            results = queue.results(str(header.get("fingerprint", "")),
                                    {index for index in known
                                     if isinstance(index, int)})
            return TAG_OK, {"results": results}, []
        if tag == TAG_COLLECT_STONES:
            stones = [[index, stone] for index, stone
                      in sorted(queue.collect_tombstones().items())]
            return TAG_OK, {"tombstones": stones}, []
        if tag == TAG_COLLECT_CORPUS:
            deltas = [[index, self.store.read(KIND_CORPUS, index)]
                      for index in self.store.indexes(KIND_CORPUS)]
            return TAG_OK, {"deltas": deltas}, []
        if tag == TAG_SWEEP:
            return TAG_OK, {"retired": queue.sweep()}, []
        if tag == TAG_DRAINED:
            return TAG_OK, {"drained": queue.drained()}, []
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


# ---------------------------------------------------------------------------
# The client.
# ---------------------------------------------------------------------------


class SocketQueue:
    """A broker-backed :class:`~repro.fuzz.dist.Transport`.

    One connection, shared by the caller's threads under a lock.  Any
    connection failure — broker restart, dropped connection, torn frame —
    closes the socket and the next request reconnects and retries until
    ``connect_timeout`` is spent; every verb is idempotent or
    first-writer-wins, so retrying after a lost reply is always safe.
    The node's blob cache and the decode LRU make repeated claims over
    one seed cost one ``blob-get`` and one decode, total.
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
        with suppress(OSError):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
        if self._manifest_cache is None:
            try:
                _tag, header, _blobs = self._request(TAG_MANIFEST, {})
            except QueueError:
                return None  # broker not up yet: same as "not published"
            if isinstance(header.get("manifest"), dict):
                self._manifest_cache = header["manifest"]
        return self._manifest_cache

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
        policy = Policy(lease_duration, max_attempts, retry_backoff,
                        retry_jitter, fingerprint)
        self._request(TAG_PUBLISH, dict(
            policy._asdict(), shared_config=shared_config, jobs=records,
            total_jobs=len(jobs) if total_jobs is None else total_jobs))
        self._manifest_cache = None

    # -- Transport: claims and results --------------------------------------

    def claim_next(self, limit: int = 1) -> List[Tuple[ShardJob, Lease]]:
        _tag, header, _blobs = self._request(TAG_CLAIM, {"limit": limit})
        claims = []
        for item in header.get("claims", []):
            with suppress(KeyError, TypeError, ValueError):
                claims.append((item["job"], Lease.from_dict(item["lease"])))
        return resolve_claims(self, claims, self._blob)

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
        except QueueError:  # the broker is gone: treat the lease as lost
            self.metrics.count("net.heartbeat.unreachable")
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
            with suppress(TypeError, ValueError, IndexError):
                deltas.append((int(item[0]), str(item[1])))
        return write_deltas(
            self._work_dir, sorted(deltas),
            lambda sha: self.blobs.get(sha) or self._fetch_blob(sha))

    # -- Transport: collection and sweeping ---------------------------------

    def collect_results(self, fingerprint: str,
                        known: Collection[int] = ()
                        ) -> Dict[int, ShardResult]:
        _tag, header, _blobs = self._request(
            TAG_COLLECT_RESULTS,
            {"fingerprint": fingerprint, "known": sorted(known)})
        return results_from_records(header.get("results", []))

    def collect_tombstones(self) -> Dict[int, dict]:
        _tag, header, _blobs = self._request(TAG_COLLECT_STONES, {})
        stones: Dict[int, dict] = {}
        for item in header.get("tombstones", []):
            with suppress(TypeError, ValueError, IndexError):
                stones[int(item[0])] = dict(item[1])
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
