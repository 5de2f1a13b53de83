"""The binary wire tier: frames, blobs, and the decode cache.

Every byte a distributed campaign moves between processes goes through
this module.  Three pieces, deliberately small and independently
testable:

* **Frames** — a length-prefixed binary framing protocol.  A frame is
  ``varint(body length) || body``; the body is ``varint(tag) ||
  varint(header length) || header JSON || varint(blob count) ||
  (varint(blob length) || blob bytes)*``.  Tags mirror the queue verbs
  (publish/claim/heartbeat/release/result/corpus-delta) plus
  the blob-transfer and control verbs.  Varints are unsigned LEB128 —
  the same encoding :mod:`repro.ir.bitcode` uses, so a frame carrying
  a bitcode blob is varints all the way down.  A short read anywhere
  (torn frame, dropped connection) raises :class:`FrameError`; half a
  frame is never delivered as a message.

* **:class:`BlobStore`** — a content-addressed store keyed by the
  sha256 of the bytes.  Memory-backed on nodes (the per-node transfer
  cache: a module's bitcode crosses the wire once per node, thereafter
  jobs reference it by digest) and directory-backed on brokers and in
  queue directories (``blobs/<digest>`` written with the usual
  write-temp + fsync + atomic-rename protocol, so a torn blob is
  impossible and re-publishing an existing digest is free).

* **:class:`DecodeCache`** — a bounded, fingerprint-keyed LRU from
  payload digest to decoded module *text*.  Repeated jobs over the
  same seed hit the cache and skip both the bitcode decode and the
  print; the per-process cache in the claim path is why a node running
  N jobs over one seed decodes it once.

Payload helpers :func:`encode_payload` / :func:`decode_payload` convert
module text to/from its transfer representation (``"bitcode"`` — the
compact binary format — or ``"text"``).  Queues always ask for
bitcode; text that does not parse is shipped verbatim as ``"text"`` so a
seed with a deliberate parse error still reaches the node and fails
there, exactly as it does on a single host.

All counters land in an optional :class:`~repro.obs.MetricsRegistry`
under ``wire.*`` (frames/bytes/blob cache) and ``bitcode.*``
(encode/decode and the decode cache) — operational telemetry, excluded
from the ``deterministic()`` metric subset like the rest of the
transport bookkeeping.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import socket
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.bitcode import BitcodeError, read_bitcode, write_bitcode
from ..ir.parser import ParseError, parse_module
from ..ir.printer import print_module
from ..obs import MetricsRegistry

__all__ = [
    "BlobStore", "DecodeCache", "FrameError", "FrameStream", "WireError",
    "blob_digest", "decode_frame", "decode_payload", "encode_frame",
    "encode_payload", "read_frame", "TAG_NAMES",
]

#: Payload formats a module may travel as.
FORMAT_BITCODE = "bitcode"
FORMAT_TEXT = "text"
PAYLOAD_FORMATS = (FORMAT_BITCODE, FORMAT_TEXT)

# -- message tags (mirror the queue verbs) ----------------------------------

TAG_HELLO = 1            # {node} -> OK
TAG_OK = 2               # generic success reply (verb-specific header)
TAG_ERROR = 3            # {error, kind} reply
TAG_PUBLISH = 4          # {fingerprint, manifest..., jobs: [...]} -> OK
TAG_MANIFEST = 5         # {} -> OK {manifest}
TAG_CLAIM = 6            # {limit} -> OK {claims: [{job, lease}]}
TAG_HEARTBEAT = 7        # {job_index, lease_duration} -> OK {renewed}
TAG_RELEASE = 8          # {job_index, lease, failure_kind, error} -> OK
# 9 was ``retire``; it stays unassigned so an old client's retire frame
# gets the broker's "unknown verb" error.
TAG_RESULT = 10          # {fingerprint, attempt, result} -> OK {published}
TAG_CORPUS = 11          # {job_index} + blob -> OK (corpus-delta publish)
TAG_COLLECT_RESULTS = 12  # {fingerprint, known?} -> OK {results: [...]}
TAG_COLLECT_STONES = 13  # {} -> OK {tombstones: [[index, stone]]}
TAG_COLLECT_CORPUS = 14  # {} -> OK {deltas: [[index, digest]]}
TAG_SWEEP = 15           # {} -> OK {retired}
TAG_DRAINED = 16         # {} -> OK {drained}
TAG_BLOB_HAVE = 17       # {digests} -> OK {missing}
TAG_BLOB_PUT = 18        # {digests} + blobs -> OK {stored}
TAG_BLOB_GET = 19        # {digests} -> OK {found} + blobs

TAG_NAMES = {
    TAG_HELLO: "hello", TAG_OK: "ok", TAG_ERROR: "error",
    TAG_PUBLISH: "publish", TAG_MANIFEST: "manifest", TAG_CLAIM: "claim",
    TAG_HEARTBEAT: "heartbeat", TAG_RELEASE: "release",
    TAG_RESULT: "result", TAG_CORPUS: "corpus",
    TAG_COLLECT_RESULTS: "collect-results",
    TAG_COLLECT_STONES: "collect-tombstones",
    TAG_COLLECT_CORPUS: "collect-corpus", TAG_SWEEP: "sweep",
    TAG_DRAINED: "drained", TAG_BLOB_HAVE: "blob-have",
    TAG_BLOB_PUT: "blob-put", TAG_BLOB_GET: "blob-get",
}

#: Hard ceiling on one frame's body, a protocol-error backstop against
#: reading a garbage length prefix as a multi-gigabyte allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class WireError(RuntimeError):
    """A wire-tier failure (framing, blob store, payload codec)."""


class FrameError(WireError):
    """A frame could not be read whole: torn, oversized, or malformed.

    Raised on EOF mid-frame (dropped connection, torn write), a length
    prefix past :data:`MAX_FRAME_BYTES`, or an undecodable header.  The
    connection that produced it cannot be resynchronized and must be
    dropped.
    """


# -- varints (unsigned LEB128, as in repro.ir.bitcode) ----------------------


def _append_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise WireError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint_stream(read) -> int:
    """Decode one varint from a ``read(n) -> bytes`` callable."""
    result = 0
    shift = 0
    while True:
        chunk = read(1)
        if not chunk:
            raise FrameError("connection closed mid-varint")
        byte = chunk[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 63:
            raise FrameError("varint too long (corrupt frame)")


# -- frame encode/decode ----------------------------------------------------


def encode_frame(tag: int, header: dict,
                 blobs: Sequence[bytes] = ()) -> bytes:
    """One complete frame (length prefix included) as bytes."""
    body = bytearray()
    _append_varint(body, tag)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    _append_varint(body, len(header_bytes))
    body += header_bytes
    _append_varint(body, len(blobs))
    for blob in blobs:
        _append_varint(body, len(blob))
        body += blob
    out = bytearray()
    _append_varint(out, len(body))
    out += body
    return bytes(out)


def read_frame(read) -> Tuple[int, dict, List[bytes]]:
    """Read one frame from a ``read(n) -> bytes`` callable.

    ``read`` must return at most ``n`` bytes and ``b""`` at EOF (the
    contract of ``socket.recv`` and ``io.BytesIO.read``).  Raises
    :class:`FrameError` if the stream ends mid-frame or the frame is
    malformed — a torn frame never surfaces as a short message.
    """
    length = _read_varint_stream(read)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte limit")
    body = bytearray()
    while len(body) < length:
        chunk = read(length - len(body))
        if not chunk:
            raise FrameError(f"connection closed mid-frame "
                             f"({len(body)}/{length} bytes)")
        body += chunk
    stream = io.BytesIO(bytes(body))

    def take(n: int) -> bytes:
        return stream.read(n)

    tag = _read_varint_stream(take)
    header_len = _read_varint_stream(take)
    header_bytes = stream.read(header_len)
    if len(header_bytes) != header_len:
        raise FrameError("frame body shorter than its header length")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise FrameError("frame header is not a JSON object")
    blob_count = _read_varint_stream(take)
    blobs: List[bytes] = []
    for _ in range(blob_count):
        blob_len = _read_varint_stream(take)
        blob = stream.read(blob_len)
        if len(blob) != blob_len:
            raise FrameError("frame body shorter than its blob lengths")
        blobs.append(blob)
    return tag, header, blobs


def decode_frame(data: bytes) -> Tuple[int, dict, List[bytes]]:
    """Decode one frame from a complete byte string (test/debug hook)."""
    return read_frame(io.BytesIO(data).read)


class FrameStream:
    """Frames over one connected socket, with byte/frame accounting.

    Not thread-safe; callers (:class:`repro.fuzz.net.SocketQueue`, the
    broker's per-connection handler) serialize access themselves.
    """

    def __init__(self, sock: socket.socket,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sock = sock
        self.metrics = metrics

    def send(self, tag: int, header: dict,
             blobs: Sequence[bytes] = ()) -> None:
        frame = encode_frame(tag, header, blobs)
        self.sock.sendall(frame)
        if self.metrics is not None:
            self.metrics.count("wire.frames.sent")
            self.metrics.count("wire.bytes.sent", len(frame))

    def recv(self) -> Tuple[int, dict, List[bytes]]:
        received = [0]

        def read(n: int) -> bytes:
            chunk = self.sock.recv(n)
            received[0] += len(chunk)
            return chunk

        try:
            tag, header, blobs = read_frame(read)
        except FrameError:
            if self.metrics is not None and received[0]:
                self.metrics.count("wire.frames.torn")
            raise
        if self.metrics is not None:
            self.metrics.count("wire.frames.received")
            self.metrics.count("wire.bytes.received", received[0])
        return tag, header, blobs

    def recv_eof(self) -> Optional[Tuple[int, dict, List[bytes]]]:
        """Like :meth:`recv` but returns None on a clean EOF between
        frames (the peer closed; not an error)."""
        first = self.sock.recv(1)
        if not first:
            return None
        buffered = [first]

        def read(n: int) -> bytes:
            if buffered:
                return buffered.pop()
            return self.sock.recv(n)

        received = [1]

        def counting_read(n: int) -> bytes:
            chunk = read(n)
            received[0] += len(chunk)
            return chunk

        tag, header, blobs = read_frame(counting_read)
        if self.metrics is not None:
            self.metrics.count("wire.frames.received")
            self.metrics.count("wire.bytes.received", received[0])
        return tag, header, blobs

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# -- content-addressed blob store -------------------------------------------


def blob_digest(data: bytes) -> str:
    """The content address of ``data`` (sha256 hex)."""
    return hashlib.sha256(data).hexdigest()


class BlobStore:
    """Content-addressed bytes, memory- or directory-backed.

    ``put`` is idempotent: storing bytes that already exist is a no-op
    (this is what makes re-publishing retry jobs free — the payload is
    referenced by digest and never re-serialized).  Directory-backed
    stores write ``<dir>/<digest>`` via temp + fsync + atomic rename,
    so a SIGKILL mid-store leaves no torn blob, and reads verify the
    digest so disk corruption reads as absence, not as a wrong module.
    """

    def __init__(self, directory: Optional[str] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.directory = directory
        self.metrics = metrics
        self._memory: Dict[str, bytes] = {}

    def _path(self, digest: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, digest)

    def __contains__(self, digest: str) -> bool:
        if digest in self._memory:
            return True
        if self.directory is not None:
            return os.path.exists(self._path(digest))
        return False

    def put(self, data: bytes) -> str:
        digest = blob_digest(data)
        if digest in self:
            return digest
        if self.directory is None:
            self._memory[digest] = data
        else:
            os.makedirs(self.directory, exist_ok=True)
            tmp = self._path(f".{digest}.{os.getpid()}.tmp")
            with open(tmp, "wb") as stream:
                stream.write(data)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp, self._path(digest))
        if self.metrics is not None:
            self.metrics.count("wire.blob.stored")
            self.metrics.count("wire.blob.stored_bytes", len(data))
        return digest

    def get(self, digest: str) -> Optional[bytes]:
        data = self._memory.get(digest)
        if data is None and self.directory is not None:
            try:
                with open(self._path(digest), "rb") as stream:
                    data = stream.read()
            except OSError:
                return None
            if blob_digest(data) != digest:
                # Disk corruption: a wrong blob is worse than a missing
                # one (the caller re-fetches or the job re-publishes).
                return None
        return data

    def digests(self) -> List[str]:
        """Every stored digest (directory stores list the directory)."""
        found = set(self._memory)
        if self.directory is not None:
            try:
                names = os.listdir(self.directory)
            except OSError:
                names = []
            found.update(n for n in names if not n.startswith("."))
        return sorted(found)


# -- module payload codec ---------------------------------------------------


def encode_payload(text: str, payload_format: str = FORMAT_BITCODE,
                   metrics: Optional[MetricsRegistry] = None,
                   ) -> Tuple[bytes, str]:
    """Module text -> (transfer bytes, actual format).

    ``"bitcode"`` parses the text and emits the compact binary format;
    text that does not parse falls back to ``"text"`` verbatim, so a
    deliberately broken seed still reaches the node and records its
    parse failure there, exactly as on a single host.
    """
    if payload_format not in PAYLOAD_FORMATS:
        raise WireError(f"unknown payload format {payload_format!r}")
    if payload_format == FORMAT_BITCODE:
        try:
            data = write_bitcode(parse_module(text))
        except (ParseError, BitcodeError):
            payload_format = FORMAT_TEXT
        else:
            if metrics is not None:
                metrics.count("bitcode.encode.count")
                metrics.count("bitcode.encode.text_bytes",
                              len(text.encode("utf-8")))
                metrics.count("bitcode.encode.bitcode_bytes", len(data))
            return data, FORMAT_BITCODE
    return text.encode("utf-8"), FORMAT_TEXT


def decode_payload(data: bytes, payload_format: str,
                   metrics: Optional[MetricsRegistry] = None) -> str:
    """Transfer bytes -> module text (inverse of :func:`encode_payload`).

    Bitcode payloads decode and print; because print-of-parse is a
    fixpoint (pinned by the codec's differential tests), the text a
    node reconstructs here drives the driver to byte-identical findings
    and ``deterministic()`` metrics regardless of the payload format.
    """
    if payload_format == FORMAT_TEXT:
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"undecodable text payload: {exc}") from exc
    if payload_format == FORMAT_BITCODE:
        try:
            text = print_module(read_bitcode(data))
        except BitcodeError as exc:
            raise WireError(f"undecodable bitcode payload: {exc}") from exc
        if metrics is not None:
            metrics.count("bitcode.decode.count")
            metrics.count("bitcode.decode.bitcode_bytes", len(data))
        return text
    raise WireError(f"unknown payload format {payload_format!r}")


class DecodeCache:
    """Bounded LRU from payload digest to decoded module text.

    Fingerprint-keyed: the key is the blob digest, so two jobs over the
    same seed share one decode no matter which transport delivered the
    bytes.  ``capacity`` bounds entries (module texts are small —
    kilobytes — so a few hundred is cheap); eviction is
    least-recently-used.
    """

    def __init__(self, capacity: int = 256,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics
        self._entries: "OrderedDict[str, str]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def text(self, digest: str, data: bytes, payload_format: str) -> str:
        """The decoded text for ``data``; cached by ``digest``."""
        cached = self._entries.get(digest)
        if cached is not None:
            self._entries.move_to_end(digest)
            if self.metrics is not None:
                self.metrics.count("bitcode.decode_cache.hit")
            return cached
        if self.metrics is not None:
            self.metrics.count("bitcode.decode_cache.miss")
        text = decode_payload(data, payload_format, metrics=self.metrics)
        self._entries[digest] = text
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return text
