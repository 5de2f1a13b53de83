"""Deterministic fault injection for the campaign runtime.

Long-running fuzzing infrastructure has to be tested against the
failures it claims to survive: raising jobs, hung workers, workers that
die outright, and supervisors killed mid-journal-append.  This module
provides a :class:`FaultyRunner` — a picklable
:data:`~repro.fuzz.parallel.JobRunner` wrapper that injects those
faults *by job index*, so every fault-tolerance path can be exercised
deterministically — plus the on-disk half of the harness:

* :func:`damage_journal` — a crash mid-append on any fsync'd JSONL
  journal, or a torn single-record queue file;
* :func:`torn_write` — a partial ``os.write`` cut short by SIGKILL;
* :class:`ChaosQueue` — lease expiry, duplicate delivery and torn
  results at a queue's record store, and :class:`ChaosSocketQueue` —
  dropped connections, torn frames and duplicated results on the wire.

>>> runner = FaultyRunner({3: FaultSpec("exit")}, state_dir=tmp)
>>> CampaignExecutor(config, job_runner=runner).execute()

Faults can be limited to the first ``times`` attempts
(``FaultSpec("exit", times=1)`` dies once, then succeeds on retry),
which requires ``state_dir`` — attempts are counted in files because
retries of a killed job run in a *fresh worker process*, where
in-memory counters would reset.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from .lease import KIND_LEASE, KIND_RESULT, KIND_TOMBSTONE
from .net import SocketQueue
from .parallel import ShardJob, ShardResult, execute_job
from .wire import TAG_RESULT, encode_frame

__all__ = ["ChaosQueue", "ChaosSocketQueue", "FaultInjected", "FaultSpec",
           "FaultyRunner", "damage_journal", "torn_write"]


class FaultInjected(RuntimeError):
    """The exception a ``raise`` fault throws inside the worker."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    ``action`` is one of:

    * ``"raise"`` — raise :class:`FaultInjected` (contained in-worker,
      becomes a failed shard);
    * ``"hang"`` — sleep ``seconds`` (default effectively forever),
      simulating a pathological mutant that never terminates; only the
      watchdog can end it;
    * ``"exit"`` — ``os._exit(code)``, killing the worker process with
      no Python cleanup (the poison-job case).

    ``times`` limits the fault to the first N attempts of the job
    (None = every attempt), letting tests distinguish transient faults
    (retry succeeds) from persistent ones (quarantine).
    """

    action: str
    times: Optional[int] = None
    seconds: float = 3600.0
    code: int = 23


class FaultyRunner:
    """A job runner that injects faults for chosen job indexes.

    Picklable (plain data attributes + module-level base runner), so it
    crosses the process boundary into worker processes exactly like the
    real runner.
    """

    def __init__(self, faults: Dict[int, FaultSpec],
                 state_dir: Optional[str] = None) -> None:
        self.faults = dict(faults)
        self.state_dir = state_dir
        if any(spec.times is not None for spec in self.faults.values()) \
                and state_dir is None:
            raise ValueError("FaultSpec.times needs state_dir to count "
                             "attempts across worker processes")

    def __call__(self, job: ShardJob) -> ShardResult:
        spec = self.faults.get(job.job_index)
        if spec is not None and self._armed(job.job_index, spec):
            self._fire(spec)
        return execute_job(job)

    # -- internals ----------------------------------------------------------

    def _armed(self, job_index: int, spec: FaultSpec) -> bool:
        if spec.times is None:
            return True
        attempt = self._bump_attempt(job_index)
        return attempt <= spec.times

    def _bump_attempt(self, job_index: int) -> int:
        assert self.state_dir is not None
        os.makedirs(self.state_dir, exist_ok=True)
        path = os.path.join(self.state_dir, f"job-{job_index}.attempts")
        try:
            with open(path) as stream:
                attempt = int(stream.read().strip() or 0) + 1
        except (OSError, ValueError):
            attempt = 1
        with open(path, "w") as stream:
            stream.write(str(attempt))
        return attempt

    def _fire(self, spec: FaultSpec) -> None:
        if spec.action == "raise":
            raise FaultInjected("injected fault: raise")
        if spec.action == "hang":
            time.sleep(spec.seconds)
            return
        if spec.action == "exit":
            os._exit(spec.code)
        raise ValueError(f"unknown fault action {spec.action!r}")


def damage_journal(path: str, keep_bytes: int = 20,
                   allow_single: bool = False) -> None:
    """Simulate a crash mid-append on any fsync'd JSONL file.

    Truncates the file's final record to its first ``keep_bytes``
    bytes with no trailing newline — exactly what a kill between
    ``write`` and the completing newline+fsync leaves behind.  Works on
    every journal in the system (checkpoint, corpus, findings): resume
    must detect the damaged tail, drop it, and redo only that record.

    With ``allow_single`` the file may hold a *single* record — the
    queue-file case (manifest, lease, result, tombstone are one JSON
    line each), where the damage leaves no complete record at all and
    readers must treat the file as absent.  Without it a single-record
    file raises, preserving the original journal-only contract.
    """
    with open(path, "rb") as stream:
        raw = stream.read()
    body = raw.rstrip(b"\n")
    cut = body.rfind(b"\n")
    if cut < 0 and not allow_single:
        raise ValueError(f"{path}: journal has no complete record to damage")
    last = body[cut + 1:]
    with open(path, "wb") as stream:
        stream.write(body[:cut + 1] + last[:keep_bytes])
        stream.flush()
        os.fsync(stream.fileno())


def torn_write(path: str, payload: bytes, fraction: float = 0.5) -> None:
    """Simulate a partial ``os.write`` cut short by SIGKILL.

    Writes only the leading ``fraction`` of ``payload`` directly to
    ``path`` — deliberately *not* using the write-temp-then-rename
    protocol — modelling a writer that skipped the protocol (or a
    filesystem that tore the write) and died mid-syscall.  Readers of
    protocol files must treat the result as absent/damaged, never parse
    half a record as state.
    """
    cut = max(1, int(len(payload) * fraction)) if payload else 0
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, payload[:cut])
    finally:
        os.close(fd)


class ChaosQueue:
    """A record store with queue failures injected, around another store.

    A queue over it (``WorkQueue(ChaosQueue(store), node=...)``) meets,
    deterministically, the failures the lease protocol claims to survive:

    * :meth:`force_expire` — a lease reads as expired since its claim,
      as if the owner vanished right after taking the job;
    * ``duplicate_delivery`` — the first read that finds one of these
      jobs' result or tombstone comes back empty (a stale view, once per
      job), so a settled job is claimed and re-run: the at-least-once
      duplicate the result dedup must drop, keeping the first result;
    * ``torn_results`` — the next N result writes of these jobs tear,
      unnoticed by the writer; the retry's publish must repair them (a
      :class:`~repro.fuzz.dist.DirectoryStore` fault).

    Clock skew needs no wrapper: give the queue a skewed ``clock``.
    """

    def __init__(self, store, torn_results: Optional[Dict[int, int]] = None,
                 duplicate_delivery: Iterable[int] = ()) -> None:
        self.store = store
        self.torn_results = dict(torn_results or {})
        self.duplicate_delivery = set(duplicate_delivery)

    def __getattr__(self, name: str):
        return getattr(self.store, name)

    def force_expire(self, job_index: int) -> bool:
        """Rewrite a job's lease as expired; False if there is none."""
        lease = self.store.read(KIND_LEASE, job_index)
        if lease is None:
            return False
        self.store.replace(KIND_LEASE, job_index,
                           dict(lease, expires_at=lease.get("claimed_at", 0)))
        self.metrics.count("chaos.lease.forced_expiry")
        return True

    def read(self, kind: str, job_index: int) -> Optional[dict]:
        record = self.store.read(kind, job_index)
        if record is not None and job_index in self.duplicate_delivery \
                and kind in (KIND_RESULT, KIND_TOMBSTONE):
            self.duplicate_delivery.discard(job_index)
            self.metrics.count("chaos.duplicate_delivery")
            return None
        return record

    def create(self, kind: str, job_index: int, record: dict) -> bool:
        pending = self.torn_results.get(job_index, 0)
        if kind != KIND_RESULT or pending <= 0:
            return self.store.create(kind, job_index, record)
        self.torn_results[job_index] = pending - 1
        path = self.store.path(kind, job_index)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        torn_write(path, json.dumps(record, sort_keys=True).encode("utf-8"))
        self.metrics.count("chaos.results.torn")
        return True


class ChaosSocketQueue(SocketQueue):
    """A :class:`~repro.fuzz.net.SocketQueue` with wire faults, injected
    deterministically by request count (queue faults are
    :class:`ChaosQueue`'s, at a record store):

    * ``drop_every`` — every Nth request finds its connection already
      dead, exercising reconnect-and-retry mid-protocol;
    * ``torn_every`` — every Nth request first sends *half* a frame on a
      throwaway connection, which the broker must detect and drop;
    * ``duplicate_results`` — the first N result publishes are sent
      twice; the broker's dedup must report the echo as unpublished.

    Findings and ``deterministic()`` metrics must equal a chaos-free run.
    """

    def __init__(self, address: str, node: str = "",
                 drop_every: int = 0, torn_every: int = 0,
                 duplicate_results: int = 0, **kwargs) -> None:
        super().__init__(address, node=node, **kwargs)
        self.drop_every = drop_every
        self.torn_every = torn_every
        self.duplicate_results = duplicate_results
        self._request_count = 0

    def _request(self, tag, header, blobs=()):
        with self._lock:
            self._request_count += 1
            count = self._request_count
            if self.drop_every and count % self.drop_every == 0:
                self._drop()
                self.metrics.count("chaos.net.dropped_connections")
            if self.torn_every and count % self.torn_every == 0:
                self._send_torn_frame(tag, header, blobs)
            reply = super()._request(tag, header, blobs)
            if tag == TAG_RESULT and self.duplicate_results > 0:
                self.duplicate_results -= 1
                # Re-send the identical result; the broker's
                # first-writer-wins dedup must drop the echo.
                super()._request(tag, header, blobs)
                self.metrics.count("chaos.net.duplicate_results")
            return reply

    def _send_torn_frame(self, tag, header, blobs) -> None:
        """Half a frame on a sacrificial connection, then silence."""
        try:
            stream = self._connect()
            frame = encode_frame(tag, header, blobs)
            stream.sock.sendall(frame[:max(1, len(frame) // 2)])
        except OSError:
            pass
        finally:
            self._drop()
        self.metrics.count("chaos.net.torn_frames")
