"""Distributed campaigns: lease-based work distribution over a shared dir.

One coordinated campaign across many hosts, built from the pieces the
single-host runtime already guarantees: deterministic per-job seeds,
scheduling-invariant campaign fingerprints, associative metric merges,
and idempotent per-job results.  The transport is deliberately the
dumbest thing that can be made crash-safe — a shared directory (NFS,
bind mount, or plain local disk for same-host fleets) holding one small
JSON file per protocol step — so there is no broker to operate and no
state that lives anywhere but the filesystem.

Protocol
--------
The coordinator publishes the job matrix and a ``manifest.json`` naming
the campaign fingerprint; node runners then race over the jobs:

* **claim** — a node takes a job by *exclusively creating* its lease
  (``os.link``: it fails atomically if a lease exists), which names the
  node, the attempt number, and an expiry timestamp.
* **heartbeat** — the owner rewrites the lease with a fresh expiry.  A
  node that dies simply stops renewing, and the lease expires.
* **reclaim** — any node (or the coordinator's sweep) may take over an
  expired lease, bumping the attempt after the quarantine machinery's
  exponential backoff (plus optional jitter): node loss is *the existing
  hang/retry path*, ending in ``ShardFailure(kind="node_lost")``.
* **result** — a finished job's result is parked by exclusive create.
  Jobs are *at-least-once*, but only the first result per (job index,
  campaign fingerprint) lands; jobs are deterministic, so a dropped
  duplicate is bit-identical anyway.
* **tombstone** — a job retired without a usable result (attempts
  exhausted) gets a tombstone so nodes stop reclaiming it.

Three layers, each written once: :mod:`repro.fuzz.lease` makes every
decision above; :class:`WorkQueue` holds every verb and every
``dist.*`` count; a record store keeps the records —
:class:`DirectoryStore` here, :class:`repro.fuzz.net.MemoryStore` in the
socket broker, which serves the same :class:`WorkQueue`.

Failure matrix: see DESIGN §10 (and §13 for the socket transport).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import uuid
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from typing import (Callable, Collection, Dict, Iterable, List, Optional,
                    Protocol, Sequence, Set, Tuple)

from ..mutate import MutatorConfig
from ..obs import MetricsRegistry
from ..tv import RefinementConfig
from ..tv.interp import ExecutionLimits
from . import lease as core
from .campaign import CampaignReport, new_report
from .checkpoint import (CheckpointJournal, jobs_fingerprint, result_from_dict,
                         result_to_dict)
from .driver import FuzzConfig
from .feedback import FeedbackConfig
from .lease import (KIND_CORPUS, KIND_JOB, KIND_LEASE, KIND_MANIFEST,
                    KIND_RESULT, KIND_TOMBSTONE, REASON_NODE_LOST,
                    REASON_QUARANTINE, Lease, Policy, QueueError,
                    QueueMismatch)
from .parallel import JobRunner, ShardJob, ShardResult, execute_job, run_jobs
from .wire import BlobStore, DecodeCache, WireError, encode_payload

__all__ = ["DirectoryStore", "DistConfig", "Lease", "NodeReport",
           "NodeRunner", "QueueError", "QueueMismatch", "Transport",
           "WorkQueue", "job_from_wire", "job_to_wire", "open_queue",
           "run_coordinator"]

MANIFEST_NAME = "manifest.json"
QUEUE_VERSION = 2
MERGED_CORPUS_NAME = "merged.corpus.jsonl"
BLOBS_DIR = "blobs"
# Each record kind's directory and file suffix in a queue directory.
_FILES = {KIND_JOB: ("jobs", ".json"), KIND_LEASE: ("leases", ".json"),
          KIND_RESULT: ("results", ".json"),
          KIND_TOMBSTONE: ("tombstones", ".json"),
          KIND_CORPUS: ("corpus", ".corpus.jsonl")}


@dataclass
class DistConfig:
    """Coordinator-side knobs for a distributed campaign.

    Operational only — none of these affect what any job computes, so
    (like ``checkpoint_dir``) they are excluded from the campaign
    fingerprint and may differ between a run and its resume.
    """

    # The shared queue directory every node and the coordinator mount
    # (the filesystem transport; exclusive with queue_addr).
    queue_dir: str = ""
    # A ``host:port`` broker address (the socket transport — a
    # :class:`repro.fuzz.net.QueueBroker` someone is serving; exclusive
    # with queue_dir).
    queue_addr: str = ""
    # Seconds a lease lives between heartbeats.  Short leases detect
    # node loss quickly but demand frequent heartbeats; the node
    # heartbeats every lease_duration / 3 by default.
    lease_duration: float = 30.0
    # Total attempts (initial + reclaims) before a job is retired.
    max_attempts: int = 3
    # Coordinator poll interval while waiting for results, seconds.
    poll_interval: float = 0.05
    # Coordinator wait cap, seconds (None = wait for every job; the
    # campaign's global_time_budget also applies if set).
    wait_timeout: Optional[float] = None

    def validate(self) -> "DistConfig":
        if not self.queue_dir and not self.queue_addr:
            raise ValueError("dist.queue_dir or dist.queue_addr is required")
        if self.queue_dir and self.queue_addr:
            raise ValueError("dist.queue_dir and dist.queue_addr are "
                             "exclusive: one campaign, one transport")
        if self.lease_duration <= 0:
            raise ValueError("dist.lease_duration must be positive, "
                             f"got {self.lease_duration}")
        if self.max_attempts < 1:
            raise ValueError("dist.max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.poll_interval <= 0:
            raise ValueError("dist.poll_interval must be positive, "
                             f"got {self.poll_interval}")
        if self.wait_timeout is not None and self.wait_timeout < 0:
            raise ValueError("dist.wait_timeout must be >= 0, "
                             f"got {self.wait_timeout}")
        return self


# ---------------------------------------------------------------------------
# ShardJob <-> JSON (the wire format of the jobs/ directory).
# ---------------------------------------------------------------------------


def config_from_dict(config: dict) -> FuzzConfig:
    """Rebuild a :class:`FuzzConfig` from its ``asdict`` flattening."""
    config = dict(config)
    mutator = dict(config.pop("mutator"))
    tv = dict(config.pop("tv"))
    limits = dict(tv.pop("limits"))
    feedback = dict(config.pop("feedback"))
    return FuzzConfig(
        mutator=MutatorConfig(**mutator),
        tv=RefinementConfig(limits=ExecutionLimits(**limits), **tv),
        feedback=FeedbackConfig(**feedback),
        **config)


def _jsonified(value):
    """``value`` normalized through a JSON round-trip (tuples -> lists),
    so configs hydrated from disk diff cleanly against fresh ones."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def config_base(jobs: Sequence[ShardJob]) -> Optional[dict]:
    """The shared config a fresh campaign's job records diff against."""
    return _jsonified(asdict(jobs[0].config)) if jobs else None


def _dict_diff(full: dict, base: dict) -> dict:
    """The sparse nested overrides turning ``base`` into ``full``.

    Both sides are same-shape ``asdict`` flattenings of the same config
    dataclasses, so keys always align; only differing values (recursing
    into nested dicts) appear in the result.
    """
    overrides = {}
    for key, value in full.items():
        other = base.get(key)
        if isinstance(value, dict) and isinstance(other, dict):
            nested = _dict_diff(value, other)
            if nested:
                overrides[key] = nested
        elif value != other:
            overrides[key] = value
    return overrides


def _dict_merge(base: dict, overrides: dict) -> dict:
    """Apply :func:`_dict_diff` overrides to a deep copy of ``base``."""
    merged = dict(base)
    for key, value in overrides.items():
        other = merged.get(key)
        if isinstance(value, dict) and isinstance(other, dict):
            merged[key] = _dict_merge(other, value)
        else:
            merged[key] = value
    return merged


def job_to_wire(job: ShardJob, shared_config: dict,
                payload_sha: str, payload_format: str) -> dict:
    """The deduped queue record for one job.

    The shared :class:`FuzzConfig` lives once in the manifest
    (``shared_config``); each job carries only its sparse config
    overrides (seeds, pipeline) and references its module payload by
    content hash — so a re-published retry job whose state is unchanged
    re-serializes nothing.
    """
    full = _jsonified(asdict(job.config))
    return {
        "job_index": job.job_index,
        "file_name": job.file_name,
        "payload": {"sha": payload_sha, "format": payload_format},
        "config": _dict_diff(full, shared_config),
        "iterations": job.iterations,
        "time_budget": job.time_budget,
        "confirm_attributions": job.confirm_attributions,
        "deadline": job.deadline,
        "trace_dir": job.trace_dir,
        "trace_sample": job.trace_sample,
    }


def job_from_wire(record: dict, shared_config: dict,
                  text: str) -> ShardJob:
    """Rehydrate a job from its deduped record + resolved module text."""
    config = _dict_merge(shared_config, record.get("config", {}))
    return ShardJob(
        job_index=record["job_index"],
        file_name=record["file_name"],
        text=text,
        config=config_from_dict(config),
        iterations=record.get("iterations"),
        time_budget=record.get("time_budget"),
        confirm_attributions=record.get("confirm_attributions", False),
        deadline=record.get("deadline"),
        trace_dir=record.get("trace_dir"),
        trace_sample=record.get("trace_sample", 1.0),
    )


def resolve_claims(queue: "Transport",
                   claims: Iterable[Tuple[dict, Lease]],
                   blob: Callable[[str], Optional[bytes]]
                   ) -> List[Tuple[ShardJob, Lease]]:
    """Rehydrate claimed job records: the manifest's shared config plus
    the module ``blob(sha)`` returns, decoded once per digest.  A job that
    cannot be resolved is left out, but its lease stands and lapses into
    the ordinary reclaim → tombstone path, so the queue still drains."""
    shared_config = (queue.manifest() or {}).get("shared_config")
    resolved = []
    for record, lease in claims:
        with suppress(KeyError, TypeError, ValueError, WireError):
            payload = record["payload"]
            data = blob(payload["sha"])
            if data is not None:
                resolved.append((job_from_wire(
                    record, shared_config, queue.decode_cache.text(
                        payload["sha"], data, payload.get("format", "text"))),
                    lease))
                continue
        queue.metrics.count("wire.jobs.unresolvable")
    return resolved


def results_from_records(records: Iterable[dict]) -> Dict[int, ShardResult]:
    """Decode stored result records, keyed by job index; a record that
    does not decode is skipped."""
    results: Dict[int, ShardResult] = {}
    for record in records:
        with suppress(KeyError, TypeError):
            result = result_from_dict(record["result"])
            results[result.job_index] = result
    return results


# ---------------------------------------------------------------------------
# The transport protocol.
# ---------------------------------------------------------------------------


class Transport(Protocol):
    """The queue verbs :func:`run_coordinator` and :class:`NodeRunner` use:
    :class:`WorkQueue` and :class:`repro.fuzz.net.SocketQueue` implement
    them, so everything above — claims, heartbeats, retries, result
    dedup, corpus merging — behaves identically over both."""

    node: str
    metrics: MetricsRegistry

    def manifest(self) -> Optional[dict]: ...

    def publish(self, jobs: Sequence[ShardJob], fingerprint: str,
                total_jobs: Optional[int] = None,
                lease_duration: float = 30.0, max_attempts: int = 3,
                retry_backoff: float = 0.25,
                retry_jitter: float = 0.0) -> None: ...

    def claim_next(self, limit: int = 1) -> List[Tuple[ShardJob,
                                                       Lease]]: ...

    def heartbeat(self, job_index: int, lease_duration: float) -> bool: ...

    def release_for_retry(self, job_index: int, lease: Lease,
                          failure_kind: str, error: str) -> None: ...

    def publish_result(self, result: ShardResult, fingerprint: str,
                       attempt: int = 1) -> bool: ...

    def publish_corpus(self, job_index: int, journal_path: str) -> bool: ...

    def corpus_paths(self) -> List[Tuple[int, str]]: ...

    def collect_results(self, fingerprint: str,
                        known: Collection[int] = ()
                        ) -> Dict[int, ShardResult]: ...

    def collect_tombstones(self) -> Dict[int, dict]: ...

    def sweep(self) -> int: ...

    def drained(self) -> bool: ...

    def close(self) -> None: ...


# ---------------------------------------------------------------------------
# The work queue, and its record store over a shared directory.
# ---------------------------------------------------------------------------


def _encode(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


class DirectoryStore:
    """Queue records as one JSON file each, in one shared directory:
    ``manifest.json``, then ``job-<index>.json`` under ``jobs/``,
    ``leases/``, ``results/`` and ``tombstones/``, corpus deltas under
    ``corpus/`` and modules under ``blobs/``.  Every write is a fsync'd
    temp file moved into place by ``os.replace`` (last writer wins) or
    ``os.link`` (first writer wins), so a SIGKILL leaves the old file or
    the new one; a file that does not parse reads as absent."""

    version = QUEUE_VERSION

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.label = f"queue directory {directory}"
        self.metrics = MetricsRegistry()
        self.blobs = BlobStore(os.path.join(directory, BLOBS_DIR),
                               metrics=self.metrics)

    def path(self, kind: str, job_index: int) -> str:
        name, suffix = _FILES[kind]
        return os.path.join(self.directory, name,
                            f"job-{job_index:06d}{suffix}")

    def _temp(self, path: str, data: bytes) -> str:
        """``data`` in a fsync'd temp file next to ``path``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        directory, base = os.path.split(path)
        tmp = os.path.join(directory, f".{base}.{uuid.uuid4().hex}.tmp")
        with open(tmp, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        return tmp

    def _load(self, path: str) -> Optional[dict]:
        try:
            with open(path, "rb") as stream:
                raw = stream.read()
        except OSError:
            return None
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self.metrics.count("dist.files.damaged")
            return None
        return data if isinstance(data, dict) else None

    def read(self, kind: str, job_index: int) -> Optional[dict]:
        """The record, or None if it is absent *or damaged*."""
        return self._load(self.path(kind, job_index))

    def create(self, kind: str, job_index: int, record: dict) -> bool:
        """Store ``record`` unless a file is there (first writer wins)."""
        path = self.path(kind, job_index)
        tmp = self._temp(path, _encode(record))
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)

    def replace(self, kind: str, job_index: int, record: dict,
                verify: bool = False) -> bool:
        """Store ``record`` over whatever is there (last writer wins).
        ``verify`` reads it back: with no lock, two nodes may both take a
        job, and only the file that survives says which one did."""
        path, data = self.path(kind, job_index), _encode(record)
        os.replace(self._temp(path, data), path)
        return not verify or self._load(path) == json.loads(data)

    def delete(self, kind: str, job_index: int) -> None:
        with suppress(OSError):
            os.unlink(self.path(kind, job_index))

    def _listed(self, kind: str) -> List[Tuple[int, str]]:
        """(job index, path) of each of ``kind``'s files, index-sorted."""
        name, suffix = _FILES[kind]
        directory = os.path.join(self.directory, name)
        try:
            entries = os.listdir(directory)
        except OSError:
            return []
        found = []
        for entry in entries:
            stem = entry[4:-len(suffix)]
            if entry.startswith("job-") and entry.endswith(suffix) \
                    and stem.isdecimal():
                found.append((int(stem), os.path.join(directory, entry)))
        return sorted(found)

    def indexes(self, kind: str) -> List[int]:
        return [index for index, _path in self._listed(kind)]

    def manifest(self) -> Optional[dict]:
        return self._load(os.path.join(self.directory, MANIFEST_NAME))

    def put_manifest(self, record: dict) -> None:
        path = os.path.join(self.directory, MANIFEST_NAME)
        os.replace(self._temp(path, _encode(record)), path)

    def put_corpus(self, job_index: int, data: bytes) -> None:
        path = self.path(KIND_CORPUS, job_index)
        os.replace(self._temp(path, data), path)

    def corpus_paths(self) -> List[Tuple[int, str]]:
        return self._listed(KIND_CORPUS)


class WorkQueue:
    """The lease queue: every verb and every ``dist.*`` count, written
    once over a record store.

    ``directory`` names a shared queue directory (a
    :class:`DirectoryStore`) or is a record store.  The :class:`Transport`
    verbs act as this queue's ``node``; the socket broker serves one
    instance over a :class:`~repro.fuzz.net.MemoryStore` and acts for each
    connection's node through the verbs that take one.  ``clock`` is
    injectable for fake-clock tests and clock skew.
    """

    def __init__(self, directory, node: str = "",
                 clock: Callable[[], float] = time.time) -> None:
        self.store = DirectoryStore(os.fspath(directory)) \
            if isinstance(directory, (str, os.PathLike)) else directory
        self.node = node or f"node-{os.getpid()}"
        self.clock = clock
        self.metrics = self.store.metrics
        self.blobs = self.store.blobs
        self.decode_cache = DecodeCache(metrics=self.metrics)
        self._manifest_cache: Optional[dict] = None

    def manifest(self) -> Optional[dict]:
        """The campaign manifest, or None until a coordinator publishes."""
        if self._manifest_cache is None:
            data = self.store.manifest()
            if data is not None and data.get("kind") == KIND_MANIFEST:
                # Manifests are immutable once published (same
                # fingerprint, same content): one read serves this queue.
                self._manifest_cache = data
        return self._manifest_cache

    def read_lease(self, job_index: int) -> Optional[Lease]:
        data = self.store.read(KIND_LEASE, job_index)
        if data is not None and data.get("kind") == KIND_LEASE:
            with suppress(KeyError, TypeError, ValueError):
                return Lease.from_dict(data)
        return None

    def settled(self, job_index: int) -> bool:
        """True once the job has a (readable) result or tombstone."""
        return self.store.read(KIND_RESULT, job_index) is not None \
            or self.store.read(KIND_TOMBSTONE, job_index) is not None

    def _create_or_repair(self, kind: str, job_index: int,
                          record: dict) -> Optional[bool]:
        """Store ``record`` unless a readable one is there: True when it
        was created, False when it repaired one that reads as damaged,
        None when a readable one was there first (or a racing repair won).
        """
        if self.store.create(kind, job_index, record):
            return True
        current = self.read_lease(job_index) if kind == KIND_LEASE \
            else self.store.read(kind, job_index)
        if current is None and self.store.replace(kind, job_index, record,
                                                  verify=True):
            return False
        return None

    # -- publishing ---------------------------------------------------------

    def publish(self, jobs: Sequence[ShardJob], fingerprint: str,
                total_jobs: Optional[int] = None,
                lease_duration: float = 30.0, max_attempts: int = 3,
                retry_backoff: float = 0.25,
                retry_jitter: float = 0.0) -> None:
        """Publish ``jobs``, each module stored once as a blob, and the
        campaign manifest (see :meth:`publish_records`)."""
        shared_config = core.publish_base(self.store.manifest(), fingerprint,
                                          config_base(jobs),
                                          self.store.label)
        records = []
        for job in jobs:
            payload, actual_format = encode_payload(job.text,
                                                    metrics=self.metrics)
            records.append((job.job_index, job_to_wire(
                job, shared_config, self.blobs.put(payload), actual_format)))
        policy = Policy(lease_duration, max_attempts, retry_backoff,
                        retry_jitter, fingerprint)
        self.publish_records(policy,
                             len(jobs) if total_jobs is None else total_jobs,
                             shared_config, records)

    def publish_records(self, policy: Policy, total_jobs: int,
                        shared_config: Optional[dict],
                        records: Sequence[Tuple[int, dict]]) -> int:
        """Store ``(job index, wire record)`` pairs, unchanged ones
        skipped, then the manifest last, so nodes never see a campaign
        whose jobs are still being written; returns how many were written.
        A manifest of another campaign raises :class:`QueueMismatch`."""
        existing = self.store.manifest()
        shared_config = core.publish_base(existing, policy.fingerprint,
                                          shared_config, self.store.label)
        written = 0
        for index, record in records:
            current = self.store.read(KIND_JOB, index)
            if current is not None and current.get("job") == record:
                self.metrics.count("dist.jobs.unchanged")
                continue
            self.store.replace(KIND_JOB, index, {
                "kind": KIND_JOB, "fingerprint": policy.fingerprint,
                "job": record})
            written += 1
            self.metrics.count("dist.jobs.published")
        manifest = core.manifest_record(policy, total_jobs, shared_config,
                                        self.store.version)
        if manifest != existing:
            self.store.put_manifest(manifest)
        self._manifest_cache = None
        return written

    # -- leases -------------------------------------------------------------

    def claim_next(self, limit: int = 1) -> List[Tuple[ShardJob, Lease]]:
        """Claim up to ``limit`` runnable jobs, lowest index first."""
        return resolve_claims(self, self.claim(self.node, limit),
                              self.blobs.get)

    def claim(self, node: str, limit: int = 1) -> List[Tuple[dict, Lease]]:
        """Lease up to ``limit`` open jobs to ``node``, lowest index first,
        as (wire record, lease) pairs; a job whose attempts are exhausted
        is retired instead (see :func:`repro.fuzz.lease.claim`)."""
        manifest = self.manifest()
        if manifest is None:
            return []
        policy = Policy.from_manifest(manifest)
        now = self.clock()
        claimed: List[Tuple[dict, Lease]] = []
        for index in self.store.indexes(KIND_JOB):
            if len(claimed) >= limit:
                break
            if self.settled(index):
                continue
            decision = core.claim(self.read_lease(index), now, policy, index,
                                  node)
            lease = decision.lease
            if decision.outcome == core.RETIRE:
                self.retire(index, lease)
                continue
            if lease is None:
                continue  # live lease, or still backing off
            if decision.outcome == core.FRESH:
                fresh = self._create_or_repair(KIND_LEASE, index,
                                               lease.to_dict())
            else:
                fresh = False if self.store.replace(
                    KIND_LEASE, index, lease.to_dict(), verify=True) else None
            if fresh is None:
                continue  # lost the race
            self.metrics.count("dist.lease.claims" if fresh
                               else "dist.lease.reclaims")
            record = self.store.read(KIND_JOB, index) or {}
            claimed.append((record.get("job", {}), lease))
        return claimed

    def heartbeat(self, job_index: int, lease_duration: float,
                  node: Optional[str] = None) -> bool:
        """Renew ``node``'s lease (this queue's by default); False if it
        was lost: it expired (a long GC pause, clock skew) and another
        node reclaimed the job.  The caller may keep running — the
        duplicate result is dropped — but should stop renewing."""
        return self._rewrite(job_index, core.renew(
            self.read_lease(job_index), self.node if node is None else node,
            self.clock(), lease_duration), "dist.heartbeats")

    def release_for_retry(self, job_index: int, lease: Lease,
                          failure_kind: str, error: str,
                          node: Optional[str] = None) -> bool:
        """Give a hung or crashed job back for reclaim-with-backoff.

        The lease stays as the attempt record, expired as of now, with
        the failure recorded: the next claim bumps the attempt, and once
        the attempts are exhausted the failure kind decides between a
        ``quarantine`` and a ``node_lost`` tombstone.  False if the lease
        was reclaimed elsewhere meanwhile — lost, as for a heartbeat."""
        return self._rewrite(job_index, core.release(
            self.read_lease(job_index), self.node if node is None else node,
            lease.claimed_at, self.clock(), failure_kind, error),
            "dist.lease.released")

    def _rewrite(self, job_index: int, lease: Optional[Lease],
                 counter: str) -> bool:
        if lease is None:
            self.metrics.count("dist.lease.lost")
            return False
        self.store.replace(KIND_LEASE, job_index, lease.to_dict())
        self.metrics.count(counter)
        return True

    def retire(self, job_index: int, lease: Lease) -> bool:
        """Tombstone a job whose attempts are exhausted (first writer
        wins); see :func:`repro.fuzz.lease.tombstone`."""
        if self._create_or_repair(KIND_TOMBSTONE, job_index,
                                  core.tombstone(lease)) is None:
            return False
        self.metrics.count("dist.tombstones")
        if not lease.released:
            self.metrics.count("dist.node_lost")
        return True

    # -- results and corpus deltas ------------------------------------------

    def publish_result(self, result: ShardResult, fingerprint: str,
                       attempt: int = 1) -> bool:
        """Park one terminal shard result; False if it was a duplicate.

        First writer wins.  A stored result that reads as damaged (a torn
        file) is repaired by this publish, so a broken copy never shadows
        the good one and the job's result is not lost."""
        return self.store_result(self.node, result.job_index, fingerprint,
                                 attempt, result_to_dict(result))

    def store_result(self, node: str, job_index: int, fingerprint: str,
                     attempt: int, result: dict) -> bool:
        """Store ``node``'s result of a job (the :func:`result_to_dict`
        form) unless a readable one is there; False for a duplicate."""
        stored = self._create_or_repair(KIND_RESULT, job_index,
                                        core.result_record(
                                            fingerprint, node, attempt,
                                            result))
        if stored is None:
            self.metrics.count("dist.results.duplicate")
            return False
        self.metrics.count("dist.results.published" if stored
                           else "dist.results.repaired")
        self.store.delete(KIND_LEASE, job_index)
        return True

    def publish_corpus(self, job_index: int, journal_path: str) -> bool:
        """Park a job's corpus-journal delta next to its result."""
        try:
            with open(journal_path, "rb") as stream:
                self.put_corpus(job_index, stream.read())
        except OSError:
            return False
        return True

    def put_corpus(self, job_index: int, data: bytes) -> None:
        self.store.put_corpus(job_index, data)
        self.metrics.count("dist.corpus.published")

    def corpus_paths(self) -> List[Tuple[int, str]]:
        """Published corpus deltas as (job index, path), index-sorted."""
        return self.store.corpus_paths()

    # -- the coordinator ----------------------------------------------------

    def collect_results(self, fingerprint: str,
                        known: Collection[int] = ()
                        ) -> Dict[int, ShardResult]:
        """Every parked result of *this* campaign, keyed by job index.

        Results of another fingerprint (a resurrected node of an older
        campaign sharing the queue) are dropped, and a damaged one reads
        as absent, so its job re-runs (see :meth:`results`)."""
        return results_from_records(self.results(fingerprint, known))

    def results(self, fingerprint: str,
                known: Collection[int] = ()) -> List[dict]:
        """The stored result records of campaign ``fingerprint`` (another
        campaign's are dropped), leaving out the ``known`` indices: a
        stored result never changes, so those are not read again."""
        records = []
        for _index, record in self._stored(KIND_RESULT, set(known)):
            if record.get("fingerprint") == fingerprint:
                records.append(record)
            else:
                self.metrics.count("dist.results.foreign")
        return records

    def collect_tombstones(self) -> Dict[int, dict]:
        return dict(self._stored(KIND_TOMBSTONE))

    def _stored(self, kind: str, skip: Collection[int] = ()):
        """(job index, record) of each readable ``kind`` record, by index;
        ``skip`` indices are not read."""
        for index in self.store.indexes(kind):
            record = None if index in skip else self.store.read(kind, index)
            if record is not None and record.get("kind") == kind:
                yield index, record

    def sweep(self) -> int:
        """Retire jobs whose attempts are exhausted and count lost leases:
        if the whole fleet died, this turns the silence into ``node_lost``
        tombstones.  Returns how many jobs were newly retired."""
        manifest = self.manifest()
        if manifest is None:
            return 0
        expired, exhausted = core.sweep(
            ((index, self.read_lease(index))
             for index in self.store.indexes(KIND_LEASE)
             if not self.settled(index)),
            self.clock(), Policy.from_manifest(manifest).max_attempts)
        if expired:
            self.metrics.count("dist.lease.expired", expired)
        return sum(self.retire(index, lease) for index, lease in exhausted)

    def drained(self) -> bool:
        """True when the campaign is published and every job settled."""
        return core.drained(self.manifest(), self.store.indexes(KIND_JOB),
                            self.settled)

    def close(self) -> None:
        """Release transport resources (none: the store is the state)."""


def open_queue(dist: DistConfig, node: str = "") -> "Transport":
    """The transport a :class:`DistConfig` names.

    ``queue_dir`` opens the shared-directory :class:`WorkQueue`;
    ``queue_addr`` connects a :class:`repro.fuzz.net.SocketQueue` to a
    running broker.  Everything above the :class:`Transport` surface is
    identical over both.
    """
    if dist.queue_addr:
        from .net import SocketQueue
        return SocketQueue(dist.queue_addr, node=node)
    return WorkQueue(dist.queue_dir, node=node)


# ---------------------------------------------------------------------------
# The node runner.
# ---------------------------------------------------------------------------


@dataclass
class NodeReport:
    """What one node did with its share of the queue."""

    node: str
    jobs_run: int = 0
    published: int = 0
    duplicates: int = 0
    released: int = 0
    elapsed: float = 0.0
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


class NodeRunner:
    """Pull jobs from a :class:`Transport` and run them to completion.

    Claimed jobs run through :func:`repro.fuzz.parallel.run_jobs`, the
    scheduler single-host campaigns use, so its hard watchdog and crash
    attribution apply unchanged on a node (a job with a deadline runs in
    a worker process even when ``workers=1``).  A
    heartbeat thread renews every active lease at
    ``lease_duration / 3``; if the node is SIGKILLed the thread dies
    with it and the leases expire on their own, which *is* the
    node-loss protocol.

    Hang/crash results are not published: the lease is released for
    retry instead, so the queue-level backoff/quarantine machinery —
    not the node — decides the job's fate.  Deterministic in-job errors
    (a raising job, a parse failure) are terminal and publish normally,
    matching single-host semantics where only hangs and crashes retry.
    """

    def __init__(self, queue: "Transport", workers: int = 1,
                 runner: JobRunner = execute_job,
                 poll_interval: float = 0.05,
                 work_dir: Optional[str] = None) -> None:
        self.queue = queue
        self.workers = max(1, workers)
        self.runner = runner
        self.poll_interval = poll_interval
        self.work_dir = work_dir
        self.report = NodeReport(node=queue.node, metrics=queue.metrics)
        self._active: Dict[int, Lease] = {}
        self._active_lock = threading.Lock()
        self._hb_stop = threading.Event()

    # -- the heartbeat thread ----------------------------------------------

    def _heartbeat_loop(self, lease_duration: float) -> None:
        interval = max(0.01, lease_duration / 3.0)
        while not self._hb_stop.wait(interval):
            with self._active_lock:
                active = list(self._active)
            for job_index in active:
                if not self.queue.heartbeat(job_index, lease_duration):
                    # Lease lost (expired + reclaimed elsewhere): stop
                    # renewing; the in-flight run still publishes and
                    # dedups.
                    with self._active_lock:
                        self._active.pop(job_index, None)

    # -- running ------------------------------------------------------------

    def run(self, time_budget: Optional[float] = None,
            max_jobs: Optional[int] = None,
            should_stop: Optional[Callable[[], bool]] = None,
            wait_for_manifest: Optional[float] = None) -> NodeReport:
        """Drain the queue: claim, run, publish, until nothing is left.

        Exits when every published job is settled (or ``time_budget``
        / ``max_jobs`` / ``should_stop`` says so).  With
        ``wait_for_manifest`` the node waits up to that many seconds
        for a coordinator to publish before giving up.
        """
        started = time.monotonic()

        def out_of_time() -> bool:
            if time_budget is not None \
                    and time.monotonic() - started >= time_budget:
                return True
            return should_stop is not None and should_stop()

        manifest = self.queue.manifest()
        while manifest is None:
            if out_of_time() or wait_for_manifest is None \
                    or time.monotonic() - started >= wait_for_manifest:
                self.report.elapsed = time.monotonic() - started
                return self.report
            time.sleep(self.poll_interval)
            manifest = self.queue.manifest()
        lease_duration = float(manifest.get("lease_duration", 30.0))
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     args=(lease_duration,), daemon=True)
        heartbeat.start()
        try:
            while not out_of_time():
                if max_jobs is not None \
                        and self.report.jobs_run >= max_jobs:
                    break
                claimed = self.queue.claim_next(limit=self.workers)
                if not claimed:
                    if self.queue.drained():
                        break
                    time.sleep(self.poll_interval)
                    continue
                self._run_batch(claimed, manifest)
        finally:
            self._hb_stop.set()
            heartbeat.join()
        self.report.elapsed = time.monotonic() - started
        return self.report

    def run_once(self) -> Optional[int]:
        """Claim and run at most one job (test/chaos hook).

        Returns the settled job's index, or None if nothing was
        claimable.
        """
        manifest = self.queue.manifest()
        if manifest is None:
            return None
        claimed = self.queue.claim_next(limit=1)
        if not claimed:
            return None
        self._run_batch(claimed, manifest)
        return claimed[0][0].job_index

    def _run_batch(self, claimed: Sequence[Tuple[ShardJob, Lease]],
                   manifest: dict) -> None:
        fingerprint = manifest.get("fingerprint", "")
        leases = {job.job_index: lease for job, lease in claimed}
        jobs = [self._localize(job) for job, _lease in claimed]
        with self._active_lock:
            self._active.update(leases)

        def publish(result: ShardResult) -> None:
            with self._active_lock:
                self._active.pop(result.job_index, None)
            self.report.jobs_run += 1
            lease = leases[result.job_index]
            result.worker = f"{self.queue.node}/{result.worker}" \
                if result.worker else self.queue.node
            result.attempts = lease.attempt
            if result.failure_kind in ("hang", "crash"):
                self.queue.release_for_retry(
                    result.job_index, lease, result.failure_kind,
                    result.error)
                self.report.released += 1
                return
            self._publish_corpus(result.job_index)
            if self.queue.publish_result(result, fingerprint,
                                         attempt=lease.attempt):
                self.report.published += 1
            else:
                self.report.duplicates += 1

        try:
            run_jobs(jobs, workers=self.workers, runner=self.runner,
                     on_result=publish)
        finally:
            with self._active_lock:
                for job_index in leases:
                    self._active.pop(job_index, None)

    # -- node-local paths ---------------------------------------------------

    def _localize(self, job: ShardJob) -> ShardJob:
        """Point a job's corpus journal at a private per-job directory
        (the coordinator's ``corpus_dir`` names a path on *its*
        filesystem); the delta is published once the job completes, so
        the queue only ever sees whole, settled deltas.  ``corpus_dir``
        is not part of the campaign fingerprint, so the rewrite does not
        change the job's identity."""
        if not job.config.feedback.enabled:
            return job
        from dataclasses import replace
        job_dir = self._job_dir(job.job_index)
        os.makedirs(job_dir, exist_ok=True)
        feedback = replace(job.config.feedback, corpus_dir=job_dir)
        return replace(job, config=replace(job.config, feedback=feedback))

    def _job_dir(self, job_index: int) -> str:
        work_dir = self.work_dir or os.path.join(
            tempfile.gettempdir(), f"repro-dist-{self.queue.node}")
        return os.path.join(work_dir, f"job-{job_index:06d}")

    def _publish_corpus(self, job_index: int) -> None:
        job_dir = self._job_dir(job_index)
        try:
            names = sorted(os.listdir(job_dir))
        except OSError:
            return
        for name in names:
            if name.endswith(".corpus.jsonl"):
                self.queue.publish_corpus(job_index,
                                          os.path.join(job_dir, name))
                return


# ---------------------------------------------------------------------------
# The coordinator.
# ---------------------------------------------------------------------------


def synthesize_tombstone_result(job: ShardJob, stone: dict) -> ShardResult:
    """A terminal :class:`ShardResult` for a tombstoned job.

    ``node_lost`` retirements surface as
    ``ShardFailure(kind="node_lost")`` in the merged report; released
    hang/crash retirements ride the existing quarantine path.
    """
    reason = stone.get("reason", REASON_NODE_LOST)
    kind = REASON_QUARANTINE if reason == REASON_QUARANTINE \
        else REASON_NODE_LOST
    return ShardResult(
        job_index=job.job_index, file_name=job.file_name,
        pipeline=job.config.pipeline, seed=job.config.base_seed,
        error=stone.get("error", "job retired"),
        failure_kind=kind,
        attempts=int(stone.get("attempts", 1)))


def merge_corpus_journals(queue: "Transport", out_path: str,
                          max_size: int = 4096) -> int:
    """Merge every published corpus delta into one campaign journal.

    This closes the cross-job corpus sharing loop: per-job corpora are
    admitted in job-index order (deterministic regardless of which node
    produced which delta) into one campaign-level corpus via
    :func:`repro.fuzz.corpus.merge_journals`, and the merged journal
    can seed the next campaign via ``Corpus.load``.  Returns the number
    of entries in the merged corpus.
    """
    from .corpus import merge_journals
    deltas = queue.corpus_paths()
    if not deltas:
        return 0
    return merge_journals([path for _index, path in deltas], out_path,
                          max_size=max_size)


def run_coordinator(executor, resume: bool = False) -> CampaignReport:
    """Drive a distributed campaign from the coordinator seat.

    Publishes the job matrix to the queue, then polls: collected
    results are journaled to the campaign checkpoint (if configured) as
    they arrive, expired leases are swept, and tombstones become
    terminal failures.  The merge is the single-host merge —
    job-index-ordered over deduplicated results — so the report is
    bit-identical to an uninterrupted single-host run whenever every
    job eventually completed.

    A killed coordinator loses nothing: nodes keep draining their
    leases and parking results; re-running with ``resume=True`` (or
    even without a checkpoint — the queue itself holds every parked
    result) collects them and continues.
    """
    config = executor.config
    dist = config.dist.validate()
    report = new_report(config)
    started = time.perf_counter()
    jobs = executor.build_jobs()
    by_index = {job.job_index: job for job in jobs}
    fingerprint = jobs_fingerprint(jobs)
    journal: Optional[CheckpointJournal] = None
    cached: Dict[int, ShardResult] = {}
    if config.checkpoint_dir:
        journal = CheckpointJournal(config.checkpoint_dir)
        cached = journal.start(fingerprint, total_jobs=len(jobs),
                               resume=resume)
    queue = open_queue(dist, node="coordinator")
    todo = [job for job in jobs if job.job_index not in cached]
    queue.publish(todo, fingerprint, total_jobs=len(jobs),
                  lease_duration=dist.lease_duration,
                  max_attempts=dist.max_attempts,
                  retry_backoff=config.retry_backoff,
                  retry_jitter=config.retry_jitter)
    stop = executor._stop
    collected: Dict[int, ShardResult] = {}
    stones: Dict[int, dict] = {}
    outstanding: Set[int] = {job.job_index for job in todo}

    def out_of_time() -> bool:
        elapsed = time.perf_counter() - started
        if config.global_time_budget is not None \
                and elapsed >= config.global_time_budget:
            return True
        if dist.wait_timeout is not None and elapsed >= dist.wait_timeout:
            return True
        return stop.requested

    try:
        with stop:
            while outstanding:
                results = queue.collect_results(fingerprint,
                                                known=collected)
                for index, result in results.items():
                    if index in collected or index not in outstanding:
                        continue
                    collected[index] = result
                    outstanding.discard(index)
                    if journal is not None:
                        journal.append(result)
                queue.sweep()
                for index, stone in queue.collect_tombstones().items():
                    if index in stones or index not in outstanding:
                        continue
                    stones[index] = stone
                    outstanding.discard(index)
                if not outstanding or out_of_time():
                    break
                time.sleep(dist.poll_interval)
    finally:
        if journal is not None:
            journal.close()
    terminal: List[ShardResult] = list(cached.values()) \
        + list(collected.values())
    for index, stone in stones.items():
        job = by_index.get(index)
        if job is not None:
            terminal.append(synthesize_tombstone_result(job, stone))
    terminal.sort(key=lambda result: result.job_index)
    executor._merge(report, jobs, terminal)
    report.metrics.merge(queue.metrics)
    merged_dir = dist.queue_dir or config.checkpoint_dir \
        or tempfile.mkdtemp(prefix="repro-dist-corpus-")
    merged_entries = merge_corpus_journals(
        queue, os.path.join(merged_dir, MERGED_CORPUS_NAME))
    if merged_entries:
        report.metrics.count("dist.corpus.merged_entries", merged_entries)
    queue.close()
    report.resumed_jobs = len(cached)
    report.interrupted = stop.requested
    report.interrupt_signal = stop.signal_name
    report.elapsed = time.perf_counter() - started
    return report
