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
  file (``os.link`` of a unique temp file, which fails atomically if a
  lease exists).  A lease is time-bounded: it names the node, the
  attempt number, and an expiry timestamp.
* **heartbeat** — the owning node periodically rewrites the lease
  (atomic ``os.replace``) with a fresh expiry.  A node that stops
  heartbeating — SIGKILL, kernel panic, unplugged cable — simply stops
  renewing, and the lease expires on its own.
* **reclaim** — any node (or the coordinator's sweep) that finds an
  expired lease may take the job over, bumping the attempt number and
  honoring the quarantine machinery's exponential backoff (plus the
  campaign's optional decorrelation jitter).  Node loss is therefore
  *the existing hang/retry path*: attempts are bounded, and a job whose
  every lease expired is retired as ``ShardFailure(kind="node_lost")``.
* **result** — a finished job's :class:`~repro.fuzz.parallel.ShardResult`
  is parked as a result file via exclusive create.  Jobs are
  *at-least-once*: a resurrected node may finish a job that was already
  reclaimed and re-run elsewhere, but results are keyed by (job index,
  campaign fingerprint) and only the first publish lands — duplicates
  are dropped deterministically, and since job execution is
  deterministic the dropped copy is bit-identical anyway.
* **tombstone** — a job retired without a usable result (attempts
  exhausted) gets a tombstone so nodes stop reclaiming it.

Every mutation is crash-safe: files are written to a unique temp name,
fsync'd, then atomically linked or renamed into place, so a SIGKILL at
any instant leaves either the old state or the new state, never a torn
protocol file.  Readers treat an unparsable lease as expired (the claim
protocol re-takes it) and an unparsable result as absent (the job
re-runs and the repaired result replaces the torn file).

Every decision above is made by :mod:`repro.fuzz.lease`, the state
machine the socket broker shares; this module owns only the files.

Failure matrix
--------------
=====================  ====================================================
node killed mid-job    lease expires; job reclaimed with backoff; partial
                       node-local state discarded (jobs are atomic)
node killed            result already parked; coordinator collects it;
after publish          nothing re-runs
coordinator killed     nodes keep draining their leases and park results;
                       a restarted coordinator re-publishes the (identical)
                       manifest, collects parked results, and resumes
torn queue file        impossible via the protocol (atomic rename); if
                       injected anyway (chaos), damaged leases read as
                       expired and damaged results as absent
clock skew             leases are compared against the *reader's* clock;
                       skew shortens or stretches effective lease time but
                       never breaks exclusivity (claims are exclusive file
                       creation, not timestamp arbitration)
=====================  ====================================================
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import (Callable, Collection, Dict, List, Optional, Protocol,
                    Sequence, Set, Tuple)

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
from .lease import (KIND_LEASE, KIND_MANIFEST, KIND_RESULT, KIND_TOMBSTONE,
                    REASON_NODE_LOST, REASON_QUARANTINE, Lease, Policy,
                    QueueError, QueueMismatch)
from .parallel import JobRunner, ShardJob, ShardResult, execute_job, run_jobs
from .wire import BlobStore, DecodeCache, WireError, encode_payload

__all__ = ["DistConfig", "Lease", "NodeReport", "NodeRunner", "QueueError",
           "QueueMismatch", "Transport", "WorkQueue", "job_from_wire",
           "job_to_wire", "open_queue", "run_coordinator"]

MANIFEST_NAME = "manifest.json"
QUEUE_VERSION = 2
MERGED_CORPUS_NAME = "merged.corpus.jsonl"
BLOBS_DIR = "blobs"


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


def job_from_record(record: dict, manifest: Optional[dict],
                    blob: Callable[[str], Optional[bytes]],
                    decode_cache: DecodeCache) -> Optional[ShardJob]:
    """Rehydrate a queue's job record: the manifest's shared config plus
    the module ``blob(sha)`` returns, decoded once per digest; None while
    either is missing."""
    shared_config = manifest.get("shared_config") if manifest else None
    payload = record.get("payload", {})
    sha = payload.get("sha", "")
    data = blob(sha) if isinstance(shared_config, dict) else None
    if data is None:
        return None
    text = decode_cache.text(sha, data, payload.get("format", "text"))
    return job_from_wire(record, shared_config, text)


# ---------------------------------------------------------------------------
# The transport protocol.
# ---------------------------------------------------------------------------


class Transport(Protocol):
    """The queue verbs :func:`run_coordinator` and :class:`NodeRunner` use.

    Extracted from :class:`WorkQueue` so the runtime is
    transport-agnostic: the shared-dir queue and the socket queue
    (:class:`repro.fuzz.net.SocketQueue`) implement the same surface,
    and everything above this line — claims, heartbeats, retries,
    result dedup, corpus merging — behaves identically over both.
    """

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
# The filesystem-backed work queue.
# ---------------------------------------------------------------------------


class WorkQueue:
    """Crash-safe lease/result protocol over one shared directory.

    Every instance (coordinator or node) talks to the same directory;
    there is no in-memory state another process could need.  All
    mutations go through :meth:`_write_atomic` (write temp + fsync +
    ``os.replace``) or :meth:`_create_exclusive` (write temp + fsync +
    ``os.link``), so a SIGKILL at any instant leaves a recoverable
    state.  ``clock`` is injectable for chaos tests (clock skew) and
    deterministic simulations.
    """

    def __init__(self, directory: str, node: str = "",
                 clock: Callable[[], float] = time.time) -> None:
        self.directory = directory
        self.node = node or f"node-{os.getpid()}"
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.blobs = BlobStore(os.path.join(directory, BLOBS_DIR),
                               metrics=self.metrics)
        self.decode_cache = DecodeCache(metrics=self.metrics)
        self._tmp_serial = 0
        self._job_cache: Dict[int, ShardJob] = {}
        self._manifest_cache: Optional[dict] = None

    # -- paths --------------------------------------------------------------

    def _dir(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def job_path(self, job_index: int) -> str:
        return os.path.join(self._dir("jobs"), f"job-{job_index:06d}.json")

    def lease_path(self, job_index: int) -> str:
        return os.path.join(self._dir("leases"), f"job-{job_index:06d}.json")

    def result_path(self, job_index: int) -> str:
        return os.path.join(self._dir("results"), f"job-{job_index:06d}.json")

    def tombstone_path(self, job_index: int) -> str:
        return os.path.join(self._dir("tombstones"),
                            f"job-{job_index:06d}.json")

    def corpus_path(self, job_index: int) -> str:
        return os.path.join(self._dir("corpus"),
                            f"job-{job_index:06d}.corpus.jsonl")

    # -- atomic file primitives --------------------------------------------

    def _tmp_path(self, final_path: str) -> str:
        self._tmp_serial += 1
        directory, base = os.path.split(final_path)
        return os.path.join(directory, f".{base}.{self.node}."
                                       f"{os.getpid()}.{self._tmp_serial}.tmp")

    def _write_payload(self, tmp: str, payload: dict) -> None:
        with open(tmp, "w") as stream:
            stream.write(json.dumps(payload, sort_keys=True) + "\n")
            stream.flush()
            os.fsync(stream.fileno())

    def _write_atomic(self, path: str, payload: dict) -> None:
        """Last-writer-wins atomic replace (heartbeats, reclaims)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = self._tmp_path(path)
        self._write_payload(tmp, payload)
        os.replace(tmp, path)

    def _create_exclusive(self, path: str, payload: dict) -> bool:
        """First-writer-wins atomic create (claims, results, tombstones).

        Returns False if ``path`` already exists — the caller lost the
        race (or is a duplicate publisher) and must not assume
        ownership.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = self._tmp_path(path)
        self._write_payload(tmp, payload)
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)

    def _read_json(self, path: str) -> Optional[dict]:
        """Parse one protocol file; None if absent *or damaged*.

        Damage (torn writes injected by chaos, or a reader racing a
        non-atomic writer on an exotic filesystem) is indistinguishable
        from absence by design: a damaged lease is reclaimable, a
        damaged result re-runs.
        """
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

    # -- coordinator: publish ----------------------------------------------

    def publish(self, jobs: Sequence[ShardJob], fingerprint: str,
                total_jobs: Optional[int] = None,
                lease_duration: float = 30.0, max_attempts: int = 3,
                retry_backoff: float = 0.25,
                retry_jitter: float = 0.0) -> None:
        """Publish ``jobs`` and the campaign manifest.

        Job files land first, the manifest last (atomically), so nodes
        never observe a campaign whose jobs are still being written.  A
        coordinator killed mid-publish leaves no manifest (or the old,
        identical one); re-running ``publish`` is idempotent.  An
        existing manifest with a different fingerprint raises
        :class:`QueueMismatch` — one queue directory serves one
        campaign.
        """
        shared_config = core.publish_base(
            self._read_json(self.manifest_path()), fingerprint,
            config_base(jobs), f"queue directory {self.directory}")
        for job in jobs:
            payload, actual_format = encode_payload(job.text,
                                                    metrics=self.metrics)
            sha = self.blobs.put(payload)
            record = {
                "kind": "job",
                "fingerprint": fingerprint,
                "job": job_to_wire(job, shared_config, sha, actual_format),
            }
            current = self._read_json(self.job_path(job.job_index))
            if current == record:
                # Re-published retry job with unchanged state: the blob
                # is content-addressed and the record identical, so
                # nothing is re-serialized.
                self.metrics.count("dist.jobs.unchanged")
                continue
            self._write_atomic(self.job_path(job.job_index), record)
            self.metrics.count("dist.jobs.published")
        policy = Policy(lease_duration, max_attempts, retry_backoff,
                        retry_jitter, fingerprint)
        self._write_atomic(self.manifest_path(), core.manifest_record(
            policy, len(jobs) if total_jobs is None else total_jobs,
            shared_config, QUEUE_VERSION))
        self._manifest_cache = None

    def manifest(self) -> Optional[dict]:
        """The campaign manifest, or None until a coordinator publishes."""
        if self._manifest_cache is not None:
            return self._manifest_cache
        data = self._read_json(self.manifest_path())
        if data is not None and data.get("kind") != KIND_MANIFEST:
            return None
        if data is not None:
            # Manifests are immutable once published (same fingerprint,
            # same content), so one read serves the whole session.
            self._manifest_cache = data
        return data

    # -- nodes: jobs and claims --------------------------------------------

    def _listed(self, name: str,
                suffix: str = ".json") -> List[Tuple[int, str]]:
        """(job index, path) of each ``job-<index><suffix>`` file in the
        ``name`` directory, index-sorted."""
        try:
            entries = os.listdir(self._dir(name))
        except OSError:
            return []
        found = []
        for entry in entries:
            if entry.startswith("job-") and entry.endswith(suffix):
                try:
                    index = int(entry[4:-len(suffix)])
                except ValueError:
                    continue
                found.append((index, os.path.join(self._dir(name), entry)))
        return sorted(found)

    def published_indexes(self) -> List[int]:
        """Every published job index, sorted."""
        return [index for index, _path in self._listed("jobs")]

    def load_job(self, job_index: int) -> Optional[ShardJob]:
        cached = self._job_cache.get(job_index)
        if cached is not None:
            return cached
        data = self._read_json(self.job_path(job_index))
        if data is None or data.get("kind") != "job":
            return None
        record = data.get("job")
        if not isinstance(record, dict):
            return None
        try:
            job = job_from_record(record, self.manifest(), self.blobs.get,
                                  self.decode_cache)
        except (KeyError, TypeError, ValueError, WireError):
            return None
        if job is None:
            return None
        self._job_cache[job_index] = job
        return job

    def read_lease(self, job_index: int) -> Optional[Lease]:
        data = self._read_json(self.lease_path(job_index))
        if data is None or data.get("kind") != KIND_LEASE:
            return None
        try:
            return Lease.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None

    def has_result(self, job_index: int) -> bool:
        return self._read_json(self.result_path(job_index)) is not None

    def has_tombstone(self, job_index: int) -> bool:
        return self._read_json(self.tombstone_path(job_index)) is not None

    def settled(self, job_index: int) -> bool:
        """True once the job has a (readable) result or tombstone."""
        return self.has_result(job_index) or self.has_tombstone(job_index)

    def drained(self) -> bool:
        """True when the campaign is published and every job settled."""
        return core.drained(self.manifest(), self.published_indexes(),
                            self.settled)

    def claim(self, job_index: int,
              manifest: Optional[dict] = None) -> Optional[Tuple[ShardJob,
                                                                 Lease]]:
        """Try to take one job; None if it is settled, leased, or backing
        off.

        Fresh jobs are claimed by exclusive lease creation; expired (or
        damaged, or released-for-retry) leases are reclaimed by atomic
        replace followed by a read-back ownership check — two nodes may
        race the replace, but exactly one sees itself as the owner
        afterwards, and even a double-run is safe (results dedup).
        Reclaims honor the campaign's retry backoff + jitter and retire
        the job with a tombstone once ``max_attempts`` is exhausted.
        """
        manifest = manifest or self.manifest()
        if manifest is None or self.settled(job_index):
            return None
        job = self.load_job(job_index)
        if job is None:
            return None
        path = self.lease_path(job_index)
        decision = core.claim(self.read_lease(job_index), self.clock(),
                              Policy.from_manifest(manifest), job_index,
                              self.node)
        lease = decision.lease
        if decision.outcome == core.RETIRE:
            self.retire(job_index, lease)
            return None
        if lease is None:
            return None  # live lease, or still backing off
        if decision.outcome == core.FRESH and not os.path.exists(path):
            if not self._create_exclusive(path, lease.to_dict()):
                return None  # lost the race
            self.metrics.count("dist.lease.claims")
            return job, lease
        # A reclaim — or a fresh claim over a damaged lease file, which
        # crash-consistency treats as expired with unknown history.
        self._write_atomic(path, lease.to_dict())
        self.metrics.count("dist.lease.reclaims")
        # Read-back ownership check: if another node replaced after us,
        # it owns the job now (at most one of the racers sees its own
        # write).
        current = self.read_lease(job_index)
        if current is None or (current.node, current.claimed_at) \
                != (self.node, lease.claimed_at):
            return None
        return job, lease

    def claim_next(self, limit: int = 1) -> List[Tuple[ShardJob, Lease]]:
        """Claim up to ``limit`` runnable jobs, lowest index first."""
        manifest = self.manifest()
        if manifest is None:
            return []
        claimed: List[Tuple[ShardJob, Lease]] = []
        for index in self.published_indexes():
            if len(claimed) >= limit:
                break
            taken = self.claim(index, manifest)
            if taken is not None:
                claimed.append(taken)
        return claimed

    def heartbeat(self, job_index: int, lease_duration: float) -> bool:
        """Renew this node's lease; False if the lease was lost.

        A lost heartbeat means the lease expired (e.g. a long GC pause
        or clock skew) and someone else reclaimed the job.  The caller
        may keep running — the duplicate result will be dropped — but
        should stop renewing.
        """
        renewed = core.renew(self.read_lease(job_index), self.node,
                             self.clock(), lease_duration)
        if renewed is None:
            self.metrics.count("dist.lease.lost")
            return False
        self._write_atomic(self.lease_path(job_index), renewed.to_dict())
        self.metrics.count("dist.heartbeats")
        return True

    def release_for_retry(self, job_index: int, lease: Lease,
                          failure_kind: str, error: str) -> None:
        """Give a hang/crash job back to the queue for reclaim-with-backoff.

        The lease stays on disk as the attempt record, expired as of
        now, with the failure recorded — the next claim bumps the
        attempt and (once attempts are exhausted) the failure kind
        decides between a ``quarantine`` and a ``node_lost`` retirement.
        A lease reclaimed elsewhere in the meantime is not ours to
        release: that is a lost lease, as for a failed heartbeat.
        """
        released = core.release(self.read_lease(job_index), self.node,
                                lease.claimed_at, self.clock(),
                                failure_kind, error)
        if released is None:
            self.metrics.count("dist.lease.lost")
            return
        self._write_atomic(self.lease_path(job_index), released.to_dict())
        self.metrics.count("dist.lease.released")

    def retire(self, job_index: int, lease: Lease) -> bool:
        """Tombstone a job whose attempts are exhausted (first writer
        wins); see :func:`repro.fuzz.lease.tombstone`."""
        created = self._create_exclusive(self.tombstone_path(job_index),
                                         core.tombstone(lease))
        if created:
            self.metrics.count("dist.tombstones")
            if not lease.released:
                self.metrics.count("dist.node_lost")
        return created

    # -- nodes: publishing results -----------------------------------------

    def publish_result(self, result: ShardResult, fingerprint: str,
                       attempt: int = 1) -> bool:
        """Park one terminal shard result; False if it was a duplicate.

        First-writer-wins (exclusive create).  A torn result file left
        by chaos injection parses as absent, so the retry's publish
        *repairs* it via atomic replace instead of dropping the good
        copy.
        """
        payload = core.result_record(fingerprint, self.node, attempt,
                                     result_to_dict(result))
        path = self.result_path(result.job_index)
        if self._create_exclusive(path, payload):
            self.metrics.count("dist.results.published")
            self._drop_lease(result.job_index)
            return True
        if self._read_json(path) is None:
            # Existing file is torn/unreadable: repair it.
            self._write_atomic(path, payload)
            self.metrics.count("dist.results.repaired")
            self._drop_lease(result.job_index)
            return True
        self.metrics.count("dist.results.duplicate")
        return False

    def publish_corpus(self, job_index: int, journal_path: str) -> bool:
        """Park a job's corpus-journal delta next to its result."""
        path = self.corpus_path(job_index)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = self._tmp_path(path)
        try:
            shutil.copyfile(journal_path, tmp)
        except OSError:
            return False
        with open(tmp, "rb") as stream:
            os.fsync(stream.fileno())
        os.replace(tmp, path)
        self.metrics.count("dist.corpus.published")
        return True

    def corpus_paths(self) -> List[Tuple[int, str]]:
        """Published corpus deltas as (job index, path), index-sorted."""
        return self._listed("corpus", ".corpus.jsonl")

    def _drop_lease(self, job_index: int) -> None:
        try:
            os.unlink(self.lease_path(job_index))
        except OSError:
            pass

    # -- coordinator: collection and sweeping ------------------------------

    def collect_results(self, fingerprint: str,
                        known: Collection[int] = ()
                        ) -> Dict[int, ShardResult]:
        """Every parked result of *this* campaign, keyed by job index.

        Results carrying a foreign fingerprint (a resurrected node from
        an older campaign that somehow shares the directory) are
        dropped; damaged files read as absent and the job re-runs.
        ``known`` names job indices the caller already holds: a stored
        result never changes (first writer wins), so their files are
        not read again and they are left out of the reply.
        """
        results: Dict[int, ShardResult] = {}
        skip = set(known)
        for index, path in self._listed("results"):
            if index in skip:
                continue
            data = self._read_json(path)
            if data is None or data.get("kind") != KIND_RESULT:
                continue
            if data.get("fingerprint") != fingerprint:
                self.metrics.count("dist.results.foreign")
                continue
            try:
                result = result_from_dict(data["result"])
            except (KeyError, TypeError):
                continue
            results[result.job_index] = result
        return results

    def collect_tombstones(self) -> Dict[int, dict]:
        stones: Dict[int, dict] = {}
        for index, path in self._listed("tombstones"):
            data = self._read_json(path)
            if data is not None and data.get("kind") == KIND_TOMBSTONE:
                stones[index] = data
        return stones

    def sweep(self) -> int:
        """Retire jobs whose attempts are exhausted; count lost leases.

        Nodes normally do the reclaiming themselves, but if the whole
        fleet died the coordinator's sweep is what turns the silence
        into ``node_lost`` tombstones instead of an eternal wait.
        Returns how many jobs were newly retired.
        """
        manifest = self.manifest()
        if manifest is None:
            return 0
        expired, exhausted = core.sweep(
            ((index, self.read_lease(index))
             for index in self.published_indexes()
             if not self.settled(index)),
            self.clock(), Policy.from_manifest(manifest).max_attempts)
        if expired:
            self.metrics.count("dist.lease.expired", expired)
        return sum(self.retire(index, lease) for index, lease in exhausted)

    def close(self) -> None:
        """Release transport resources (none: the directory is the state)."""


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
        """Point a job's corpus journal at node-local scratch space.

        The coordinator's ``feedback.corpus_dir`` (if any) names a path
        on *its* filesystem; on the node the journal is written to a
        private per-job directory and *published* into the queue after
        the job completes — the shared dir sees only whole, settled
        deltas.  ``corpus_dir`` is excluded from the campaign
        fingerprint, so the rewrite does not change the job's identity.
        """
        if not job.config.feedback.enabled:
            return job
        from dataclasses import replace
        work_dir = self.work_dir or os.path.join(
            tempfile.gettempdir(), f"repro-dist-{self.queue.node}")
        job_dir = os.path.join(work_dir, f"job-{job.job_index:06d}")
        os.makedirs(job_dir, exist_ok=True)
        feedback = replace(job.config.feedback, corpus_dir=job_dir)
        return replace(job, config=replace(job.config, feedback=feedback))

    def _publish_corpus(self, job_index: int) -> None:
        work_dir = self.work_dir or os.path.join(
            tempfile.gettempdir(), f"repro-dist-{self.queue.node}")
        job_dir = os.path.join(work_dir, f"job-{job_index:06d}")
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
