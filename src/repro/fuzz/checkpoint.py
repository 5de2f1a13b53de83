"""Checkpoint journal for fault-tolerant campaigns.

A campaign that runs for days must survive a crash, an OOM kill, or a
Ctrl-C without losing completed work.  This module provides a durable,
append-only JSONL journal of completed :class:`~repro.fuzz.parallel.ShardResult`
records, keyed by a deterministic *campaign fingerprint* (a hash of the
job matrix: corpus texts + per-job configs), so a resumed campaign can

* refuse to merge results produced by a *different* campaign
  (:class:`CheckpointMismatch`), and
* skip every already-journaled job index, producing a final report
  identical to an uninterrupted run (merging stays job-index ordered —
  the determinism contract of :mod:`repro.fuzz.parallel` is preserved
  across a kill/resume cycle).

Durability model
----------------
Each record is one JSON line, written with flush + ``os.fsync`` before
:meth:`CheckpointJournal.append` returns.  A record is only *complete*
once its trailing newline is on disk, so the single failure mode of a
crash mid-append is a damaged **final** line.  :meth:`CheckpointJournal.start`
detects that (unparsable tail, or a parsable tail missing its newline),
drops the damaged record, and truncates the file back to the last valid
byte — the damaged job simply re-runs.  The fingerprint is excluded from
worker-count and scheduling knobs, so a campaign may be resumed with a
different ``workers``/deadline setting and still match.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, IO, Optional, Sequence

from ..config import semantic_dict
from ..obs import MetricsRegistry
from .driver import StageTimings
from .feedback import FeedbackStats
from .findings import Finding

__all__ = ["CheckpointError", "CheckpointMismatch", "CheckpointJournal",
           "jobs_fingerprint", "result_to_dict", "result_from_dict"]

JOURNAL_NAME = "journal.jsonl"
JOURNAL_VERSION = 1


class CheckpointError(RuntimeError):
    """The checkpoint journal cannot be used (I/O or format problem)."""


class CheckpointMismatch(CheckpointError):
    """The journal on disk belongs to a different campaign.

    Raised on resume when the stored fingerprint does not match the
    fingerprint of the job matrix about to run: merging would silently
    mix findings from two different configurations/corpora.
    """


def jobs_fingerprint(jobs: Sequence) -> str:
    """Deterministic fingerprint of a job matrix (config + corpus hash).

    Depends only on what each job *computes* — index, seed file text,
    the *semantic* fields of the per-job
    :class:`~repro.fuzz.driver.FuzzConfig` (see :mod:`repro.config`),
    iteration/time budget, confirmation mode.  Deliberately independent
    of scheduling (worker count, deadlines, retry policy) and of every
    field tagged operational (output paths such as
    ``feedback.corpus_dir``, the execution engine ``tv.batched``), so
    operational tuning never invalidates completed work.
    """
    digest = hashlib.sha256()
    for job in jobs:
        payload = {
            "index": job.job_index,
            "file": job.file_name,
            "text_sha": hashlib.sha256(job.text.encode()).hexdigest(),
            "config": semantic_dict(job.config),
            "iterations": job.iterations,
            "time_budget": job.time_budget,
            "confirm": job.confirm_attributions,
        }
        digest.update(json.dumps(payload, sort_keys=True,
                                 default=str).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def result_to_dict(result) -> dict:
    """A JSON-safe dict for one :class:`ShardResult` (inverse below).

    Doubles as the wire format of the distributed queue's result files
    (:mod:`repro.fuzz.dist`): a result parked by a node and a result
    journaled by the checkpoint are the same record, which is what lets
    the coordinator journal collected results straight into the
    ordinary checkpoint and resume across the two transports.
    """
    return {
        "kind": "shard",
        "job_index": result.job_index,
        "file_name": result.file_name,
        "pipeline": result.pipeline,
        "worker": result.worker,
        "seed": result.seed,
        "iterations": result.iterations,
        "findings": [json.loads(f.to_json()) for f in result.findings],
        "confirmed_bug_ids": result.confirmed_bug_ids,
        "dropped_functions": result.dropped_functions,
        "timings": {"mutate": result.timings.mutate,
                    "optimize": result.timings.optimize,
                    "verify": result.timings.verify},
        "parse_error": result.parse_error,
        "error": result.error,
        "failure_kind": result.failure_kind,
        "attempts": result.attempts,
        "metrics": result.metrics.to_dict(),
        "feedback": (result.feedback.to_dict()
                     if result.feedback is not None else None),
    }


def result_from_dict(data: dict):
    """Rehydrate a :class:`ShardResult` journaled by :func:`result_to_dict`."""
    from .parallel import ShardResult
    timings = data.get("timings", {})
    return ShardResult(
        job_index=data["job_index"],
        file_name=data.get("file_name", ""),
        pipeline=data.get("pipeline", ""),
        worker=data.get("worker", ""),
        seed=data.get("seed", -1),
        iterations=data.get("iterations", 0),
        findings=[Finding.from_json(json.dumps(f))
                  for f in data.get("findings", [])],
        confirmed_bug_ids=[list(ids)
                           for ids in data.get("confirmed_bug_ids", [])],
        dropped_functions=dict(data.get("dropped_functions", {})),
        timings=StageTimings(mutate=timings.get("mutate", 0.0),
                             optimize=timings.get("optimize", 0.0),
                             verify=timings.get("verify", 0.0)),
        parse_error=data.get("parse_error", ""),
        error=data.get("error", ""),
        failure_kind=data.get("failure_kind", ""),
        attempts=data.get("attempts", 1),
        # Journals written before metrics existed lack the key; an empty
        # registry merges as a no-op, so old checkpoints stay resumable.
        metrics=MetricsRegistry.from_dict(data.get("metrics", {})),
        feedback=(FeedbackStats.from_dict(data["feedback"])
                  if data.get("feedback") else None),
    )


class CheckpointJournal:
    """Durable JSONL journal of completed shards in a checkpoint dir.

    Lifecycle: :meth:`start` validates/initializes the journal and
    returns the cached results (``{}`` unless resuming), then
    :meth:`append` is called once per *terminal* shard result, and
    :meth:`close` releases the stream.  ``start``/``append``/``close``
    all run on the supervising process only — workers never touch the
    journal, so a worker kill cannot damage it.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.path = os.path.join(directory, JOURNAL_NAME)
        self.dropped_records = 0
        self._stream: Optional[IO[str]] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self, fingerprint: str, total_jobs: int,
              resume: bool = False) -> Dict[int, object]:
        """Open the journal for appending; return cached shard results.

        Fresh start (``resume=False``) truncates any existing journal.
        Resume reads it (tolerating a damaged tail), verifies the
        fingerprint, truncates the damaged tail away so subsequent
        appends start on a clean line, and returns the journaled results
        keyed by job index.
        """
        os.makedirs(self.directory, exist_ok=True)
        cached: Dict[int, object] = {}
        if resume and os.path.exists(self.path):
            cached, valid_bytes = self._read(fingerprint)
            with open(self.path, "a") as stream:
                stream.truncate(valid_bytes)
            self._stream = open(self.path, "a")
        else:
            self._stream = open(self.path, "w")
            header = {"kind": "header", "version": JOURNAL_VERSION,
                      "fingerprint": fingerprint, "total_jobs": total_jobs}
            self._write_line(json.dumps(header, sort_keys=True))
        return cached

    def append(self, result) -> None:
        """Durably journal one terminal shard result (fsync'd)."""
        if self._stream is None:
            raise CheckpointError("journal is not open (call start first)")
        self._write_line(json.dumps(result_to_dict(result), sort_keys=True))

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _write_line(self, line: str) -> None:
        assert self._stream is not None
        self._stream.write(line + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def _read(self, fingerprint: str):
        """Parse the journal; return (results by index, valid byte count)."""
        with open(self.path, "rb") as stream:
            raw = stream.read()
        results: Dict[int, object] = {}
        valid_bytes = 0
        saw_header = False
        offset = 0
        for piece in raw.splitlines(keepends=True):
            offset += len(piece)
            complete = piece.endswith(b"\n")
            stripped = piece.strip()
            if not stripped:
                if complete:
                    valid_bytes = offset
                continue
            try:
                data = json.loads(stripped.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                data = None
            if not isinstance(data, dict) or not complete:
                # Damaged or newline-less record: a crash mid-append.
                # Drop it (the job re-runs) and do not advance
                # ``valid_bytes``, so a damaged tail is truncated away
                # before any new append lands.
                self.dropped_records += 1
                continue
            kind = data.get("kind")
            if not saw_header:
                if kind != "header":
                    raise CheckpointError(
                        f"{self.path}: first record is not a journal header")
                if data.get("fingerprint") != fingerprint:
                    raise CheckpointMismatch(
                        f"{self.path} belongs to a different campaign "
                        f"(fingerprint {data.get('fingerprint', '?')[:12]} "
                        f"!= {fingerprint[:12]}); use a fresh checkpoint "
                        "directory or drop --resume")
                saw_header = True
            elif kind == "shard":
                try:
                    result = result_from_dict(data)
                except (KeyError, TypeError):
                    self.dropped_records += 1
                    continue
                results[result.job_index] = result
            valid_bytes = offset
        if not saw_header:
            raise CheckpointError(
                f"{self.path}: no usable journal header; the file is "
                "damaged beyond resume — use a fresh checkpoint directory")
        return results, valid_bytes
