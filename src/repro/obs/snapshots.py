"""Periodic throughput telemetry: snapshots and the progress reporter.

A :class:`ThroughputSnapshot` is a derived, human-meaningful view over a
:class:`~repro.obs.metrics.MetricsRegistry` at one instant: mutants/sec,
valid-mutant rate, per-stage time share, findings and retry/quarantine
counts — the numbers behind the paper's throughput claim (§V-B).

:class:`ProgressReporter` emits snapshots to pluggable sinks on a time
interval.  ``tick`` is called once per fuzzing iteration and costs one
monotonic-clock read between intervals, so it can sit on the hot loop.
Two sinks are provided: :func:`stderr_sink` (a one-line progress report)
and :class:`JsonlSnapshotSink` (one JSON object per snapshot)::

    {"elapsed": 12.3, "iterations": 456, "mutants_per_sec": 37.1,
     "valid_mutant_rate": 0.98, "stage_share": {"mutate": 0.12, ...},
     "findings": 3, "retries": 0, "quarantined": 0,
     "gc_share": 0.07, "gc_full_collections": 4, ...}
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .metrics import MetricsRegistry

__all__ = [
    "JsonlSnapshotSink",
    "ProgressReporter",
    "ThroughputSnapshot",
    "stderr_sink",
]

STAGES = ("mutate", "optimize", "verify")


@dataclass
class ThroughputSnapshot:
    """Derived throughput statistics at one point in time."""

    elapsed: float = 0.0
    iterations: int = 0
    mutants_per_sec: float = 0.0
    valid_mutant_rate: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_share: Dict[str, float] = field(default_factory=dict)
    findings: int = 0
    retries: int = 0
    quarantined: int = 0
    # Memoization effectiveness (paper §III-B): hit rates of the
    # optimize and verify fingerprint caches, 0.0 when no lookups
    # happened yet.
    optimize_hit_rate: float = 0.0
    verify_hit_rate: float = 0.0
    # Execution-plan cache effectiveness (paper §III-B "pay once"): hit
    # rate of the driver's plan cache, 0.0 when no lookups happened yet.
    exec_plan_hit_rate: float = 0.0
    # What the plan cache holds and sheds: plans evicted, and the
    # high-water mark of resident frame slots (its bound's unit).
    exec_plan_evictions: int = 0
    exec_plan_slots: int = 0
    # Batched execution (repro.tv.batch): average lanes driven per batch
    # walk, divergence regroupings, and checks that fell back to scalar
    # enumeration.  All 0 when batching is off or nothing verified yet.
    exec_batch_lanes_per_batch: float = 0.0
    exec_batch_divergence_splits: int = 0
    exec_batch_scalar_fallbacks: int = 0
    # Validation proven unnecessary (repro.tv.refine): checks whose two
    # sides share one plan, checks answered without executing anything,
    # and target inputs never run because the source hit UB or a
    # timeout there.  All 0 until something verified.
    exec_verify_same_plan: int = 0
    exec_verify_static_skips: int = 0
    exec_verify_target_inputs_pruned: int = 0
    # The cyclic collector's tax on the loop (repro.obs.gcprobe):
    # seconds inside collections, their share of the stage time, and how
    # many of them were full (generation 2) collections — the ones whose
    # cost follows the number of long-lived objects.
    gc_seconds: float = 0.0
    gc_share: float = 0.0
    gc_full_collections: int = 0
    # Coverage feedback (repro.fuzz.feedback): runtime-corpus high-water
    # mark, features covered, and new-features-per-draw rate.  All 0
    # when feedback is off — and every rate here guards its denominator,
    # because an empty-target shard legitimately records zero draws,
    # zero optimize calls, and zero of everything else.
    corpus_size: int = 0
    features_covered: int = 0
    new_feature_rate: float = 0.0
    # The per-pass wall-clock breakdown of the optimize stage (from the
    # ``optimize.pass.<name>.seconds`` counters); empty until something
    # was optimized.
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    # Work done by the scan passes (constfold / instsimplify /
    # instcombine): instructions visited over all sweeps, known-bits
    # lookups, and the share of those answered by the per-run memo.
    scan_visits: int = 0
    knownbits_queries: int = 0
    knownbits_hit_rate: float = 0.0
    # Transport tier (repro.fuzz.wire / repro.fuzz.net): bytes on the
    # socket, the per-node blob-transfer cache's hit rate, and the
    # decode LRU's hit rate.  All 0 on single-host campaigns or the
    # shared-dir transport with text payloads.
    wire_bytes_sent: int = 0
    blob_hit_rate: float = 0.0
    decode_hit_rate: float = 0.0

    @classmethod
    def from_metrics(
        cls, metrics: MetricsRegistry, elapsed: float
    ) -> "ThroughputSnapshot":
        created = metrics.counter("mutants.created")
        valid = metrics.counter("mutants.valid")
        stage_seconds = {
            stage: metrics.counter(f"stage.{stage}.seconds")
            for stage in STAGES
        }
        stage_total = sum(stage_seconds.values())

        def hit_rate(cache: str) -> float:
            hits = metrics.counter(f"cache.{cache}.hit")
            total = hits + metrics.counter(f"cache.{cache}.miss")
            return hits / total if total else 0.0

        plan_hits = metrics.counter("exec.plan_cache.hit")
        plan_total = plan_hits + metrics.counter("exec.plan_cache.miss")
        gc_seconds = sum(
            metrics.counters_with_prefix("gc.seconds.").values()
        )
        batches = metrics.counter("exec.batch.batches")
        batch_lanes = metrics.counter("exec.batch.lanes")
        draws = metrics.counter("feedback.draws")
        new_features = metrics.counter("feedback.features.new")
        prefix = "optimize.pass."
        suffix = ".seconds"
        pass_seconds = {
            name[len(prefix) : -len(suffix)]: seconds
            for name, seconds in metrics.counters_with_prefix(prefix).items()
            if name.endswith(suffix)
        }
        kb_queries = metrics.counter("opt.knownbits.queries")
        kb_hits = metrics.counter("opt.knownbits.memo_hits")
        blob_hits = metrics.counter("wire.blob_cache.hit")
        blob_total = blob_hits + metrics.counter("wire.blob_cache.miss")
        decode_hits = metrics.counter("bitcode.decode_cache.hit")
        decode_total = decode_hits + metrics.counter(
            "bitcode.decode_cache.miss"
        )

        return cls(
            elapsed=elapsed,
            iterations=int(created),
            mutants_per_sec=created / elapsed if elapsed > 0 else 0.0,
            valid_mutant_rate=valid / created if created else 0.0,
            stage_seconds=stage_seconds,
            stage_share={
                stage: seconds / stage_total if stage_total else 0.0
                for stage, seconds in stage_seconds.items()
            },
            findings=int(
                metrics.counter("findings.miscompilation")
                + metrics.counter("findings.crash")
            ),
            retries=int(metrics.counter("campaign.retry.attempts")),
            quarantined=int(metrics.counter("campaign.quarantined")),
            optimize_hit_rate=hit_rate("optimize"),
            verify_hit_rate=hit_rate("verify"),
            exec_plan_hit_rate=plan_hits / plan_total if plan_total else 0.0,
            exec_plan_evictions=int(
                metrics.counter("exec.plan_cache.evictions")
            ),
            exec_plan_slots=int(metrics.gauges.get("exec.plan_cache.slots", 0.0)),
            exec_batch_lanes_per_batch=(
                batch_lanes / batches if batches else 0.0
            ),
            exec_batch_divergence_splits=int(
                metrics.counter("exec.batch.divergence_splits")
            ),
            exec_batch_scalar_fallbacks=int(
                metrics.counter("exec.batch.scalar_fallbacks")
            ),
            exec_verify_same_plan=int(metrics.counter("exec.verify.same_plan")),
            exec_verify_static_skips=int(
                metrics.counter("exec.verify.static_skips")
            ),
            exec_verify_target_inputs_pruned=int(
                metrics.counter("exec.verify.target_inputs_pruned")
            ),
            gc_seconds=gc_seconds,
            gc_share=gc_seconds / stage_total if stage_total else 0.0,
            gc_full_collections=int(metrics.counter("gc.collections.gen2")),
            corpus_size=int(metrics.gauges.get("corpus.size", 0.0)),
            features_covered=int(metrics.gauges.get("feedback.features.covered", 0.0)),
            new_feature_rate=new_features / draws if draws else 0.0,
            pass_seconds=pass_seconds,
            scan_visits=int(metrics.counter("opt.scan.visits")),
            knownbits_queries=int(kb_queries),
            knownbits_hit_rate=kb_hits / kb_queries if kb_queries else 0.0,
            wire_bytes_sent=int(metrics.counter("wire.bytes.sent")),
            blob_hit_rate=blob_hits / blob_total if blob_total else 0.0,
            decode_hit_rate=(
                decode_hits / decode_total if decode_total else 0.0
            ),
        )

    def to_dict(self) -> dict:
        return {
            "elapsed": round(self.elapsed, 6),
            "iterations": self.iterations,
            "mutants_per_sec": round(self.mutants_per_sec, 3),
            "valid_mutant_rate": round(self.valid_mutant_rate, 6),
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in self.stage_seconds.items()
            },
            "stage_share": {
                stage: round(share, 6)
                for stage, share in self.stage_share.items()
            },
            "findings": self.findings,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "optimize_hit_rate": round(self.optimize_hit_rate, 6),
            "verify_hit_rate": round(self.verify_hit_rate, 6),
            "exec_plan_hit_rate": round(self.exec_plan_hit_rate, 6),
            "exec_plan_evictions": self.exec_plan_evictions,
            "exec_plan_slots": self.exec_plan_slots,
            "exec_batch_lanes_per_batch": round(
                self.exec_batch_lanes_per_batch, 3
            ),
            "exec_batch_divergence_splits": self.exec_batch_divergence_splits,
            "exec_batch_scalar_fallbacks": self.exec_batch_scalar_fallbacks,
            "exec_verify_same_plan": self.exec_verify_same_plan,
            "exec_verify_static_skips": self.exec_verify_static_skips,
            "exec_verify_target_inputs_pruned": (
                self.exec_verify_target_inputs_pruned
            ),
            "gc_seconds": round(self.gc_seconds, 6),
            "gc_share": round(self.gc_share, 6),
            "gc_full_collections": self.gc_full_collections,
            "corpus_size": self.corpus_size,
            "features_covered": self.features_covered,
            "new_feature_rate": round(self.new_feature_rate, 6),
            "pass_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.pass_seconds.items())
            },
            "scan_visits": self.scan_visits,
            "knownbits_queries": self.knownbits_queries,
            "knownbits_hit_rate": round(self.knownbits_hit_rate, 6),
            "wire_bytes_sent": self.wire_bytes_sent,
            "blob_hit_rate": round(self.blob_hit_rate, 6),
            "decode_hit_rate": round(self.decode_hit_rate, 6),
        }

    def progress_line(self) -> str:
        """The one-line stderr progress format."""
        share = " ".join(
            f"{stage} {self.stage_share.get(stage, 0.0):.0%}"
            for stage in STAGES
        )
        line = (
            f"[{self.elapsed:7.1f}s] {self.iterations} mutants "
            f"({self.mutants_per_sec:.1f}/s, "
            f"{self.valid_mutant_rate:.0%} valid) | {share} | "
            f"{self.findings} findings"
        )
        if self.optimize_hit_rate or self.verify_hit_rate:
            line += (
                f" | memo opt {self.optimize_hit_rate:.0%} "
                f"tv {self.verify_hit_rate:.0%}"
            )
        if self.exec_plan_hit_rate:
            line += f" | plan {self.exec_plan_hit_rate:.0%}"
        if self.exec_verify_same_plan or self.exec_verify_target_inputs_pruned:
            line += (
                f" | tv same-plan {self.exec_verify_same_plan}"
                f" no-exec {self.exec_verify_static_skips}"
                f" pruned {self.exec_verify_target_inputs_pruned}"
            )
        if self.exec_batch_lanes_per_batch:
            line += f" | batch {self.exec_batch_lanes_per_batch:.1f} lanes"
        if self.gc_seconds:
            line += (
                f" | gc {self.gc_share:.0%}"
                f" (full {self.gc_full_collections})"
            )
        if self.corpus_size or self.features_covered:
            line += f" | corpus {self.corpus_size} ({self.features_covered} feats)"
        if self.wire_bytes_sent:
            line += (
                f" | wire {self.wire_bytes_sent / 1024.0:.1f}KiB"
                f" blob {self.blob_hit_rate:.0%}"
                f" dec {self.decode_hit_rate:.0%}"
            )
        if self.retries or self.quarantined:
            line += (
                f" | {self.retries} retries, "
                f"{self.quarantined} quarantined"
            )
        return line

    def pass_breakdown(self) -> str:
        """Where the optimize stage went: seconds per pass, slowest
        first, then the scan passes' work counts.  Empty if no pass ran."""
        if not self.pass_seconds:
            return ""
        line = " ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in sorted(
                self.pass_seconds.items(), key=lambda item: -item[1]
            )
        )
        if self.scan_visits:
            line += (
                f" | scan {self.scan_visits} visits"
                f" · kb {self.knownbits_queries} queries"
                f" ({self.knownbits_hit_rate:.0%} memo)"
            )
        return line


def stderr_sink(snapshot: ThroughputSnapshot) -> None:
    """Write the snapshot's progress line to stderr."""
    print(snapshot.progress_line(), file=sys.stderr)


class JsonlSnapshotSink:
    """Appends one JSON object per snapshot to a file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._stream = open(path, "w")

    def __call__(self, snapshot: ThroughputSnapshot) -> None:
        self._stream.write(json.dumps(snapshot.to_dict()) + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


class ProgressReporter:
    """Emits throughput snapshots to sinks every ``interval`` seconds.

    ``clock`` is injectable for tests.  ``tick`` is designed for the
    fuzzing hot loop: between intervals it costs one clock read.
    """

    def __init__(
        self,
        interval: float = 2.0,
        sinks: Optional[Sequence[Callable[[ThroughputSnapshot], None]]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.sinks: List[Callable[[ThroughputSnapshot], None]] = list(
            sinks or [stderr_sink]
        )
        self._clock = clock
        self._started = clock()
        self._last_emit = self._started

    def tick(self, metrics: MetricsRegistry) -> Optional[ThroughputSnapshot]:
        """Emit a snapshot if the interval elapsed; returns it if emitted."""
        now = self._clock()
        if now - self._last_emit < self.interval:
            return None
        self._last_emit = now
        return self.emit(metrics, now - self._started)

    def emit(
        self, metrics: MetricsRegistry, elapsed: Optional[float] = None
    ) -> ThroughputSnapshot:
        """Unconditionally snapshot and fan out to every sink."""
        if elapsed is None:
            elapsed = self._clock() - self._started
        snapshot = ThroughputSnapshot.from_metrics(metrics, elapsed)
        for sink in self.sinks:
            sink(snapshot)
        return snapshot
