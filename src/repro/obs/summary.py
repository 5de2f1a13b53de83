"""Normalized benchmark summaries (``BENCH_campaign.json``).

Any campaign or throughput run can be reduced to one flat, normalized
JSON document that CI's ``bench-smoke`` job diffs against a committed
baseline (``benchmarks/baseline.json``).  The schema is deliberately
small and stable::

    {"bench": "campaign", "schema": 1,
     "elapsed": 12.3, "workers": 4,
     "iterations": 1440, "mutants_per_sec": 117.0,
     "valid_mutant_rate": 0.98,
     "stage_share": {"mutate": 0.1, "optimize": 0.3, "verify": 0.6},
     "findings": 120, "found_bugs": 33,
     "retries": 0, "quarantined": 0, "failed_shards": 0,
     "parse_failures": 0, "skipped_jobs": 0}

The writer takes duck-typed report objects so this module stays free of
imports from :mod:`repro.fuzz` (fuzz imports obs, not the reverse).
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .snapshots import ThroughputSnapshot

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "campaign_summary",
    "load_summary",
    "throughput_summary",
    "write_campaign_summary",
    "write_summary",
]

BENCH_SCHEMA_VERSION = 1


def campaign_summary(report, name: str = "campaign") -> dict:
    """Normalize a :class:`~repro.fuzz.campaign.CampaignReport`."""
    snapshot = ThroughputSnapshot.from_metrics(report.metrics, report.elapsed)
    found = report.found_bugs() if hasattr(report, "found_bugs") else []
    return {
        "bench": name,
        "schema": BENCH_SCHEMA_VERSION,
        "elapsed": round(report.elapsed, 6),
        "workers": report.workers,
        "iterations": report.total_iterations,
        "mutants_per_sec": round(snapshot.mutants_per_sec, 3),
        "valid_mutant_rate": round(snapshot.valid_mutant_rate, 6),
        "stage_share": {
            stage: round(share, 6)
            for stage, share in snapshot.stage_share.items()
        },
        "findings": report.total_findings,
        "found_bugs": len(found),
        "retries": snapshot.retries,
        "quarantined": len(report.quarantined),
        "failed_shards": len(report.failed_shards),
        "parse_failures": len(report.parse_failures),
        "skipped_jobs": report.skipped_jobs,
        "optimize_hit_rate": round(snapshot.optimize_hit_rate, 6),
        "verify_hit_rate": round(snapshot.verify_hit_rate, 6),
        "exec_plan_hit_rate": round(snapshot.exec_plan_hit_rate, 6),
        "exec_plan_evictions": snapshot.exec_plan_evictions,
        "exec_plan_slots": snapshot.exec_plan_slots,
        "exec_batch_lanes_per_batch": round(
            snapshot.exec_batch_lanes_per_batch, 3
        ),
        "exec_batch_divergence_splits": snapshot.exec_batch_divergence_splits,
        "exec_batch_scalar_fallbacks": snapshot.exec_batch_scalar_fallbacks,
        "exec_verify_same_plan": snapshot.exec_verify_same_plan,
        "exec_verify_static_skips": snapshot.exec_verify_static_skips,
        "exec_verify_target_inputs_pruned": (
            snapshot.exec_verify_target_inputs_pruned
        ),
        "gc_seconds": round(snapshot.gc_seconds, 6),
        "gc_share": round(snapshot.gc_share, 6),
        "gc_full_collections": snapshot.gc_full_collections,
        "corpus_size": snapshot.corpus_size,
        "features_covered": snapshot.features_covered,
        "new_feature_rate": round(snapshot.new_feature_rate, 6),
        "pass_seconds": {
            name: round(seconds, 6)
            for name, seconds in sorted(snapshot.pass_seconds.items())
        },
        "scan_visits": snapshot.scan_visits,
        "knownbits_queries": snapshot.knownbits_queries,
        "knownbits_hit_rate": round(snapshot.knownbits_hit_rate, 6),
        "wire_bytes_sent": snapshot.wire_bytes_sent,
        "blob_hit_rate": round(snapshot.blob_hit_rate, 6),
        "decode_hit_rate": round(snapshot.decode_hit_rate, 6),
    }


def throughput_summary(report, name: str = "throughput") -> dict:
    """Normalize a :class:`~repro.fuzz.throughput.ThroughputReport`."""
    return {
        "bench": name,
        "schema": BENCH_SCHEMA_VERSION,
        "files": len(report.timings),
        "invalid_files": len(report.invalid),
        "not_verified_files": len(report.not_verified),
        "speedup_avg": round(report.average_perf, 4),
        "speedup_best": round(report.best_perf, 4),
        "speedup_worst": round(report.worst_perf, 4),
        "alive_seconds": round(
            sum(t.alive_mutate_seconds for t in report.timings), 6
        ),
        "discrete_seconds": round(
            sum(t.discrete_seconds for t in report.timings), 6
        ),
    }


def write_summary(payload: dict, path: str) -> str:
    """Write one normalized summary as pretty JSON; returns the path."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return path


def write_campaign_summary(
    report, path: str, name: str = "campaign"
) -> dict:
    """Summarize ``report`` and write it to ``path``; returns the payload."""
    payload = campaign_summary(report, name=name)
    write_summary(payload, path)
    return payload


def load_summary(path: str) -> Optional[dict]:
    """Read a summary written by :func:`write_summary` (None if absent)."""
    if not os.path.exists(path):
        return None
    with open(path) as stream:
        return json.load(stream)
