"""Metric names of the ledger and how the per-layer ones are derived.

Layers are ``repro``'s packages.  Three sources feed them: the spans
the traced pass recorded from outside (:mod:`spans`), the
``MetricsRegistry`` / ``StageTimings`` the program itself returned with
its report (exact where they are counts), and the ``cProfile`` call
totals of the count pass.  A metric that does not apply to a workload
(``fuzz.queue.*`` on a single-process campaign) reads 0.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import spans as span_lib

__all__ = ["ABSOLUTE", "END_TO_END", "PACKAGES", "PASSES", "PER_LAYER",
           "TIMING_DERIVED", "calls_by_package", "from_trace", "from_counts"]

PACKAGES: Tuple[str, ...] = ("ir", "analysis", "mutate", "opt", "tv", "fuzz",
                             "obs")

# name -> (unit, better, bound as a share of the median).  The timing
# bounds are wide because this kind of machine drifts: the same pass
# runs up to 20 % faster or slower an hour apart, wall and CPU time
# alike (README, "Why the timing bounds are 25 %").  The two metrics that
# do not drift vary only with the seed's draw of mutants.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "mutants_per_sec": ("1/s", "higher", 0.25),
    "jobs_per_sec": ("1/s", "higher", 0.25),
    "cpu_ms_per_mutant": ("ms", "lower", 0.25),
    "pycalls_per_mutant": ("calls", "lower", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

# Reported by the ledger beside the six above, judged on absolute
# bounds; they can be 0, so BENCHMARK.json cannot carry them (its
# bounds are shares of a median) and they gate through ``correct`` /
# ``failed`` instead.
ABSOLUTE: Dict[str, Tuple[str, str]] = {
    "bugs_found": ("count", "higher"),
    "failed_share": ("ratio", "lower"),
    "false_alarms": ("count", "lower"),
}

PASSES: Tuple[str, ...] = (
    "mem2reg", "constfold", "instsimplify", "instcombine", "simplifycfg",
    "early-cse", "gvn", "licm", "dse", "reassociate",
    "align-from-assumptions", "adce", "dce", "codegen")

_REGISTRY_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("fuzz.stage.mutate_ms_per_mutant", "ms", "lower"),
    ("fuzz.stage.optimize_ms_per_mutant", "ms", "lower"),
    ("fuzz.stage.verify_ms_per_mutant", "ms", "lower"),
    ("fuzz.stage.other_share", "ratio", "lower"),
    ("mutate.valid_share", "ratio", "higher"),
    ("ir.functions_copied_per_mutant", "count", "lower"),
    ("fuzz.memo.optimize_hit_rate", "ratio", "higher"),
    ("fuzz.memo.verify_hit_rate", "ratio", "higher"),
    ("opt.incremental.skip_rate", "ratio", "higher"),
    ("opt.incremental.worklist_share", "ratio", "higher"),
    ("opt.incremental.tracking_lost_per_mutant", "count", "lower"),
    ("tv.checks_per_mutant", "count", "lower"),
    ("tv.plan_cache_hit_rate", "ratio", "higher"),
    ("tv.lanes_per_batch", "count", "higher"),
    ("tv.divergence_splits_per_batch", "count", "lower"),
    ("tv.scalar_fallbacks", "count", "lower"),
    ("tv.inconclusive_per_check", "count", "lower"),
    ("fuzz.corpus.admitted", "count", "higher"),
    ("fuzz.feedback.features_new", "count", "higher"),
    ("fuzz.wire.bytes_per_job", "B", "lower"),
    ("fuzz.wire.frames_per_job", "count", "lower"),
    ("fuzz.wire.blob_cache_hit_rate", "ratio", "higher"),
    ("fuzz.queue.claims_per_job", "count", "lower"),
    ("fuzz.queue.results_decoded_per_job", "count", "lower"),
    ("fuzz.queue.heartbeats", "count", "lower"),
)


def _per_layer_table() -> List[Tuple[str, str, str]]:
    table: List[Tuple[str, str, str]] = []
    for name in span_lib.SPAN_NAMES:
        table.append((f"{name}.calls", "count", "lower"))
        table.append((f"{name}.self_ms_per_mutant", "ms", "lower"))
    table.append(("fuzz.driver.run_one.ms_p50", "ms", "lower"))
    table.append(("fuzz.driver.run_one.ms_p99", "ms", "lower"))
    table.append(("fuzz.driver.run_one.wall_share", "ratio", "higher"))
    table.extend(_REGISTRY_LAYERS)
    table.extend((f"opt.pass.{name}.ms_per_mutant", "ms", "lower")
                 for name in PASSES)
    table.append(("fuzz.parallel.scaling_efficiency", "ratio", "higher"))
    table.extend((f"pycalls.{package}", "calls", "lower")
                 for package in PACKAGES + ("other",))
    table.append(("trace.overhead_share", "ratio", "lower"))
    table.append(("trace.accounted_share", "ratio", "higher"))
    return table


# Ratios with a wall-clock term: the only count-like metrics that do
# not repeat exactly.
TIMING_DERIVED = frozenset({
    "fuzz.stage.other_share", "fuzz.parallel.scaling_efficiency",
    "fuzz.driver.run_one.wall_share", "trace.overhead_share",
    "trace.accounted_share"})

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer_table())


def _package_of(filename: str) -> Optional[str]:
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return None
    package = filename[at + len(marker):].split(os.sep)[0]
    return package if package in PACKAGES else None


def calls_by_package(stats: dict) -> Dict[str, int]:
    """``cProfile`` call totals attributed by source path.

    A function defined under ``repro/<package>/`` counts for that
    package.  Built-ins and library code have no package of their own,
    so each of their calls is charged to the package that made it;
    what is left (library code calling library code, the profiler's
    own entry) is ``other``.
    """
    totals = dict.fromkeys(PACKAGES + ("other",), 0)
    for (filename, _line, _name), (_cc, calls, _tt, _ct, callers) \
            in stats.items():
        package = _package_of(filename)
        if package is not None or not callers:
            totals[package or "other"] += calls
            continue
        for (caller_file, _l, _n), caller_stats in callers.items():
            totals[_package_of(caller_file) or "other"] += caller_stats[0]
    return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def from_trace(recorded: Sequence[span_lib.Span], report, extra_registries,
               wall: float, jobs: int, workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (all but the cross-pass ones)."""
    from repro.obs import MetricsRegistry
    mutants = report.total_iterations
    registry = MetricsRegistry.merged([report.metrics, *extra_registries])
    count = registry.counter
    out: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}

    by_name = span_lib.totals(recorded)
    for name in span_lib.SPAN_NAMES:
        calls, own = by_name.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms_per_mutant"] = _ratio(own * 1e3, mutants)
    iterations = [span.duration * 1e3 for span in recorded
                  if span.name == "fuzz.driver.run_one"]
    out["fuzz.driver.run_one.ms_p50"] = span_lib.percentile(iterations, 0.5)
    out["fuzz.driver.run_one.ms_p99"] = span_lib.percentile(iterations, 0.99)
    # Inclusive: the share of the pass spent inside the loop body, the
    # rest being everything the campaign puts around it.
    out["fuzz.driver.run_one.wall_share"] = _ratio(sum(iterations) / 1e3,
                                                   wall)
    # The thread that ran the jobs holds the longest root span; its tree
    # must account for the pass's wall time or spans are being lost.
    roots = [span.duration for span in recorded if span.parent is None]
    out["trace.accounted_share"] = _ratio(max(roots, default=0.0), wall)

    timings = report.timings
    out["fuzz.stage.mutate_ms_per_mutant"] = _ratio(timings.mutate * 1e3,
                                                    mutants)
    out["fuzz.stage.optimize_ms_per_mutant"] = _ratio(timings.optimize * 1e3,
                                                      mutants)
    out["fuzz.stage.verify_ms_per_mutant"] = _ratio(timings.verify * 1e3,
                                                    mutants)
    out["fuzz.stage.other_share"] = 1.0 - _ratio(timings.total,
                                                 wall * workers)
    for name in PASSES:
        out[f"opt.pass.{name}.ms_per_mutant"] = _ratio(
            count(f"optimize.pass.{name}.seconds") * 1e3, mutants)

    out["mutate.valid_share"] = _ratio(count("mutants.valid"),
                                       count("mutants.created"))
    out["ir.functions_copied_per_mutant"] = _ratio(
        count("clone.functions_copied"), mutants)
    for cache in ("optimize", "verify"):
        hits = count(f"cache.{cache}.hit")
        out[f"fuzz.memo.{cache}_hit_rate"] = _ratio(
            hits, hits + count(f"cache.{cache}.miss"))
    skips = (count("opt.incremental.memo_skips")
             + count("opt.incremental.memo_crash_skips"))
    worklist = count("opt.incremental.worklist_runs")
    dispatches = skips + worklist + count("opt.incremental.full_runs")
    out["opt.incremental.skip_rate"] = _ratio(skips, dispatches)
    out["opt.incremental.worklist_share"] = _ratio(worklist, dispatches)
    out["opt.incremental.tracking_lost_per_mutant"] = _ratio(
        count("opt.incremental.tracking_lost"), mutants)

    checks = count("tv.checks")
    out["tv.checks_per_mutant"] = _ratio(checks, mutants)
    plan_hits = count("exec.plan_cache.hit")
    out["tv.plan_cache_hit_rate"] = _ratio(
        plan_hits, plan_hits + count("exec.plan_cache.miss"))
    batches = count("exec.batch.batches")
    out["tv.lanes_per_batch"] = _ratio(count("exec.batch.lanes"), batches)
    out["tv.divergence_splits_per_batch"] = _ratio(
        count("exec.batch.divergence_splits"), batches)
    out["tv.scalar_fallbacks"] = count("exec.batch.scalar_fallbacks")
    out["tv.inconclusive_per_check"] = _ratio(
        count("tv.inconclusive_inputs"), checks)

    out["fuzz.corpus.admitted"] = count("corpus.admitted")
    out["fuzz.feedback.features_new"] = count("feedback.features.new")
    out["fuzz.wire.bytes_per_job"] = _ratio(
        count("wire.bytes.sent") + count("wire.bytes.received"), jobs)
    out["fuzz.wire.frames_per_job"] = _ratio(
        count("wire.frames.sent") + count("wire.frames.received"), jobs)
    blob_hits = count("wire.blob_cache.hit")
    out["fuzz.wire.blob_cache_hit_rate"] = _ratio(
        blob_hits, blob_hits + count("wire.blob_cache.miss"))
    out["fuzz.queue.claims_per_job"] = _ratio(count("dist.lease.claims"),
                                              jobs)
    out["fuzz.queue.results_decoded_per_job"] = _ratio(
        sum(span.size for span in recorded
            if span.name == "fuzz.queue.collect_results"), jobs)
    out["fuzz.queue.heartbeats"] = count("dist.heartbeats")
    return out


def from_counts(count_pass: dict) -> Dict[str, float]:
    """``pycalls.<package>`` per mutant from one count pass."""
    mutants = count_pass["profiled_mutants"]
    return {f"pycalls.{package}": _ratio(calls, mutants)
            for package, calls in count_pass["pycalls"].items()}
