#!/usr/bin/env python3
"""Gate benchmark summaries against the committed baseline.

Reads the normalized ``BENCH_*.json`` summaries that the benchmark
modules write under ``benchmarks/out/`` and compares them against a
committed baseline.  Deterministic metrics must match the baseline
exactly; performance metrics may not regress by more than
``--tolerance`` (default 25%).

Two baseline modes exist, selected with ``--mode``: ``quick`` (the
``BENCH_QUICK=1`` smoke workload CI's bench-smoke job runs, gated by
``baseline.json``) and ``full`` (the unscaled suite the nightly-bench
workflow runs, gated by ``baseline_full.json``).

To refresh a baseline after an intentional workload change, run the
suite in the matching mode and then ``check_regression.py --mode <mode>
--update``: exact metrics are copied from the fresh summaries and every
performance floor is backed off by ``--backoff`` (default 20%) below
the measured value, so runner variance does not turn the gate into a
coin flip.  Review the diff before committing it.

Exit status: 0 when every gate passes, 1 on any regression, 2 when a
required summary file is missing or the baseline does not match the
gate list (a gate whose metric the baseline lacks, or a baseline metric
no gate reads).
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINES = {
    "quick": os.path.join(HERE, "baseline.json"),
    "full": os.path.join(HERE, "baseline_full.json"),
}
DEFAULT_OUT_DIR = os.path.join(HERE, "out")

# (baseline section, summary file, metric, kind)
# kind "exact": must equal the baseline value.
# kind "floor": must be >= baseline * (1 - tolerance).
GATES = [
    ("campaign", "BENCH_campaign.json", "iterations", "exact"),
    ("campaign", "BENCH_campaign.json", "parse_failures", "exact"),
    ("campaign", "BENCH_campaign.json", "quarantined", "exact"),
    ("campaign", "BENCH_campaign.json", "failed_shards", "exact"),
    ("campaign", "BENCH_campaign.json", "found_bugs", "floor"),
    ("campaign", "BENCH_campaign.json", "valid_mutant_rate", "floor"),
    ("campaign", "BENCH_campaign.json", "mutants_per_sec", "floor"),
    ("feedback", "BENCH_feedback.json", "trials", "exact"),
    ("feedback", "BENCH_feedback.json", "blind_found", "exact"),
    ("feedback", "BENCH_feedback.json", "guided_found", "exact"),
    ("feedback", "BENCH_feedback.json", "blind_iterations", "exact"),
    ("feedback", "BENCH_feedback.json", "guided_iterations", "exact"),
    # floor 2.0 - 25% = 1.5x: the E9 acceptance criterion.
    ("feedback", "BENCH_feedback.json", "speedup", "floor"),
    ("cow_memo", "BENCH_cow_memo.json", "findings", "exact"),
    ("cow_memo", "BENCH_cow_memo.json", "optimize_hit_rate", "floor"),
    ("cow_memo", "BENCH_cow_memo.json", "mutants_per_sec", "floor"),
    # E10 batched vs per-input tree-walking; it carries the gates of the
    # former E8 (compiled vs tree-walk) ablation, which timed the same
    # pair once the scalar closure compiler was gone.  Where both had a
    # gate (speedup, checks_per_sec) the baselines keep the stricter
    # value, so the quick speedup floor is 3.0 - 25% = 2.25x.
    ("batch_exec", "BENCH_batch_exec.json", "pairs", "exact"),
    ("batch_exec", "BENCH_batch_exec.json", "scalar_fallbacks", "exact"),
    ("batch_exec", "BENCH_batch_exec.json", "plan_fallbacks", "exact"),
    ("batch_exec", "BENCH_batch_exec.json", "speedup", "floor"),
    ("batch_exec", "BENCH_batch_exec.json", "plan_hit_rate", "floor"),
    ("batch_exec", "BENCH_batch_exec.json", "lanes_per_batch", "floor"),
    ("batch_exec", "BENCH_batch_exec.json", "checks_per_sec", "floor"),
    ("throughput", "BENCH_throughput.json", "files", "exact"),
    ("throughput", "BENCH_throughput.json", "invalid_files", "exact"),
    ("throughput", "BENCH_throughput.json", "not_verified_files", "exact"),
    ("throughput", "BENCH_throughput.json", "speedup_avg", "floor"),
    ("wire", "BENCH_wire.json", "modules", "exact"),
    ("wire", "BENCH_wire.json", "claims", "exact"),
    ("wire", "BENCH_wire.json", "jobs", "exact"),
    ("wire", "BENCH_wire.json", "result_mismatches", "exact"),
    ("wire", "BENCH_wire.json", "decode_hit_rate", "exact"),
    # floor 6.67 - 25% = 5.0x: the E12 codec acceptance criterion.
    ("wire", "BENCH_wire.json", "codec_speedup", "floor"),
    # floor 2.67 - 25% = 2.0x: the E12 dispatch acceptance criterion.
    ("wire", "BENCH_wire.json", "dispatch_speedup", "floor"),
    ("wire", "BENCH_wire.json", "socket_jobs_per_sec", "floor"),
]

# Top-level baseline keys that describe the file rather than pin a metric.
BASELINE_META = ("_note", "schema", "mode")

_NOTE = (
    "{mode}-mode reference for check_regression.py. Metrics gated 'exact' "
    "are deterministic for the seeded {mode} workload; metrics gated "
    "'floor' fail when they drop more than the tolerance (default 25%) "
    "below the value here. Floors are written by --update with a "
    "conservative back-off below the measured run to absorb CI-runner "
    "variance."
)


def load_summaries(out_dir):
    """Read every summary file the gates reference; None if one is
    missing (the caller reports and exits 2)."""
    summaries = {}
    for _, file_name, _, _ in GATES:
        if file_name in summaries:
            continue
        path = os.path.join(out_dir, file_name)
        if not os.path.exists(path):
            print(f"missing summary: {path}", file=sys.stderr)
            return None
        with open(path) as stream:
            summaries[file_name] = json.load(stream)
    return summaries


def mismatches(baseline):
    """``(missing, extra)``: ``section.metric`` keys a gate reads that the
    baseline does not pin, and keys the baseline pins that no gate reads."""
    gated = {f"{section}.{metric}" for section, _, metric, _ in GATES}
    pinned = set()
    for section, metrics in baseline.items():
        if section in BASELINE_META:
            continue
        if not isinstance(metrics, dict):
            pinned.add(section)
            continue
        pinned.update(f"{section}.{metric}" for metric in metrics)
    return sorted(gated - pinned), sorted(pinned - gated)


def check(baseline, summaries, tolerance):
    """Compare summaries against the baseline; returns failure list."""
    failures = []
    checked = 0
    for section, file_name, metric, kind in GATES:
        expected = baseline[section][metric]
        actual = summaries[file_name].get(metric)
        if actual is None:
            failures.append(f"{section}.{metric} missing from {file_name}")
            print(f"FAIL {section}.{metric}: missing from {file_name}")
            continue
        checked += 1
        if kind == "exact":
            ok = actual == expected
            detail = f"expected exactly {expected}, got {actual}"
        else:
            floor = expected * (1.0 - tolerance)
            ok = actual >= floor
            detail = (
                f"floor {floor:.4f} (baseline {expected} "
                f"- {tolerance:.0%}), got {actual}"
            )
        print(f"{'ok  ' if ok else 'FAIL'} {section}.{metric}: {detail}")
        if not ok:
            failures.append(f"{section}.{metric}: {detail}")
    return failures, checked


def rebuild(summaries, mode, backoff):
    """A fresh baseline document from the latest summaries: exact
    metrics copied, performance floors backed off conservatively."""
    baseline = {
        "_note": _NOTE.format(mode=mode),
        "schema": 1,
        "mode": mode,
    }
    missing = []
    for section, file_name, metric, kind in GATES:
        actual = summaries[file_name].get(metric)
        if actual is None:
            missing.append(f"{section}.{metric} missing from {file_name}")
            continue
        if kind == "floor":
            actual = round(actual * (1.0 - backoff), 4)
        baseline.setdefault(section, {})[metric] = actual
    return baseline, missing


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json summaries against baseline.json",
    )
    parser.add_argument(
        "--mode",
        choices=sorted(BASELINES),
        default="quick",
        help="workload the summaries came from: quick (BENCH_QUICK=1 "
        "smoke) or full (the nightly unscaled suite)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: per-mode committed baseline)",
    )
    parser.add_argument("--out-dir", default=DEFAULT_OUT_DIR)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional drop for 'floor' metrics (default 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the latest summaries instead "
        "of checking against it",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.20,
        help="fractional back-off applied to 'floor' metrics when "
        "rewriting the baseline with --update (default 0.20)",
    )
    args = parser.parse_args(argv)
    baseline_path = args.baseline or BASELINES[args.mode]

    if not args.update:
        with open(baseline_path) as stream:
            baseline = json.load(stream)
        missing, extra = mismatches(baseline)
        for key in missing:
            print(f"baseline lacks gated metric: {key}", file=sys.stderr)
        for key in extra:
            print(f"baseline pins ungated metric: {key}", file=sys.stderr)
        if missing or extra:
            print(
                f"{baseline_path} does not match the gate list",
                file=sys.stderr,
            )
            return 2

    summaries = load_summaries(args.out_dir)
    if summaries is None:
        return 2

    if args.update:
        baseline, missing = rebuild(summaries, args.mode, args.backoff)
        if missing:
            for entry in missing:
                print(f"cannot update: {entry}", file=sys.stderr)
            return 2
        with open(baseline_path, "w") as stream:
            json.dump(baseline, stream, indent=2)
            stream.write("\n")
        print(f"wrote {baseline_path} from {args.out_dir} summaries")
        return 0

    failures, checked = check(baseline, summaries, args.tolerance)
    if failures:
        print(
            f"\n{len(failures)} regression(s) out of {checked} gates",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {checked} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
