"""Parallel campaign scaling — sequential vs. N-worker throughput.

Runs the same campaign (fixed corpus, fixed seeds) with increasing
worker counts through :class:`repro.fuzz.CampaignExecutor` and records
wall-clock, mutants/second, and speedup over the sequential run into
``benchmarks/out/parallel_scaling.txt``.  Also asserts the engine's core
contract: every worker count rediscovers the same bugs with the same
first-discovery attributions.

On a one-CPU machine the workers only take turns, so the sweep would
record scheduling noise as "scaling": the bench skips there and leaves
the committed report alone.
"""

import os
import time

import pytest

from repro.fuzz import CampaignConfig, run_campaign

from bench_utils import write_report

CORPUS_SIZE = 16
MUTANTS_PER_FILE = 30
WORKER_COUNTS = (1, 2, 4)


def _campaign_config(workers):
    return CampaignConfig(
        corpus_size=CORPUS_SIZE,
        mutants_per_file=MUTANTS_PER_FILE,
        max_inputs=10,
        workers=workers,
    )


def _attribution_key(report):
    return {
        bug_id: (outcome.found, outcome.first_file, outcome.first_seed)
        for bug_id, outcome in report.outcomes.items()
    }


def test_bench_parallel_scaling(benchmark):
    if os.cpu_count() == 1:
        reason = ("parallel scaling needs more than one CPU: on "
                  "os.cpu_count() == 1 the speedup column is noise")
        print(f"\nSKIPPED: {reason}")
        pytest.skip(reason)
    holder = {}

    def sweep():
        rows = []
        for workers in WORKER_COUNTS:
            started = time.perf_counter()
            report = run_campaign(_campaign_config(workers))
            elapsed = time.perf_counter() - started
            rows.append((workers, elapsed, report))
        holder["rows"] = rows
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = holder["rows"]

    base_elapsed = rows[0][1]
    header = (
        f"{'workers':>7} {'elapsed_s':>10} {'mutants/s':>10} "
        f"{'speedup':>8} {'bugs':>5} {'failed':>7} {'skipped':>8}"
    )
    lines = [
        "parallel campaign scaling "
        f"(corpus={CORPUS_SIZE}, mutants/file={MUTANTS_PER_FILE}, "
        f"pipelines=3, cpus={os.cpu_count()})",
        header, "-" * len(header),
    ]
    for workers, elapsed, report in rows:
        lines.append(
            f"{workers:>7} {elapsed:>10.2f} {report.throughput:>10.0f} "
            f"{base_elapsed / elapsed:>8.2f} "
            f"{len(report.found_bugs()):>5} "
            f"{len(report.failed_shards):>7} {report.skipped_jobs:>8}"
        )
    text = "\n".join(lines) + "\n"
    write_report("parallel_scaling.txt", text)
    print("\n" + text)

    # The engine's contract: sharding never changes what is found.
    base_key = _attribution_key(rows[0][2])
    for workers, _, report in rows[1:]:
        assert _attribution_key(report) == base_key, (
            f"workers={workers} diverged from the sequential report"
        )
    base = rows[0][2]
    assert all(r.total_iterations == base.total_iterations for _, _, r in rows)
    assert not base.failed_shards
    assert base.total_iterations > 0
