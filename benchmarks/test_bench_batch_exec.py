"""E10 — ablation of batched execution plans (paper §III-B, ROADMAP 3).

The verify stage dominates the integrated loop (see overheads.txt).
Tree-walking it pays per-instruction dispatch on every run of every
enumerated input: ``max_inputs`` walks per side per check.  Batched
execution lowers each function once into struct-of-arrays steps, cached
on its execution plan so every input, path and mutant that re-executes
the function shares one compilation, and drives the whole pending input
set down each step as a vector of lanes — one tight loop per
instruction instead of one interpreter walk per input — regrouping lanes
at divergent branches and masking out lanes that trap.

The ablation (``--no-batched-exec`` / ``RefinementConfig(batched=
False)``) tree-walks each input on the reference interpreter instead.
Verdicts must be identical — batching is a pure performance layer over
the same semantics — and the batched mode must clear a 2x speedup floor
on this verification workload.
"""

import time

from repro.fuzz import FuzzConfig, FuzzDriver, corpus_modules
from repro.ir import parse_module
from repro.mutate import MutatorConfig
from repro.opt import OptContext, PassManager
from repro.tv import RefinementConfig, TVCaches, check_refinement

from bench_utils import scaled, write_json, write_report

# The verification workload is cheap enough (~1s) to run unscaled in
# quick mode; a smaller corpus slice would be dominated by per-check
# setup instead of interpretation, understating the speedup.
CORPUS_FILES = 10
MAX_INPUTS = 24
ROUNDS = 4


def _pairs():
    """(src module, optimized module, function name) verification jobs."""
    jobs = []
    for _, module in corpus_modules(CORPUS_FILES, seed=13):
        optimized = module.clone()
        PassManager(["O2"], OptContext(("53252",))).run(optimized)
        for function in module.definitions():
            if optimized.get_function(function.name) is None:
                continue
            jobs.append((module, optimized, function.name))
    return jobs


def test_bench_batch_exec_ablation(benchmark):
    jobs = _pairs()
    assert jobs
    # Both modes share one set of caches, as one driver's checks do.
    caches = TVCaches()
    results = {"batched": float("inf"), "scalar": float("inf")}
    verdicts = {}

    def verify_all(batched):
        config = RefinementConfig(max_inputs=MAX_INPUTS, batched=batched)
        observed = []
        for src_module, tgt_module, name in jobs:
            result = check_refinement(
                src_module.get_function(name),
                tgt_module.get_function(name),
                src_module,
                tgt_module,
                config,
                caches=caches,
            )
            observed.append(
                (
                    name,
                    result.verdict.value,
                    result.inputs_checked,
                    result.inconclusive_inputs,
                    str(result.counterexample),
                )
            )
        return observed

    def measure_both():
        # Interleave the two modes round-robin and keep each mode's
        # best round, so a transient load spike cannot skew the
        # comparison.  The plan cache warms on the first round, exactly
        # as it would across a long campaign.
        for _ in range(ROUNDS):
            for mode, batched in (("batched", True), ("scalar", False)):
                begin = time.perf_counter()
                verdicts[mode] = verify_all(batched)
                results[mode] = min(results[mode], time.perf_counter() - begin)

    benchmark.pedantic(measure_both, rounds=1, iterations=1)

    # Verdict invariance is the whole contract: identical verdicts,
    # input counts, inconclusive counts, and counterexamples.
    assert verdicts["batched"] == verdicts["scalar"]

    batches, lanes, splits, fallbacks = caches.stats.stats()[:4]
    lanes_per_batch = lanes / batches if batches else 0.0
    hits, misses, plan_fallbacks = caches.plans.stats()
    lookups = hits + misses
    plan_hit_rate = hits / lookups if lookups else 0.0
    speedup = results["scalar"] / results["batched"]
    unsound = sum(
        1 for _, verdict, _, _, _ in verdicts["batched"]
        if verdict == "unsound"
    )

    payload = {
        "bench": "batch_exec",
        "schema": 1,
        "pairs": len(jobs),
        "max_inputs": MAX_INPUTS,
        "batched_best_round": round(results["batched"], 6),
        "scalar_best_round": round(results["scalar"], 6),
        "speedup": round(speedup, 4),
        "checks_per_sec": round(len(jobs) / results["batched"], 3),
        "lanes_per_batch": round(lanes_per_batch, 3),
        "divergence_splits": splits,
        "scalar_fallbacks": fallbacks,
        "plan_hit_rate": round(plan_hit_rate, 6),
        "plan_fallbacks": plan_fallbacks,
        "unsound_pairs": unsound,
    }
    write_json("BENCH_batch_exec.json", payload)
    report = (
        f"batched exec:    {results['batched']:.3f}s per best "
        f"{len(jobs)}-pair round\n"
        f"tree-walking:    {results['scalar']:.3f}s per best "
        f"{len(jobs)}-pair round\n"
        f"speedup:         {speedup:.2f}x\n"
        f"lanes per batch: {lanes_per_batch:.1f} "
        f"({splits} divergence splits, {fallbacks} fallbacks)\n"
        f"plan hit rate:   {plan_hit_rate:.0%} "
        f"({plan_fallbacks} fallbacks)\n"
        f"verdicts (equal in both modes): {len(jobs)} pairs, "
        f"{unsound} unsound\n"
    )
    write_report("batch_exec_ablation.txt", report)
    print("\n" + report)

    # Acceptance floor: batched execution must beat per-input
    # tree-walking by at least 2x on this verification workload.
    assert speedup >= 2.0
    # After the warm-up round most plan lookups must be cache hits.
    assert plan_hit_rate > 0.5
    assert plan_fallbacks == 0
    # The whole corpus must actually take the batched path.
    assert fallbacks == 0
    assert lanes_per_batch > 1.0


def test_bench_batch_exec_driver_parity(benchmark):
    """Driver-level invariance: same findings, same deterministic
    metrics, with the batched mode's lane counters visibly live and its
    plan cache visibly hot."""
    seed_text = "\n".join(
        [
            "define i32 @clamp(i32 %x, i32 %y) {",
            "  %c = icmp ult i32 %x, 100",
            "  %r = select i1 %c, i32 %x, i32 100",
            "  %s = add i32 %r, %y",
            "  ret i32 %s",
            "}",
            "",
            "define i32 @shifty(i32 %x) {",
            "  %s = shl i32 %x, 3",
            "  %t = lshr i32 %s, 3",
            "  ret i32 %t",
            "}",
        ]
    )
    mutants = scaled(120, 40)

    def driver_for(batched):
        config = FuzzConfig(
            mutator=MutatorConfig(max_mutations=2),
            tv=RefinementConfig(max_inputs=12, batched=batched),
            enabled_bugs=("53252",),
        )
        return FuzzDriver(parse_module(seed_text), config, file_name="bench.ll")

    def run_both():
        batched_driver = driver_for(True)
        scalar_driver = driver_for(False)
        batched_report = batched_driver.run(iterations=mutants)
        scalar_report = scalar_driver.run(iterations=mutants)

        def keys(report):
            return [
                (f.seed, f.kind, f.function, tuple(f.bug_ids))
                for f in report.findings
            ]

        assert keys(batched_report) == keys(scalar_report)
        assert (
            batched_driver.metrics.deterministic()
            == scalar_driver.metrics.deterministic()
        )
        lanes = batched_driver.metrics.counter("exec.batch.lanes")
        batches = batched_driver.metrics.counter("exec.batch.batches")
        assert batches > 0 and lanes >= batches
        assert scalar_driver.metrics.counter("exec.batch.batches") == 0
        # Repeated functions are served from the plan cache.
        assert batched_driver.metrics.counter("exec.plan_cache.hit") > 0
        return lanes, batches

    benchmark.pedantic(run_both, rounds=1, iterations=1)
