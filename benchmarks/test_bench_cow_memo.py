"""E7 — CoW cloning + fingerprint memoization (paper §III-B).

Real fuzzing corpora are modules where only a couple of functions are
viable mutation targets while the rest ride along.  The driver shares
those functions copy-on-write and replays their cached optimize results
(and repeated verify verdicts), so per-iteration work shrinks to the
functions the mutant round actually touched.  Memoization is always on:
this bench records the memoized driver's throughput, its cache hit
rates and its findings (pinned exactly by the baseline).  The deep-clone
leg and its speed-up ratio went with the switch that turned the memos
off; the tests compare the driver against a deep-clone reference loop
instead (``tests/helpers.py``).
"""

import time

from repro.fuzz import FuzzConfig, FuzzDriver
from repro.ir import parse_module
from repro.mutate import MutatorConfig
from repro.tv import RefinementConfig

from bench_utils import scaled, write_json, write_report

# Cold functions: unsupported by TV (i128 parameters, so preprocessing
# drops them from targeting) but perfectly optimizable, which is what
# makes them pure cache hits for the memoized driver.
COLD_FUNCTIONS = 10
COLD_BODY_ADDS = 12


def _workload() -> str:
    lines = []
    for index in range(COLD_FUNCTIONS):
        lines.append(f"define i128 @cold{index}(i128 %x) {{")
        prev = "%x"
        for step in range(COLD_BODY_ADDS):
            lines.append(f"  %v{step} = add i128 {prev}, {index * 31 + step + 1}")
            prev = f"%v{step}"
        lines += [f"  ret i128 {prev}", "}", ""]
    lines += [
        "define i32 @clamp(i32 %x, i32 %y) {",
        "  %c = icmp ult i32 %x, 100",
        "  %r = select i1 %c, i32 %x, i32 100",
        "  %s = add i32 %r, %y",
        "  ret i32 %s",
        "}",
        "",
        "define i32 @shifty(i32 %x, i32 %y) {",
        "  %s = shl i32 %x, 3",
        "  %t = lshr i32 %s, 3",
        "  %u = xor i32 %t, %y",
        "  ret i32 %u",
        "}",
    ]
    return "\n".join(lines)


SEED_TEXT = _workload()
MUTANTS = scaled(240, 80)
ROUNDS = 4
BATCH = MUTANTS // ROUNDS


def _driver() -> FuzzDriver:
    config = FuzzConfig(
        mutator=MutatorConfig(max_mutations=2),
        tv=RefinementConfig(max_inputs=12),
        enabled_bugs=("53252",),
    )
    return FuzzDriver(parse_module(SEED_TEXT), config, file_name="bench.ll")


def _finding_keys(findings) -> list:
    return [(f.seed, f.kind, f.function, tuple(f.bug_ids)) for f in findings]


def test_bench_cow_memo_ablation(benchmark):
    best = float("inf")
    findings = []
    driver = _driver()

    def measure():
        # Keep the best round, so a transient load spike cannot skew
        # the number.  The caches warm across rounds, exactly as they
        # would across a long campaign.
        nonlocal best
        for round_index in range(ROUNDS):
            begin = time.perf_counter()
            for offset in range(BATCH):
                found = driver.run_one(round_index * BATCH + offset)
                findings.extend(_finding_keys(found))
            best = min(best, time.perf_counter() - begin)

    benchmark.pedantic(measure, rounds=1, iterations=1)

    metrics = driver.metrics

    def hit_rate(cache: str) -> float:
        hits = metrics.counter(f"cache.{cache}.hit")
        total = hits + metrics.counter(f"cache.{cache}.miss")
        return hits / total if total else 0.0

    payload = {
        "bench": "cow_memo",
        "schema": 2,
        "mutants_per_round": BATCH,
        "memo_best_round": round(best, 6),
        "mutants_per_sec": round(BATCH / best, 3),
        "optimize_hit_rate": round(hit_rate("optimize"), 6),
        "verify_hit_rate": round(hit_rate("verify"), 6),
        "findings": len(findings),
    }
    write_json("BENCH_cow_memo.json", payload)
    report = (
        f"memoized driver:   {best:.3f}s per best {BATCH}-mutant round\n"
        f"optimize hit rate: {payload['optimize_hit_rate']:.0%}\n"
        f"verify hit rate:   {payload['verify_hit_rate']:.0%}\n"
        f"findings:          {payload['findings']}\n"
    )
    write_report("cow_memo_ablation.txt", report)
    print("\n" + report)

    # The cold functions must actually be served from cache.
    assert payload["optimize_hit_rate"] > 0.5


def test_bench_cow_memo_clone_volume(benchmark):
    """CoW and the optimize memo copy fewer functions per mutant than
    the module defines: at most half what a deep-clone loop copies,
    which is every definition twice (once to mutate, once to optimize)."""

    def run():
        driver = _driver()
        iterations = 20
        for seed in range(iterations):
            driver.run_one(seed)
        copied = driver.metrics.counter("clone.functions_copied")
        definitions = len(driver.module.definitions())
        assert copied < definitions * iterations
        return copied, definitions

    benchmark.pedantic(run, rounds=1, iterations=1)
