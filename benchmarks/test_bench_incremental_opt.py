"""E11 — ablation of incremental re-optimization (worklist + pass memos).

The incremental optimizer (``repro.opt.incremental``) shrinks the
optimize stage three ways: per-(fingerprint, pass) skip memos replay
no-change outcomes for repeated shapes, worklist-driven scan passes
revisit only the mutation's dirty blocks, and refingerprint budgeting
caps whole-function re-hashes for fresh mutants.  The ablation
(``--no-incremental-opt`` / ``FuzzConfig(incremental=False)``) runs every
pass over every function from a whole-function worklist.  (How a scan
pass reaches its fixpoint — first sweep over its worklist, later sweeps
over what the rewrites affected — is the same in both legs; the
ablation switches off only what is seeded from the mutation.)

The workload is shaped like real fuzzing corpora after a few rounds of
growth: one function with many *dataflow-local* blocks (each block
computes from the arguments, not from a long cross-block chain), so a
mutation dirties one block and the worklist passes skip the other ~39.
Long dependency chains would make every mutation's dirty closure cover
the whole function and hide the effect being measured.

Both modes must produce byte-identical findings and deterministic
metrics — incremental mode is a pure performance layer.  The comparison
gates ``stage.optimize.seconds`` rather than wall clock: the two drivers
share the process-wide TV plan cache, so whichever runs first warms
verification for the other and wall-clock ratios under-report the
optimize-stage win.
"""

import time

from repro.fuzz import FuzzConfig, FuzzDriver
from repro.ir import parse_module, print_module
from repro.mutate import MutatorConfig
from repro.opt import OptContext, PassManager
from repro.tv import RefinementConfig

from bench_utils import scaled, write_json, write_report

PIPELINE = "constfold,instsimplify,instcombine,dce"

# Bugs hosted in the peephole passes this pipeline runs; mutants reach
# them through shift-constant and bitwidth (trunc/zext/mul) mutations.
BUGS = ("53252", "50693", "59836", "56945", "56968", "56981")

BLOCKS = 40
INSTS_PER_BLOCK = 6
OPS = ("add", "sub", "xor", "and", "or", "mul")


def _workload() -> str:
    lines = ["define i32 @work(i32 %x, i32 %y) {", "entry:", "  br label %b0"]
    for b in range(BLOCKS):
        lines.append(f"b{b}:")
        prev = "%x" if b % 2 == 0 else "%y"
        for i in range(INSTS_PER_BLOCK):
            op = OPS[(b + i) % len(OPS)]
            constant = 2 * (b * INSTS_PER_BLOCK + i) + 3
            lines.append(f"  %v{b}_{i} = {op} i32 {prev}, {constant}")
            prev = f"%v{b}_{i}"
        lines.append(f"  %c{b} = icmp slt i32 {prev}, {1000 + b}")
        nxt = f"b{b + 1}" if b + 1 < BLOCKS else "out"
        lines.append(f"  br i1 %c{b}, label %{nxt}, label %out")
    lines += ["out:", "  ret i32 %x", "}"]
    return "\n".join(lines)


def _preoptimized() -> str:
    # Run the seed to a fixpoint first so the baseline optimize pass over
    # the *unmutated* shape finds nothing to do — that is the state a
    # long-running campaign settles into, and it lets the pass memos
    # prove the seed's passes up front.
    module = parse_module(_workload())
    for _ in range(10):
        if not PassManager([PIPELINE], OptContext(())).run(module):
            break
    return print_module(module)


SEED_TEXT = _preoptimized()
MUTANTS = scaled(240, 80)
ROUNDS = 4
BATCH = MUTANTS // ROUNDS


def _driver(incremental: bool) -> FuzzDriver:
    config = FuzzConfig(
        pipeline=PIPELINE,
        enabled_bugs=BUGS,
        mutator=MutatorConfig(max_mutations=2),
        tv=RefinementConfig(max_inputs=8),
        incremental=incremental,
    )
    return FuzzDriver(parse_module(SEED_TEXT), config, file_name="bench.ll")


def _finding_keys(findings) -> list:
    return [(f.seed, f.kind, f.function, tuple(f.bug_ids)) for f in findings]


def test_bench_incremental_opt_ablation(benchmark):
    opt_seconds = {"incremental": float("inf"), "full": float("inf")}
    wall = {"incremental": float("inf"), "full": float("inf")}
    findings = {"incremental": [], "full": []}
    drivers = {"incremental": _driver(True), "full": _driver(False)}

    def measure_both():
        # Interleave the two modes round-robin and keep each mode's best
        # round, so a transient load spike cannot skew the comparison.
        # The gated metric is each round's *optimize-stage* seconds delta.
        for round_index in range(ROUNDS):
            for mode, driver in drivers.items():
                before = driver.metrics.counter("stage.optimize.seconds")
                begin = time.perf_counter()
                for offset in range(BATCH):
                    found = driver.run_one(round_index * BATCH + offset)
                    findings[mode].extend(_finding_keys(found))
                wall[mode] = min(wall[mode], time.perf_counter() - begin)
                after = driver.metrics.counter("stage.optimize.seconds")
                opt_seconds[mode] = min(opt_seconds[mode], after - before)

    benchmark.pedantic(measure_both, rounds=1, iterations=1)

    # Findings invariance is the whole contract: same seeds, same bugs,
    # same deterministic counters — incremental mode only changes speed.
    assert findings["incremental"] == findings["full"]
    inc_metrics = drivers["incremental"].metrics
    full_metrics = drivers["full"].metrics
    assert inc_metrics.deterministic() == full_metrics.deterministic()

    speedup = opt_seconds["full"] / opt_seconds["incremental"]
    skips = inc_metrics.counter("opt.incremental.memo_skips") + inc_metrics.counter(
        "opt.incremental.memo_crash_skips"
    )
    worklist_runs = inc_metrics.counter("opt.incremental.worklist_runs")
    full_runs = inc_metrics.counter("opt.incremental.full_runs")
    dispatches = skips + worklist_runs + full_runs
    skip_rate = skips / dispatches if dispatches else 0.0

    payload = {
        "bench": "incremental_opt",
        "schema": 1,
        "mutants_per_round": BATCH,
        "incremental_opt_best_round": round(opt_seconds["incremental"], 6),
        "full_opt_best_round": round(opt_seconds["full"], 6),
        # Mutants per second of optimize stage, each leg's best round:
        # the absolute numbers behind the ratio, gated on their own.
        "incremental_opt_rate": round(BATCH / opt_seconds["incremental"], 3),
        "full_opt_rate": round(BATCH / opt_seconds["full"], 3),
        "optimize_speedup": round(speedup, 4),
        "mutants_per_sec": round(BATCH / wall["incremental"], 3),
        "skip_rate": round(skip_rate, 6),
        "worklist_runs": int(worklist_runs),
        "findings": len(findings["incremental"]),
    }
    write_json("BENCH_incremental_opt.json", payload)
    report = (
        f"incremental optimize stage: {opt_seconds['incremental']:.3f}s per "
        f"best {BATCH}-mutant round\n"
        f"full optimize stage:        {opt_seconds['full']:.3f}s per best "
        f"{BATCH}-mutant round\n"
        f"optimize-stage speedup:     {speedup:.2f}x\n"
        f"pass-skip rate:             {skip_rate:.0%}\n"
        f"worklist runs:              {int(worklist_runs)}\n"
        f"findings (equal in both modes): {payload['findings']}\n"
    )
    write_report("incremental_opt_ablation.txt", report)
    print("\n" + report)

    # Acceptance floor: mutation-seeded worklists and skip memos must
    # still buy a clear margin over whole-function runs, and the worklist
    # machinery must actually have engaged (not just the skip memos).
    # The floor was 2.0 while a whole-function run re-swept all 40 blocks
    # to confirm its fixpoint; now its later sweeps visit only what its
    # rewrites affected, that leg is ~38 % faster, and ten recorded runs
    # per mode read 1.52-1.89 (quick, median 1.67) and 1.09-1.60 (full,
    # median 1.52; the two runs under 1.46 caught a machine slowdown in
    # one leg only).  See the comment above the gate in
    # check_regression.py for the runs.
    assert speedup >= 1.25
    assert worklist_runs > 0


def test_bench_incremental_opt_off_leaves_no_trace():
    """The ablation driver must not touch any incremental counters."""
    driver = _driver(False)
    for seed in range(10):
        driver.run_one(seed)
    assert driver.metrics.counters_with_prefix("opt.incremental.") == {}
