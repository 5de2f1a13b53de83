#!/usr/bin/env python3
"""The performance ledger: one command, every metric, and the output check.

Two front doors over the same passes (see ``workloads.py``):

``run.py [--seed N] [--workload NAME] [--reps R] [--out FILE]``
    The full ledger.  ``R`` timed passes per workload, interleaved
    round-robin so machine drift hits every workload alike, then one
    traced and one count pass each; prints every metric by name with
    its unit, checks the outputs, writes the result file ``compare.py``
    reads.  ``--selfcheck`` instead proves the exact metrics repeat.

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload for the driver behind ``BENCHMARK.json``:
    timed passes are made until their walls add up to ``--seconds``;
    the last line of output is one JSON object with the end-to-end
    (``--trace 0``, the best pass of the run for each timing metric) or
    per-layer (``--trace 1``) metrics.

Every pass is a fresh ``python run.py --pass MODE ...`` subprocess with
the hash seed and the address space fixed, so set-up time is sampled
once per pass and call counts repeat exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

import layers
import workloads as workload_lib
from workloads import LEDGER_DIR

REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

WORKLOADS = {w.name: w for w in workload_lib.WORKLOADS}
E1, J2 = "campaign_e1", "campaign_e1_j2"
# The workloads whose every count repeats exactly: one process, one
# thread.  The pool and the broker threads make the other two depend on
# scheduling.
EXACT_WORKLOADS = ("campaign_e1", "verify_wide", "optimize_blocks")
# A driver run makes timed passes until their walls add up to
# ``--seconds``, within these limits.
MIN_PASSES, MAX_PASSES = 2, 16
PASS_TIMEOUT = 170.0
# Set-up takes ~0.15 s, so a run samples it this many more times (in
# passes that stop once set up) than it can afford timed passes.
SETUP_SAMPLES = 8
DEFAULT_REPS = 5


class PassFailed(RuntimeError):
    pass


def _fix_address_space() -> None:
    """In the child, before exec: turn address randomization off.

    Sets of IR objects iterate in address order, so with randomized
    addresses two passes differ by a call or two in a few million, and
    now and then by a few hundred.  Where the kernel refuses (a seccomp
    filter), the pass runs randomized and the counts are that inexact.
    """
    ADDR_NO_RANDOMIZE = 0x0040000
    try:
        ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def spawn_pass(name: str, seed: int, mode: str) -> dict:
    """Run one pass in a fresh interpreter and return what it measured."""
    command = [sys.executable, os.path.abspath(__file__), "--pass", mode,
               "--workload", name, "--seed", str(seed), "--spawned-at",
               # fixed width: the argument's length must not move the heap
               format(time.clock_gettime(time.CLOCK_MONOTONIC), ".9f")]
    # Compiled modules are cached like on a user's machine, but under the
    # ledger's own scratch directory, not beside the sources; the first
    # pass in a checkout pays for compiling, the medians do not.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(workload_lib.WORK_ROOT,
                                                "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT, check=False,
                          preexec_fn=_fix_address_space)
    if done.returncode != 0:
        raise PassFailed(f"{mode} pass of {name} exited "
                         f"{done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: Sequence[float], better: str) -> dict:
    """Median with quartiles, best value and the sample count beside it."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    best = max(values) if better == "higher" else min(values)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "best": best, "n": len(values), "raw": list(values)}


def end_to_end(timed: Sequence[dict], count: dict,
               setups: Sequence[dict]) -> Dict[str, dict]:
    """The end-to-end metrics of one workload from its passes."""
    samples = {
        "setup_s": [p["setup_s"] for p in list(timed) + list(setups)],
        "mutants_per_sec": [p["mutants"] / p["wall_s"] for p in timed],
        "jobs_per_sec": [p["jobs"] / p["wall_s"] for p in timed],
        "cpu_ms_per_mutant": [p["cpu_s"] * 1e3 / p["mutants"]
                              for p in timed],
        "pycalls_per_mutant": [sum(count["pycalls"].values())
                               / count["profiled_mutants"]],
        "peak_rss_mb": [p["peak_rss_mb"] for p in timed],
    }
    return {name: dict(summarize(samples[name], better), unit=unit)
            for name, (unit, better, _bound) in layers.END_TO_END.items()}


def absolute(passes: Sequence[dict]) -> Dict[str, dict]:
    """The three metrics judged on absolute bounds (they may be 0)."""
    attempted = sum(p["jobs"] for p in passes)
    values = {
        "bugs_found": min(p["bugs_found"] for p in passes),
        "failed_share": sum(p["failed"] for p in passes) / attempted,
        "false_alarms": sum(p["false_alarms"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in layers.ABSOLUTE.items()}


def per_layer(timed: Sequence[dict], traced: dict, count: dict,
              e1_timed: Sequence[dict] = ()) -> Dict[str, float]:
    """Every per-layer metric of one workload."""
    out = dict(traced["layers"])
    out.update(layers.from_counts(count))
    untraced = statistics.median(p["wall_s"] for p in timed)
    out["trace.overhead_share"] = traced["wall_s"] / untraced - 1.0
    if e1_timed:
        rate = statistics.median(p["mutants"] / p["wall_s"] for p in timed)
        base = statistics.median(p["mutants"] / p["wall_s"]
                                 for p in e1_timed)
        out["fuzz.parallel.scaling_efficiency"] = rate / (2.0 * base)
    return out


def load_expected() -> dict:
    with open(os.path.join(LEDGER_DIR, "expected.json"),
              encoding="utf-8") as stream:
        return json.load(stream)


def output_problems(name: str, seed: int, passes: Sequence[dict],
                    e1_passes: Sequence[dict] = ()) -> List[str]:
    """Everything wrong with the outputs of one workload's passes."""
    problems = []
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"{name}: findings digest differs between passes: "
                        f"{digests}")
    false_alarms = sum(p["false_alarms"] for p in passes)
    if false_alarms:
        kind = ("findings with no bug armed" if not WORKLOADS[name].armed
                else "unattributed findings")
        problems.append(f"{name}: {false_alarms} {kind}")
    failed = sum(p["failed"] for p in passes)
    if failed:
        problems.append(f"{name}: {failed} jobs failed, were quarantined, "
                        "skipped or did not parse")
    expected = load_expected()
    if seed == expected["seed"] and digests != [expected["digests"][name]]:
        problems.append(f"{name}: digest {digests} is not the expected "
                        f"{expected['digests'][name]}")
    if e1_passes and digests != sorted({p["digest"] for p in e1_passes}):
        problems.append(f"{name}: digest differs from {E1}'s")
    return problems


# -- the driver's front door -------------------------------------------------


def driver_run(name: str, seed: int, seconds: float, trace: bool) -> int:
    if name == J2 and (os.cpu_count() or 1) < 2:
        print(f"warning: {name} on one CPU measures the pool's overhead, "
              "not its scaling", file=sys.stderr)
    e1_timed: List[dict] = []
    if trace:
        timed = [spawn_pass(name, seed, "timed")]
        if name == J2:
            e1_timed = [spawn_pass(E1, seed, "timed")]
        traced = spawn_pass(name, seed, "traced")
        count = spawn_pass(name, seed, "count")
        passes = timed + [traced, count]
        values = per_layer(timed, traced, count, e1_timed)
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit, _better in layers.PER_LAYER}
    else:
        timed = []
        while len(timed) < MIN_PASSES or (
                sum(p["wall_s"] for p in timed) < seconds
                and len(timed) < MAX_PASSES):
            timed.append(spawn_pass(name, seed, "timed"))
        setups = [spawn_pass(name, seed, "setup")
                  for _ in range(SETUP_SAMPLES)]
        count = spawn_pass(name, seed, "count")
        passes = timed + [count]
        summary = end_to_end(timed, count, setups)
        print(json.dumps({"passes": {m: s["raw"]
                                     for m, s in summary.items()}}))
        metrics = {metric: {"value": s["best"], "unit": s["unit"]}
                   for metric, s in summary.items()}
    problems = output_problems(name, seed, passes, e1_timed)
    for problem in problems:
        print("output check failed:", problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["jobs"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 1 if problems else 0


# -- the full ledger ---------------------------------------------------------


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_workload(name: str, result: dict) -> None:
    print(f"\n== {name}: {WORKLOADS[name].why}")
    print(f"   findings digest {result['digest']}")
    print(f"   {'end-to-end metric':<28}{'median':>12} {'unit':<6}"
          f"{'q1':>12}{'q3':>12}{'best':>12}  n")
    for metric, s in result["end_to_end"].items():
        print(f"   {metric:<28}{_format(s['value']):>12} {s['unit']:<6}"
              f"{_format(s['q1']):>12}{_format(s['q3']):>12}"
              f"{_format(s['best']):>12}  {s['n']}")
    for metric, s in result["absolute"].items():
        print(f"   {metric:<28}{_format(s['value']):>12} {s['unit']:<6}")
    own = sum(value for metric, value in result["per_layer"].items()
              if metric.endswith(".self_ms_per_mutant"))
    print(f"   span self times sum to {_format(own)} ms/mutant over all "
          f"threads; the traced pass took "
          f"{_format(result['traced_wall_ms_per_mutant'])} ms/mutant of wall")
    print(f"   {'per-layer metric':<46}{'value':>12} unit")
    for metric, unit, _better in layers.PER_LAYER:
        print(f"   {metric:<46}"
              f"{_format(result['per_layer'][metric]):>12} {unit}")


def ledger_run(names: Sequence[str], seed: int, reps: int,
               out: Optional[str]) -> int:
    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()[0]
    if load_before > nproc:
        print(f"warning: 1-min load average {load_before:.2f} exceeds "
              f"nproc={nproc}; timings will be noisy", file=sys.stderr)
    if J2 in names and nproc < 2:
        print(f"skipping {J2}: needs 2 CPUs, this machine has {nproc}")
        names = [n for n in names if n != J2]
    started = time.time()
    timed: Dict[str, List[dict]] = {name: [] for name in names}
    setups: Dict[str, List[dict]] = {name: [] for name in names}
    for _rep in range(reps):
        for name in names:
            timed[name].append(spawn_pass(name, seed, "timed"))
            setups[name].append(spawn_pass(name, seed, "setup"))
    results: Dict[str, dict] = {}
    problems: List[str] = []
    for name in names:
        traced = spawn_pass(name, seed, "traced")
        count = spawn_pass(name, seed, "count")
        passes = timed[name] + [traced, count]
        e1_timed = timed.get(E1, []) if name == J2 else []
        results[name] = {
            "digest": passes[0]["digest"],
            "end_to_end": end_to_end(timed[name], count, setups[name]),
            "absolute": absolute(passes),
            "per_layer": per_layer(timed[name], traced, count, e1_timed),
            "traced_wall_ms_per_mutant":
                traced["wall_s"] * 1e3 / traced["mutants"],
        }
        problems += output_problems(name, seed, passes, e1_timed)
        print_workload(name, results[name])
    record = {
        "nproc": nproc, "python": platform.python_version(),
        "commit": _git_commit(), "seed": seed, "reps": reps,
        "load_before": load_before, "load_after": os.getloadavg()[0],
        "elapsed_s": time.time() - started,
        "workloads": results, "problems": problems,
    }
    print(f"\nrun record: nproc={nproc} python={record['python']} "
          f"commit={record['commit'][:12]} seed={seed} reps={reps} "
          f"load {load_before:.2f} -> {record['load_after']:.2f} "
          f"elapsed {record['elapsed_s']:.0f}s")
    if out:
        with open(out, "w", encoding="utf-8") as stream:
            json.dump(record, stream, indent=1)
    for problem in problems:
        print("output check failed:", problem)
    print("output check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def selfcheck(names: Iterable[str], seed: int) -> int:
    """Show that the exact metrics repeat, on ``seed`` and ``seed + 1``."""
    exact = [m for m, unit, _b in layers.PER_LAYER
             if m.endswith(".calls")
             or (unit in ("count", "ratio", "B")
                 and m not in layers.TIMING_DERIVED)]
    problems: List[str] = []
    for check_seed in (seed, seed + 1):
        for name in names:
            if name not in EXACT_WORKLOADS:
                continue
            counts = [spawn_pass(name, check_seed, "count")
                      for _ in range(2)]
            traces = [spawn_pass(name, check_seed, "traced")
                      for _ in range(2)]
            first, second = (c["pycalls"] for c in counts)
            for package in first:
                slack = 4 if package == "other" else 0
                if abs(first[package] - second[package]) > slack:
                    problems.append(
                        f"{name} seed {check_seed}: pycalls.{package} "
                        f"{first[package]} != {second[package]}")
            for metric in exact:
                a, b = (t["layers"][metric] for t in traces)
                if a != b:
                    problems.append(f"{name} seed {check_seed}: {metric} "
                                    f"{a} != {b}")
            problems += output_problems(name, check_seed, counts + traces)
            print(f"{name} seed {check_seed}: "
                  f"{sum(first.values())} calls over "
                  f"{counts[0]['profiled_mutants']} mutants, "
                  f"{len(exact)} exact layer metrics compared")
    for problem in problems:
        print("selfcheck failed:", problem)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument("--out")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--pass", dest="mode", choices=workload_lib.MODES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS,
                        default=time.clock_gettime(time.CLOCK_MONOTONIC))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.reps < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 0, --reps >= 1, --seconds > 0")
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.mode:
            print(json.dumps(workload_lib.run_pass(
                WORKLOADS[names[0]], args.seed, args.mode, args.spawned_at)))
            return 0
        if args.trace is not None:
            if not args.workload:
                parser.error("--trace needs --workload")
            return driver_run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        if args.selfcheck:
            return selfcheck(names, args.seed)
        return ledger_run(names, args.seed, args.reps, args.out)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
