"""The ``alive-mutate`` command-line tool.

Default mode runs the integrated in-process fuzzing loop of the paper:
mutate, optimize, and translation-validate inside one process.

``--jobs N`` shards the work across N worker processes: with several
input files the files are fuzzed in parallel (each with the same
``--seed``, so results match running the tool on each file separately);
with a single file the iteration space ``seed..seed+n-1`` is split into
contiguous chunks, so the union of findings matches a sequential run.

``--mutate-only`` runs just the mutation stage and writes the mutant to a
file — the standalone-mutator configuration used as stage 1 of the
discrete-tools baseline in the throughput experiment (§V-B).

Long runs can be made fault-tolerant: ``--checkpoint DIR`` journals
every completed shard durably (and ``--resume`` skips them after a
crash or Ctrl-C), ``--job-deadline`` bounds each shard's wall clock
(stuck workers are killed by a watchdog when sharded), and
``--max-job-retries`` retries-then-quarantines shards that hang or
kill their worker.

``--node --queue-dir DIR`` joins a *distributed* campaign as a worker
node instead: jobs (seed payload included) come from the shared queue
directory a coordinator published, are run under time-bounded leases
with heartbeat renewal, and results are parked back in the queue — no
input files, no fuzzing flags.  The coordinator side is the Python API
(``CampaignConfig(dist=DistConfig(queue_dir=...))``); see README
"Distributed campaigns".

For fleets without a shared filesystem, ``--serve-queue HOST:PORT``
runs the same queue over a socket (:mod:`repro.fuzz.net`): the broker
owns queue state in memory (journal-backed with ``--broker-journal``),
coordinators publish with ``DistConfig(queue_addr="HOST:PORT")``, and
nodes join with ``--node --queue addr:HOST:PORT``.  Module payloads
travel as compact binary bitcode referenced by content hash, so a seed
crosses the wire once per node no matter how many jobs reuse it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import List, Optional

from ..fuzz.driver import ConfigError, DeadlineExceeded, FuzzConfig, \
    FuzzDriver
from ..fuzz.feedback import SCHEDULERS, FeedbackConfig
from ..fuzz.parallel import ShardJob, run_jobs
from ..ir.bitcode import BitcodeError, load_module_file, write_bitcode
from ..ir.parser import ParseError
from ..ir.printer import print_module
from ..mutate import Mutator, MutatorConfig
from ..obs import (MetricsRegistry, ProgressReporter, ThroughputSnapshot,
                   tracer_for_path)
from ..tv import RefinementConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alive-mutate",
        description="mutation-based fuzzing for the LLVM-like IR with "
                    "integrated translation validation")
    parser.add_argument("inputs", nargs="*", metavar="input",
                        help="input .ll file(s) (not used with --node: "
                             "jobs come from the queue)")
    parser.add_argument("-n", "--num-mutants", type=int, default=10,
                        help="number of mutants per file (default 10)")
    parser.add_argument("-t", "--time", type=float, default=None,
                        help="time budget in seconds (overrides -n; with "
                             "--jobs, per shard)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base PRNG seed (mutant i uses seed base+i)")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes to shard fuzzing across "
                             "(default 1: in-process)")
    parser.add_argument("--passes", default="O2",
                        help="pipeline or comma-separated pass list "
                             "(default O2)")
    parser.add_argument("--save-dir", default=None,
                        help="directory for saving mutants")
    parser.add_argument("--saveAll", action="store_true",
                        help="save every mutant, not only failing ones")
    parser.add_argument("--enable-bug", action="append", default=[],
                        metavar="ID", help="enable a seeded bug by issue id")
    parser.add_argument("--max-mutations", type=int, default=3,
                        help="max mutations applied per function")
    parser.add_argument("--max-inputs", type=int, default=24,
                        help="inputs per refinement check")
    parser.add_argument("--log", default=None, help="findings log (JSONL)")
    parser.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="journal completed shards to DIR (fsync'd "
                             "JSONL), so a killed run loses no work")
    parser.add_argument("--resume", action="store_true",
                        help="skip shards already journaled in --checkpoint "
                             "DIR and merge their cached results")
    parser.add_argument("--job-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-shard wall-clock deadline; overruns are "
                             "recorded as hangs (when sharded, with any "
                             "--jobs, a watchdog also kills the stuck "
                             "worker)")
    parser.add_argument("--max-job-retries", type=int, default=0,
                        metavar="N",
                        help="retry shards that hang or kill their worker "
                             "up to N times, then quarantine them "
                             "(default 0)")
    feedback = parser.add_argument_group(
        "coverage feedback",
        "rule-firing feedback, runtime corpus, and adaptive scheduling "
        "(see README \"Coverage-guided fuzzing\")")
    feedback.add_argument("--feedback", action="store_true",
                          help="enable rule-firing coverage feedback: "
                               "mutants that exercise new optimizer "
                               "behavior join a runtime corpus and are "
                               "mutated further")
    feedback.add_argument("--scheduler", default=None, choices=SCHEDULERS,
                          metavar="NAME",
                          help="adaptive (seed, mutation-class) scheduler: "
                               "'bandit' (UCB1; the default with "
                               "--feedback) or 'round-robin'; requires "
                               "--feedback")
    feedback.add_argument("--corpus-dir", default=None, metavar="DIR",
                          help="journal admitted corpus entries under DIR "
                               "(fsync'd JSONL) so a killed run resumes "
                               "with its corpus; requires --feedback")
    feedback.add_argument("--max-corpus-size", type=int, default=64,
                          metavar="N",
                          help="distill the runtime corpus down to a "
                               "covering set of at most N entries "
                               "(default 64)")
    dist = parser.add_argument_group(
        "distributed campaigns",
        "join a coordinator's work queue as a node, or serve one over "
        "a socket (see README \"Distributed campaigns\")")
    dist.add_argument("--node", nargs="?", const="", default=None,
                      metavar="NAME",
                      help="run as a worker node named NAME (default: "
                           "node-<pid>): claim jobs from the queue "
                           "under leases, run them, park results; "
                           "requires --queue-dir or --queue, ignores "
                           "input files and fuzzing flags")
    dist.add_argument("--queue-dir", default=None, metavar="DIR",
                      help="the shared queue directory the coordinator "
                           "published (shared-dir transport)")
    dist.add_argument("--queue", default=None, metavar="SPEC",
                      help="the queue to join: 'addr:HOST:PORT' connects "
                           "to a broker started with --serve-queue, "
                           "'dir:DIR' is the shared directory (same as "
                           "--queue-dir DIR)")
    dist.add_argument("--serve-queue", default=None, metavar="HOST:PORT",
                      help="run a queue broker on HOST:PORT (port 0 "
                           "picks a free one) instead of fuzzing; "
                           "coordinators publish with "
                           "DistConfig(queue_addr=...), nodes join with "
                           "--node --queue addr:HOST:PORT")
    dist.add_argument("--broker-journal", default=None, metavar="DIR",
                      help="with --serve-queue, journal broker state "
                           "under DIR so a killed broker recovers "
                           "(default: in-memory only)")
    dist.add_argument("--wait-manifest", type=float, default=30.0,
                      metavar="SECONDS",
                      help="with --node, wait up to this long for the "
                           "coordinator's manifest to appear "
                           "(default 30)")
    dist.add_argument("--max-node-jobs", type=int, default=None,
                      metavar="N",
                      help="with --node, exit after running N jobs "
                           "(default: drain the queue)")
    obs = parser.add_argument_group(
        "observability",
        "throughput statistics, metrics export, and span tracing "
        "(see README \"Observability\")")
    obs.add_argument("--stats", action="store_true",
                     help="print periodic throughput lines (mutants/sec, "
                          "valid-mutant rate, per-stage time share) to "
                          "stderr")
    obs.add_argument("--stats-interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="seconds between --stats lines (default 2)")
    obs.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="write the final metrics registry as JSON")
    obs.add_argument("--trace-out", default=None, metavar="PATH",
                     help="record mutate/optimize/verify/interp spans as "
                          "JSONL: a file in single-process mode, a "
                          "directory (one file per shard) with --jobs")
    obs.add_argument("--trace-sample", type=float, default=1.0,
                     metavar="RATE",
                     help="keep this fraction of spans, 0..1 (default 1)")
    parser.add_argument("--mutate-only", action="store_true",
                        help="generate one mutant and exit (discrete mode)")
    parser.add_argument("-o", "--output", default=None,
                        help="output file for --mutate-only")
    parser.add_argument("--emit-bitcode", action="store_true",
                        help="write the mutant in the compact binary format")
    parser.add_argument("--no-batched-exec", action="store_true",
                        help="run enumerated inputs one at a time "
                             "instead of struct-of-arrays batches (the "
                             "batching ablation; findings are identical "
                             "either way, throughput is not)")
    parser.add_argument("--verify-mutants", action="store_true",
                        help="run the IR verifier on every mutant")
    return parser


def _load(path: str):
    try:
        return load_module_file(path)
    except OSError as exc:
        print(f"alive-mutate: cannot read {path}: {exc}", file=sys.stderr)
    except (ParseError, BitcodeError) as exc:
        print(f"alive-mutate: cannot load {path}: {exc}", file=sys.stderr)
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.serve_queue is not None:
        return _serve_queue(args)
    if args.node is not None:
        if not args.queue_dir and not args.queue:
            print("alive-mutate: --node requires --queue-dir DIR or "
                  "--queue addr:HOST:PORT", file=sys.stderr)
            return 2
        if args.inputs:
            print("alive-mutate: --node takes no input files (jobs come "
                  "from the queue)", file=sys.stderr)
            return 2
        return _run_node(args)
    if not args.inputs:
        print("alive-mutate: at least one input .ll file is required",
              file=sys.stderr)
        return 2
    mutator_config = MutatorConfig(max_mutations=args.max_mutations,
                                   verify_mutants=args.verify_mutants)

    if args.mutate_only:
        if len(args.inputs) > 1:
            print("alive-mutate: --mutate-only takes exactly one input",
                  file=sys.stderr)
            return 2
        module = _load(args.inputs[0])
        if module is None:
            return 2
        mutator = Mutator(module, mutator_config)
        mutant, record = mutator.create_mutant(args.seed)
        if args.emit_bitcode:
            if not args.output:
                print("alive-mutate: --emit-bitcode requires -o",
                      file=sys.stderr)
                return 2
            with open(args.output, "wb") as stream:
                stream.write(write_bitcode(mutant))
            return 0
        output = print_module(mutant)
        if args.output:
            with open(args.output, "w") as stream:
                stream.write(output)
        else:
            sys.stdout.write(output)
        return 0

    config = FuzzConfig(
        pipeline=args.passes,
        enabled_bugs=tuple(args.enable_bug),
        mutator=mutator_config,
        tv=RefinementConfig(max_inputs=args.max_inputs,
                            batched=not args.no_batched_exec),
        base_seed=args.seed,
        save_dir=args.save_dir,
        save_all=args.saveAll and args.save_dir is not None,
        log_path=args.log,
        feedback=FeedbackConfig(
            enabled=args.feedback,
            corpus_dir=args.corpus_dir,
            scheduler=args.scheduler,
            max_corpus_size=args.max_corpus_size,
        ),
    )
    try:
        config.validate(
            iterations=None if args.time is not None else args.num_mutants,
            time_budget=args.time, require_budget=True)
    except ConfigError as exc:
        print(f"alive-mutate: {exc}", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("alive-mutate: --resume requires --checkpoint DIR",
              file=sys.stderr)
        return 2
    if args.job_deadline is not None and args.job_deadline <= 0:
        print("alive-mutate: --job-deadline must be positive, "
              f"got {args.job_deadline}", file=sys.stderr)
        return 2
    if args.max_job_retries < 0:
        print("alive-mutate: --max-job-retries must be >= 0, "
              f"got {args.max_job_retries}", file=sys.stderr)
        return 2
    if not 0.0 <= args.trace_sample <= 1.0:
        print("alive-mutate: --trace-sample must be in [0, 1], "
              f"got {args.trace_sample}", file=sys.stderr)
        return 2
    if args.stats_interval <= 0:
        print("alive-mutate: --stats-interval must be positive, "
              f"got {args.stats_interval}", file=sys.stderr)
        return 2

    if len(args.inputs) == 1 and args.jobs <= 1 and not args.checkpoint:
        return _fuzz_one(args.inputs[0], config, args)
    return _fuzz_sharded(config, args)


def _serve_queue(args) -> int:
    """Run a socket queue broker (``--serve-queue HOST:PORT``)."""
    from ..fuzz.net import QueueBroker, parse_address

    from ..fuzz.dist import QueueError
    try:
        host, port = parse_address(args.serve_queue)
    except QueueError as exc:
        print(f"alive-mutate: {exc}", file=sys.stderr)
        return 2
    broker = QueueBroker(host=host, port=port,
                         journal_dir=args.broker_journal)
    host, port = broker.start()
    durability = (f"journal {args.broker_journal}" if args.broker_journal
                  else "in-memory")
    print(f"alive-mutate: queue broker serving on {host}:{port} "
          f"({durability})", file=sys.stderr)
    try:
        broker.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        broker.stop()
    return 0


def _open_node_queue(args):
    """The transport a node's ``--queue``/``--queue-dir`` flags name."""
    from ..fuzz.dist import QueueError, WorkQueue

    spec = args.queue
    if spec:
        if spec.startswith("addr:"):
            from ..fuzz.net import SocketQueue
            return SocketQueue(spec[len("addr:"):], node=args.node)
        if spec.startswith("dir:"):
            return WorkQueue(spec[len("dir:"):], node=args.node)
        raise QueueError(f"--queue must be 'addr:HOST:PORT' or "
                         f"'dir:DIR', got {spec!r}")
    return WorkQueue(args.queue_dir, node=args.node)


def _run_node(args) -> int:
    """Join a distributed campaign as a worker node (``--node``)."""
    from ..fuzz.dist import NodeRunner, QueueError

    try:
        queue = _open_node_queue(args)
    except QueueError as exc:
        print(f"alive-mutate: {exc}", file=sys.stderr)
        return 2
    runner = NodeRunner(queue, workers=max(1, args.jobs))
    print(f"alive-mutate: node {queue.node} joining queue "
          f"{args.queue or args.queue_dir}", file=sys.stderr)
    try:
        report = runner.run(time_budget=args.time,
                            max_jobs=args.max_node_jobs,
                            wait_for_manifest=args.wait_manifest)
    except QueueError as exc:
        print(f"alive-mutate: queue failed: {exc}", file=sys.stderr)
        return 1
    finally:
        queue.close()
    if args.metrics_out:
        _write_metrics(report.metrics, args.metrics_out)
    print(f"node {report.node}: ran {report.jobs_run} jobs, "
          f"published {report.published} results "
          f"({report.duplicates} duplicates dropped, "
          f"{report.released} released for retry) "
          f"in {report.elapsed:.2f}s")
    return 0


def _write_metrics(metrics: MetricsRegistry, path: str) -> None:
    with open(path, "w") as stream:
        json.dump(metrics.to_dict(), stream, indent=2, sort_keys=True)
        stream.write("\n")


def _fuzz_one(path: str, config: FuzzConfig, args) -> int:
    """The classic single-file in-process loop."""
    module = _load(path)
    if module is None:
        return 2
    tracer = None
    if args.trace_out:
        tracer = tracer_for_path(args.trace_out,
                                 sample_rate=args.trace_sample)
    progress = ProgressReporter(interval=args.stats_interval) \
        if args.stats else None
    driver = FuzzDriver(module, config, file_name=path,
                        tracer=tracer, progress=progress)
    for name, reason in driver.report.dropped_functions.items():
        print(f"alive-mutate: dropping @{name}: {reason}", file=sys.stderr)
    if not driver.target_functions:
        print("alive-mutate: no processable functions", file=sys.stderr)
        return 2
    driver.set_deadline(args.job_deadline)
    try:
        report = driver.run(
            iterations=None if args.time is not None else args.num_mutants,
            time_budget=args.time)
    except DeadlineExceeded as exc:
        print(f"alive-mutate: {exc}", file=sys.stderr)
        return 2
    finally:
        driver.close()
        if tracer is not None:
            tracer.close()
    if progress is not None:
        snapshot = progress.emit(driver.metrics)
        breakdown = snapshot.pass_breakdown()
        if breakdown:
            print(f"alive-mutate: optimize passes: {breakdown}",
                  file=sys.stderr)
    if args.metrics_out:
        _write_metrics(driver.metrics, args.metrics_out)
    print(report.summary())
    for finding in report.findings:
        print("  " + finding.summary())
    return 1 if report.findings else 0


def _fuzz_sharded(config: FuzzConfig, args) -> int:
    """Fuzz several files — or one file's iteration space — across
    ``--jobs`` worker processes."""
    from ..fuzz.campaign import JOB_SEED_STRIDE

    sources = []
    for path in args.inputs:
        module = _load(path)
        if module is not None:
            sources.append((path, print_module(module)))
    if not sources:
        return 2

    jobs: List[ShardJob] = []
    if len(sources) == 1 and args.time is None:
        # Shard one file's seed range base..base+n-1 into contiguous
        # chunks; the union of findings equals the sequential run's.
        path, text = sources[0]
        shards = max(1, min(args.jobs, args.num_mutants))
        chunk, extra = divmod(args.num_mutants, shards)
        start = 0
        for index in range(shards):
            size = chunk + (1 if index < extra else 0)
            if size == 0:
                continue
            jobs.append(ShardJob(
                job_index=index, file_name=path, text=text,
                config=replace(config, base_seed=args.seed + start),
                iterations=size))
            start += size
    else:
        # One shard per file.  With -t each shard gets the full budget;
        # seed ranges are kept disjoint via the campaign stride.
        for index, (path, text) in enumerate(sources):
            shard_config = config if args.time is None else replace(
                config, base_seed=args.seed + index * JOB_SEED_STRIDE)
            jobs.append(ShardJob(
                job_index=index, file_name=path, text=text,
                config=shard_config,
                iterations=None if args.time is not None
                else args.num_mutants,
                time_budget=args.time))

    for job in jobs:
        job.deadline = args.job_deadline
        job.trace_dir = args.trace_out
        job.trace_sample = args.trace_sample

    journal = None
    cached = {}
    if args.checkpoint:
        from ..fuzz.checkpoint import (CheckpointError, CheckpointJournal,
                                       jobs_fingerprint)
        journal = CheckpointJournal(args.checkpoint)
        try:
            cached = journal.start(jobs_fingerprint(jobs),
                                   total_jobs=len(jobs), resume=args.resume)
        except CheckpointError as exc:
            print(f"alive-mutate: {exc}", file=sys.stderr)
            return 2
    todo = [job for job in jobs if job.job_index not in cached]
    if cached:
        print(f"alive-mutate: resuming {len(cached)} shards "
              f"from {args.checkpoint}", file=sys.stderr)
    def on_result(shard) -> None:
        if journal is not None:
            journal.append(shard)
        if args.stats and not shard.error and not shard.parse_error:
            snapshot = ThroughputSnapshot.from_metrics(shard.metrics,
                                                       shard.timings.total)
            print(f"alive-mutate: shard {shard.job_index} "
                  f"({shard.file_name}): {snapshot.progress_line()}",
                  file=sys.stderr)

    started = time.monotonic()
    try:
        results = run_jobs(todo, workers=args.jobs,
                           max_retries=args.max_job_retries,
                           on_result=on_result)
    finally:
        if journal is not None:
            journal.close()
    elapsed = time.monotonic() - started
    results = sorted(list(cached.values()) + list(results),
                     key=lambda shard: shard.job_index)

    total_iterations = 0
    total_findings = 0
    parse_failures = 0
    failed = 0
    quarantined = 0
    for shard in results:
        label = shard.file_name if len(sources) > 1 \
            else f"{shard.file_name}[shard {shard.job_index}]"
        if shard.failure_kind == "quarantine":
            quarantined += 1
            print(f"alive-mutate: {label}: quarantined (seed {shard.seed}, "
                  f"{shard.attempts} attempts): {shard.error}",
                  file=sys.stderr)
            continue
        if shard.error:
            failed += 1
            kind = f" ({shard.failure_kind})" if shard.failure_kind else ""
            print(f"alive-mutate: {label}: shard failed{kind}: "
                  f"{shard.error}", file=sys.stderr)
            continue
        if shard.parse_error:
            parse_failures += 1
            print(f"alive-mutate: {label}: parse failure: "
                  f"{shard.parse_error}", file=sys.stderr)
            continue
        for name, reason in shard.dropped_functions.items():
            print(f"alive-mutate: {label}: dropping @{name}: {reason}",
                  file=sys.stderr)
        total_iterations += shard.iterations
        total_findings += len(shard.findings)
        print(f"{label}: {shard.iterations} iterations, "
              f"{len(shard.findings)} findings "
              f"in {shard.timings.total:.2f}s")
        for finding in shard.findings:
            print("  " + finding.summary())
    health = ""
    if parse_failures or failed or quarantined:
        health = (f"; {parse_failures} parse failures, {failed} failed, "
                  f"{quarantined} quarantined")
    if args.stats or args.metrics_out:
        merged = MetricsRegistry.merged(
            shard.metrics for shard in results
            if not shard.error and not shard.parse_error)
        if args.stats:
            snapshot = ThroughputSnapshot.from_metrics(merged, elapsed)
            print(f"alive-mutate: total: {snapshot.progress_line()}",
                  file=sys.stderr)
            breakdown = snapshot.pass_breakdown()
            if breakdown:
                print(f"alive-mutate: optimize passes: {breakdown}",
                      file=sys.stderr)
        if args.metrics_out:
            _write_metrics(merged, args.metrics_out)
    print(f"total: {total_iterations} iterations, {total_findings} findings "
          f"across {len(results)} shards ({max(1, args.jobs)} workers)"
          f"{health}")
    if total_findings:
        return 1
    if total_iterations == 0:
        print("alive-mutate: no processable functions", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
