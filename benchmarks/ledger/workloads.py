"""The five ledger workloads and the code that runs one *pass* of one.

A pass is one fresh process: import ``repro``, build the workload's
inputs from the seed, run them through the public API
(``CampaignExecutor(config, corpus=..., job_runner=...).execute()``,
``QueueBroker``, ``NodeRunner``, ``open_queue``) and hand back what it
measured.  ``run.py`` decides how many passes make a run and reduces
them to metrics.

What ``--seed`` drives.  The seed is the campaign's ``base_seed``: it
picks every mutant and every translation-validation input set, so two
seeds share no work.  The *seed files* of the four corpus workloads
stay ``generate_corpus(n, 0)``: the corpus generator draws the width of
its three loop files from the seed, a wide loop costs 3-4x a narrow
one, and that draw alone moved the campaign rate by +-8 % between
seeds — more than any bound this ledger could then promise.  The block
modules of ``optimize_blocks`` are generated here with a fixed width
mix, so their text does follow the seed.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import blocks
import layers
import spans

__all__ = ["WORKLOADS", "Workload", "run_pass", "MODES"]

CORPUS_SEED = 0
PROFILED_EVERY = 4          # the count pass profiles jobs with index % 4 == 0
MODES = ("timed", "traced", "count", "setup")
LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(LEDGER_DIR, ".work")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: Callable[[int], List[Tuple[str, str]]]
    config: Dict[str, object]
    armed: bool = True          # False: no bug enabled, any finding is false
    dist: bool = False          # broker + coordinator thread + one node


def _seed_files(count: int) -> Callable[[int], List[Tuple[str, str]]]:
    def build(_seed: int) -> List[Tuple[str, str]]:
        from repro.fuzz import generate_corpus
        return generate_corpus(count, CORPUS_SEED)
    return build


_E1 = dict(pipelines=("O2", "backend", "O2+backend"), mutants_per_file=12,
           max_inputs=16)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "campaign_e1",
        "Table-I campaign, 48 files x 3 pipelines, all 33 bugs armed: "
        "balanced mutate/optimize/verify mix with warm memo caches",
        _seed_files(48), dict(_E1, workers=1)),
    Workload(
        "campaign_e1_j2",
        "the same jobs through the 2-worker process pool: the only place "
        "the parallel scheduler does real work",
        _seed_files(48), dict(_E1, workers=2)),
    Workload(
        "verify_wide",
        "no bug armed, 256 inputs per check: translation validation "
        "exhausts every input set; known answer is zero findings",
        _seed_files(48),
        dict(pipelines=("O2",), mutants_per_file=10, max_inputs=256,
             enabled_bugs=(), workers=1),
        armed=False),
    Workload(
        "optimize_blocks",
        "16 generated 40-block functions, every mutant unique: optimizer, "
        "clone and fingerprint dominate and verify mostly compiles plans",
        lambda seed: blocks.block_corpus(16, seed),
        dict(pipelines=("O2",), mutants_per_file=3, max_inputs=2,
             workers=1)),
    Workload(
        "dist_durable",
        "journaled broker + coordinator + one node, 300 tiny cold jobs: "
        "queue verbs, wire codec, parse and fsyncs carry the run",
        _seed_files(100),
        dict(pipelines=("O2", "backend", "O2+backend"), mutants_per_file=2,
             max_inputs=16, workers=1),
        dist=True),
)


class Recorder:
    """The benchmark's ``job_runner``: run the job, keep what it found.

    Records go to a file because ``campaign_e1_j2`` runs jobs in pool
    workers; one append per job is the whole cost.  With
    ``profile`` set, every ``PROFILED_EVERY``-th job runs under its own
    ``cProfile`` and its call totals per package are recorded too.
    """

    def __init__(self, path: str, profile: bool = False) -> None:
        self.path = path
        self.profile = profile

    def __call__(self, job):
        import repro.fuzz as fuzz  # resolved per call: the traced binding
        calls = None
        if self.profile and job.job_index % PROFILED_EVERY == 0:
            profiler = cProfile.Profile()
            result = profiler.runcall(fuzz.execute_job, job)
            profiler.create_stats()
            calls = layers.calls_by_package(profiler.stats)
        else:
            result = fuzz.execute_job(job)
        record = {
            "mutants": result.iterations,
            "findings": [[result.file_name, f.seed, f.kind, f.function,
                          sorted(f.bug_ids)] for f in result.findings],
            "pycalls": calls,
        }
        # One write() on an O_APPEND descriptor: two pool workers never
        # interleave their lines, however long a line gets.
        descriptor = os.open(self.path,
                             os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(descriptor, (json.dumps(record) + "\n").encode())
        finally:
            os.close(descriptor)
        return result

    def records(self) -> List[dict]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as stream:
            return [json.loads(line) for line in stream]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _execute_dist(config_kwargs: dict, corpus, recorder: Recorder,
                  work_dir: str, ready: Callable[[], bool]):
    """Broker, coordinator thread and one node on the main thread.

    Returns ``(report, extra registries)``, or ``None`` when ``ready``
    says the pass ends once everything is set up.
    """
    from repro.fuzz import (CampaignConfig, CampaignExecutor, DistConfig,
                            FeedbackConfig, NodeRunner, QueueBroker,
                            open_queue)
    from repro.obs import MetricsRegistry
    broker = QueueBroker(host="127.0.0.1", port=0,
                         journal_dir=os.path.join(work_dir, "broker"))
    broker.start()
    try:
        config = CampaignConfig(
            dist=DistConfig(queue_addr=broker.address),
            checkpoint_dir=os.path.join(work_dir, "checkpoint"),
            feedback=FeedbackConfig(
                enabled=True, corpus_dir=os.path.join(work_dir, "corpus")),
            **config_kwargs)
        executor = CampaignExecutor(config, corpus=corpus,
                                    job_runner=recorder)
        outcome: List[object] = []

        def coordinate() -> None:
            try:
                outcome.append(executor.execute())
            except Exception as exc:  # noqa: BLE001 — re-raised below
                outcome.append(exc)

        queue = open_queue(config.dist, node="node-1")
        try:
            node = NodeRunner(queue, workers=1, runner=recorder,
                              work_dir=os.path.join(work_dir, "node"))
            coordinator = threading.Thread(target=coordinate)
            if not ready():
                return None
            coordinator.start()
            try:
                node.run(wait_for_manifest=60.0)
            finally:
                coordinator.join(timeout=120.0)
        finally:
            queue.close()
        if coordinator.is_alive():
            executor.request_stop()
            coordinator.join()
            raise RuntimeError("coordinator did not finish with its node")
        if isinstance(outcome[0], Exception):
            raise outcome[0]
        # The broker counts every frame a second time (the other end of
        # each client's socket); only its queue bookkeeping is new.
        return outcome[0], [node.report.metrics, MetricsRegistry(
            counters=broker.metrics.counters_with_prefix("dist."))]
    finally:
        broker.stop()


def run_pass(workload: Workload, seed: int, mode: str,
             spawned_at: float) -> dict:
    """One pass of ``workload``; ``mode`` is one of :data:`MODES`.

    ``spawned_at`` is the parent's ``CLOCK_MONOTONIC`` reading when it
    started this process: set-up time runs from there to the moment
    everything is ready for ``execute()``.  A ``setup`` pass stops at
    that moment; it exists so a run can sample set-up time often.
    """
    from repro.fuzz import CampaignConfig, CampaignExecutor
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    uninstall = None
    recorder = Recorder(os.path.join(work_dir, "jobs.jsonl"),
                        profile=(mode == "count"))
    marks: Dict[str, float] = {}

    def ready() -> bool:
        # A full collection here puts the collector in the same phase at
        # the start of every pass, whatever was allocated while importing
        # and setting up; without it, editing a file of the ledger moved
        # the call counts by up to 0.2 %.
        # It belongs to neither set-up nor the run, so it sits between
        # the two clock readings.
        marks["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        gc.collect()
        marks["start"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        marks["cpu"] = _cpu_seconds()
        return mode != "setup"

    try:
        corpus = workload.corpus(seed)
        kwargs = dict(workload.config, base_seed=seed)
        tracer = None
        if mode == "traced":
            tracer = spans.SpanRecorder()
            uninstall = spans.install(tracer)
        outcome = None
        if workload.dist:
            outcome = _execute_dist(kwargs, corpus, recorder, work_dir, ready)
        else:
            executor = CampaignExecutor(CampaignConfig(**kwargs),
                                        corpus=corpus, job_runner=recorder)
            if ready():
                outcome = executor.execute(), ()
        wall = time.clock_gettime(time.CLOCK_MONOTONIC) - marks["start"]
        cpu = _cpu_seconds() - marks["cpu"]
        records = recorder.records()
    finally:
        if uninstall is not None:
            uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {"workload": workload.name, "seed": seed, "mode": mode,
              "setup_s": marks["ready"] - spawned_at}
    if outcome is None:
        return result
    report, extra_registries = outcome
    findings = sorted(tuple(f[:4]) + (tuple(f[4]),)
                      for record in records for f in record["findings"])
    jobs = len(corpus) * len(kwargs["pipelines"])
    result.update({
        "wall_s": wall, "cpu_s": cpu,
        "mutants": report.total_iterations, "jobs": jobs,
        "failed": (len(report.failed_shards) + len(report.quarantined)
                   + report.skipped_jobs + len(report.parse_failures)),
        "false_alarms": (len(findings) if not workload.armed
                         else sum(1 for f in findings if not f[4])),
        "bugs_found": len(report.found_bugs()),
        "findings": len(findings),
        "digest": hashlib.sha256(
            json.dumps(findings).encode()).hexdigest()[:16],
        "peak_rss_mb": _peak_rss_mb(),
    })
    if mode == "count":
        profiled = [r for r in records if r["pycalls"] is not None]
        result["profiled_mutants"] = sum(r["mutants"] for r in profiled)
        result["pycalls"] = {
            package: sum(r["pycalls"][package] for r in profiled)
            for package in layers.PACKAGES + ("other",)}
    if mode == "traced":
        result["layers"] = layers.from_trace(
            tracer.spans, report, extra_registries, wall, jobs,
            int(kwargs["workers"]))
    return result
