#!/usr/bin/env python
"""Distributed-campaign smoke test: two nodes, one SIGKILL, full parity.

The CI-facing proof of the headline invariant from DESIGN §10: a
coordinator plus two ``alive-mutate --node`` worker *processes* run a
campaign over a shared queue directory; one node is SIGKILLed as soon
as it holds a lease; the survivor reclaims and finishes; and the merged
report's findings and ``deterministic()`` metrics must equal an
uninterrupted single-host run.

Standalone script (not pytest-collected) so the ``dist-smoke`` CI job
can run it directly:

    PYTHONPATH=src python benchmarks/dist_smoke.py
    PYTHONPATH=src python benchmarks/dist_smoke.py --transport socket

``--transport socket`` runs the same drill over the wire tier instead
of the shared directory: an in-process :class:`QueueBroker` (journal-
backed) serves the queue, the worker processes connect with
``--queue addr:HOST:PORT``, and the SIGKILLed node's leases expire on
disconnect rather than by timeout.

Exit status 0 = parity held, 1 = divergence (with a diff dump), 2 =
harness failure (nodes never started, queue never drained, ...).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.fuzz import CampaignConfig, run_campaign  # noqa: E402
from repro.fuzz.dist import DirectoryStore, DistConfig  # noqa: E402
from repro.fuzz.net import QueueBroker  # noqa: E402

SMOKE = dict(corpus_size=6, mutants_per_file=12, max_inputs=8, pipelines=("O2",))
VICTIM = "smoke-victim"
SURVIVOR = "smoke-survivor"


def report_key(report):
    return {
        "total_iterations": report.total_iterations,
        "total_findings": report.total_findings,
        "outcomes": {
            bug_id: [o.found, o.first_file, o.first_seed, o.findings]
            for bug_id, o in sorted(report.outcomes.items())
        },
        "failed_shards": len(report.failed_shards),
        "quarantined": len(report.quarantined),
    }


def spawn_node(name, queue_spec):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli.alive_mutate",
            "--node",
            name,
            "--queue",
            queue_spec,
            "--wait-manifest",
            "60",
            "-j",
            "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def wait_for_lease(store, node, timeout=60.0):
    """Block until ``node`` holds at least one lease in the queue's record
    ``store``; False on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for index in store.indexes("lease"):
            lease = store.read("lease", index)
            if lease is not None and lease.get("node") == node:
                return True
        time.sleep(0.05)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transport", choices=("dir", "socket"),
                        default="dir",
                        help="queue transport for the worker processes")
    args = parser.parse_args()

    print("dist-smoke: single-host reference run ...", flush=True)
    reference = run_campaign(CampaignConfig(workers=1, **SMOKE))
    print(
        f"dist-smoke: reference: {reference.total_iterations} iterations, "
        f"{reference.total_findings} findings",
        flush=True,
    )

    work_dir = tempfile.mkdtemp(prefix="dist-smoke-")
    queue_dir = os.path.join(work_dir, "queue")
    broker = None
    if args.transport == "socket":
        broker = QueueBroker(journal_dir=os.path.join(work_dir, "broker"))
        host, port = broker.start()
        queue_spec = f"addr:{host}:{port}"
        dist = DistConfig(
            queue_addr=f"{host}:{port}",
            lease_duration=3.0,
            max_attempts=5,
            wait_timeout=300.0,
        )
        print(f"dist-smoke: broker serving on {host}:{port}", flush=True)
    else:
        queue_spec = f"dir:{queue_dir}"
        dist = DistConfig(
            queue_dir=queue_dir,
            lease_duration=3.0,
            max_attempts=5,
            wait_timeout=300.0,
        )
    config = CampaignConfig(workers=1, dist=dist, **SMOKE)

    box = {}

    def coordinate():
        box["report"] = run_campaign(config)

    coordinator = threading.Thread(target=coordinate)
    coordinator.start()

    victim = spawn_node(VICTIM, queue_spec)
    survivor = spawn_node(SURVIVOR, queue_spec)
    killed = False
    try:
        store = broker.store if broker is not None else DirectoryStore(queue_dir)
        if wait_for_lease(store, VICTIM, timeout=60.0):
            victim.send_signal(signal.SIGKILL)
            killed = True
            print(
                f"dist-smoke: SIGKILLed {VICTIM} (pid {victim.pid}) "
                "while it held a lease",
                flush=True,
            )
        else:
            print(
                f"dist-smoke: {VICTIM} never claimed a lease",
                file=sys.stderr,
                flush=True,
            )
        coordinator.join(timeout=300)
        if coordinator.is_alive():
            print("dist-smoke: coordinator did not finish", file=sys.stderr)
            return 2
    finally:
        for proc in (victim, survivor):
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=60)
        if broker is not None:
            broker.stop()

    if not killed:
        # The victim drained too fast to be killed mid-lease (tiny CI
        # runners); parity must hold regardless, but say so.
        print(
            "dist-smoke: node kill was not injected; checking parity "
            "of the clean two-node run",
            flush=True,
        )

    survivor_output = survivor.stdout.read() if survivor.stdout else ""
    print("dist-smoke: survivor output:", flush=True)
    for line in survivor_output.strip().splitlines():
        print(f"  {line}", flush=True)

    report = box["report"]
    expected, actual = report_key(reference), report_key(report)
    if actual != expected:
        print("dist-smoke: PARITY FAILURE", file=sys.stderr)
        print(f"  expected: {json.dumps(expected, indent=2)}", file=sys.stderr)
        print(f"  actual:   {json.dumps(actual, indent=2)}", file=sys.stderr)
        return 1
    if report.metrics.deterministic() != reference.metrics.deterministic():
        print("dist-smoke: deterministic() metrics diverged", file=sys.stderr)
        return 1
    print(
        f"dist-smoke: OK — {report.total_iterations} iterations, "
        f"{report.total_findings} findings, parity with single-host run "
        f"({args.transport} transport, node kill injected: {killed})",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
