"""The lease state machine and the queue over memory: no I/O, a fake clock.

Example tests pin each rule of :mod:`repro.fuzz.lease`; the lease,
result and chaos suites of ``queue_protocol.py`` run over per-node
queues sharing one :class:`MemoryStore`; and the hypothesis property
drives the real :class:`WorkQueue` over a memory store through random
claim / heartbeat / release / advance / sweep / result sequences,
checking the protocol's safety invariants after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fuzz import lease as core
from repro.fuzz.dist import WorkQueue
from repro.fuzz.lease import Lease, Policy, QueueMismatch
from repro.fuzz.net import MemoryStore

from .queue_protocol import (ChaosSuite, LeaseProtocolSuite,
                             ResultPublishingSuite)

POLICY = Policy(lease_duration=10.0, max_attempts=3, retry_backoff=1.0,
                retry_jitter=0.5, fingerprint="f" * 64)


class TestClaim:
    def test_no_lease_is_a_fresh_claim(self):
        decision = core.claim(None, 100.0, POLICY, 0, "a")
        assert decision == (core.FRESH, Lease("a", 1, 100.0, 110.0))

    def test_live_lease_is_refused(self):
        held = Lease("a", 1, 100.0, 110.0)
        assert core.claim(held, 109.0, POLICY, 0, "b") == (core.LIVE, None)

    def test_expired_lease_waits_out_the_backoff_then_reclaims(self):
        held = Lease("a", 1, 100.0, 110.0)
        assert core.claim(held, 110.5, POLICY, 0, "b").outcome \
            == core.BACKOFF
        decision = core.claim(held, 112.0, POLICY, 0, "b")
        assert decision == (core.RECLAIM, Lease("b", 2, 112.0, 122.0))

    def test_exhausted_lease_retires(self):
        held = Lease("a", 3, 100.0, 110.0, released=True)
        assert core.claim(held, 100.0, POLICY, 0, "b") == (core.RETIRE,
                                                           held)


class TestRenewAndRelease:
    def test_renew_is_for_the_holder_of_an_unreleased_lease(self):
        held = Lease("a", 2, 100.0, 110.0)
        assert core.renew(held, "a", 105.0, 10.0) == Lease("a", 2, 100.0,
                                                           115.0)
        assert core.renew(held, "b", 105.0, 10.0) is None
        assert core.renew(None, "a", 105.0, 10.0) is None
        released = core.release(held, "a", 100.0, 106.0, "hang", "slow")
        assert core.renew(released, "a", 107.0, 10.0) is None

    def test_release_needs_the_claim_it_names(self):
        held = Lease("b", 2, 112.0, 122.0)
        assert core.release(held, "a", 100.0, 115.0, "hang", "x") is None
        assert core.release(held, "b", 100.0, 115.0, "hang", "x") is None
        assert core.release(held, "b", 112.0, 115.0, "hang", "x") == Lease(
            "b", 2, 112.0, 115.0, True, "hang", "x")


class TestSweepAndDrained:
    def test_sweep_counts_silent_expiries_and_lists_exhausted(self):
        leases = [(0, None),
                  (1, Lease("a", 1, 0.0, 200.0)),                # live
                  (2, Lease("a", 1, 0.0, 10.0)),                 # expired
                  (3, Lease("a", 3, 0.0, 10.0)),                 # exhausted
                  (4, Lease("a", 3, 0.0, 10.0, released=True))]  # released
        expired, exhausted = core.sweep(leases, 100.0, 3)
        assert expired == 2
        assert [index for index, _lease in exhausted] == [3, 4]

    def test_drained_needs_a_manifest_and_every_job_settled(self):
        assert not core.drained(None, [], lambda index: True)
        assert core.drained({}, [], lambda index: False)
        assert not core.drained({}, [0, 1], lambda index: index == 0)
        assert core.drained({}, [0, 1], lambda index: True)


class TestRecords:
    def test_tombstone_reason_follows_release(self):
        lost = core.tombstone(Lease("a", 3, 0.0, 10.0))
        assert (lost["kind"], lost["reason"], lost["attempts"]) == \
            ("tombstone", "node_lost", 3)
        assert lost["error"] == "lease of node 'a' expired (attempt 3)"
        quarantined = core.tombstone(Lease("a", 3, 0.0, 10.0, True, "crash",
                                           "boom"))
        assert (quarantined["reason"], quarantined["failure_kind"],
                quarantined["error"]) == ("quarantine", "crash", "boom")

    def test_manifest_and_result_records(self):
        manifest = core.manifest_record(POLICY, 5, {"k": 1}, 2)
        assert Policy.from_manifest(manifest) == POLICY
        assert (manifest["kind"], manifest["total_jobs"]) == ("manifest", 5)
        result = core.result_record("fp", "a", 2, {"job_index": 0})
        assert (result["kind"], result["attempt"]) == ("result", 2)

    def test_existing_manifest_config_wins_and_fingerprints_must_match(self):
        existing = core.manifest_record(POLICY, 5, {"base": 1}, 2)
        assert core.publish_base(None, "fp", {"new": 1}, "q") == {"new": 1}
        assert core.publish_base(existing, POLICY.fingerprint, {"new": 1},
                                 "q") == {"base": 1}
        with pytest.raises(QueueMismatch, match="q already serves"):
            core.publish_base(existing, "0" * 64, {"new": 1}, "q")

    def test_policy_from_a_malformed_manifest_raises(self):
        with pytest.raises(ValueError):
            Policy.from_manifest({"lease_duration": "long"})


# ---------------------------------------------------------------------------
# The lease and result suites over per-node queues sharing one memory store.
# ---------------------------------------------------------------------------


class TestMemoryProtocol(LeaseProtocolSuite, ResultPublishingSuite):
    TRANSPORT = "memory"


class TestMemoryChaos(ChaosSuite):
    TRANSPORT = "memory"


# ---------------------------------------------------------------------------
# The property: random schedules against the real queue, over memory.
# ---------------------------------------------------------------------------

# Two attempts, two nodes, two jobs and coarse clock steps keep the
# interesting states (reclaims, exhaustion, stale holders) a few steps
# apart, where random search reaches them.
RULES = POLICY._replace(max_attempts=2)
NODES = ("a", "b")
JOBS = (0, 1)


def node_step(action):
    return st.tuples(st.just(action), st.sampled_from(NODES),
                     st.sampled_from(JOBS))


step = st.one_of(
    st.tuples(st.just("claim"), st.sampled_from(NODES)),
    st.tuples(st.just("claim"), st.sampled_from(NODES)),
    node_step("heartbeat"), node_step("release"), node_step("result"),
    st.tuples(st.just("advance"), st.sampled_from((3.0, 11.0))),
    st.tuples(st.just("advance"), st.sampled_from((3.0, 11.0))),
    st.tuples(st.just("sweep")),
)


class Schedule:
    """Nodes driving one :class:`WorkQueue` over a :class:`MemoryStore`.

    ``held`` is what each node *believes* it holds (the lease it was
    granted or renewed); ``offered`` the first result offered per job;
    ``attempts`` the highest attempt stored per job so far.
    """

    def __init__(self) -> None:
        self.now = 1000.0
        self.store = MemoryStore()
        self.queue = WorkQueue(self.store, clock=lambda: self.now)
        self.queue.publish_records(RULES, len(JOBS), None,
                                   [(job, {"job_index": job})
                                    for job in JOBS])
        self.held = {}
        self.offered = {}
        self.attempts = {}

    def live_owners(self, job):
        return [node for node in NODES if (node, job) in self.held
                and self.held[(node, job)].live(self.now)]

    def apply(self, op):
        leases = {job: self.queue.read_lease(job) for job in JOBS}
        stones = self.queue.collect_tombstones()
        kind = op[0]
        if kind == "advance":
            self.now += op[1]
        elif kind == "sweep":
            self.queue.sweep()
        elif kind == "claim":
            for record, lease in self.queue.claim(op[1]):
                self.held[(op[1], record["job_index"])] = lease
        else:
            self.apply_node(kind, *op[1:])
        for job, stone in self.queue.collect_tombstones().items():
            if job not in stones:
                retired = leases[job]
                assert not self.live_owners(job), \
                    "retired a job someone holds"
                assert retired.attempt >= RULES.max_attempts, \
                    "tombstone before attempts were exhausted"
                assert (stone["reason"] == "quarantine") == retired.released

    def apply_node(self, kind, node, job):
        mine = self.held.pop((node, job), None)
        if mine is None:
            return
        if kind == "heartbeat":
            if self.queue.heartbeat(job, RULES.lease_duration, node=node):
                self.held[(node, job)] = self.queue.read_lease(job)
        elif kind == "release":
            self.queue.release_for_retry(job, mine, "hang", "", node=node)
        elif kind == "result":
            record = core.result_record(RULES.fingerprint, node,
                                        mine.attempt, {"job_index": job})
            self.offered.setdefault(job, record)
            self.queue.store_result(node, job, RULES.fingerprint,
                                    mine.attempt, {"job_index": job})

    def check(self):
        for job in JOBS:
            owners = self.live_owners(job)
            assert len(owners) <= 1, f"job {job} has owners {owners}"
            lease = self.queue.read_lease(job)
            if lease is not None:
                assert lease.attempt >= self.attempts.get(job, 0), \
                    "attempts went down"
                assert lease.attempt <= RULES.max_attempts
                self.attempts[job] = lease.attempt
            result = self.store.read("result", job)
            if result is not None:
                assert result == self.offered[job], \
                    "a later result replaced the first"


@settings(max_examples=500, deadline=None)
@given(steps=st.lists(step, min_size=20, max_size=60))
# A release that arrives after the job was reclaimed elsewhere: random
# search seldom lines these steps up, so they are always tried.
@example(steps=[("claim", "a"), ("advance", 11.0), ("advance", 3.0),
                ("claim", "b"), ("release", "a", 0), ("claim", "a")])
def test_random_schedules_keep_the_protocol_invariants(steps):
    """At most one unreleased, unexpired owner per job; attempts never
    go down (nor past the budget); a tombstone only once attempts are
    exhausted, ``quarantine`` iff the lease was released; the first
    result wins."""
    schedule = Schedule()
    for op in steps:
        schedule.apply(op)
        schedule.check()
