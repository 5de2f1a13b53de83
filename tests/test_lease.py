"""The lease state machine on its own: no queue, no I/O, a fake clock.

Example tests pin each rule of :mod:`repro.fuzz.lease`; the hypothesis
property drives the rules the way both transports do, over random
claim / heartbeat / release / advance / sweep / result sequences, and
checks the protocol's safety invariants after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fuzz import lease as core
from repro.fuzz.lease import Lease, Policy, QueueMismatch

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
# The property: random schedules against the rules, as a transport runs
# them.
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
    node_step("claim"), node_step("claim"), node_step("heartbeat"),
    node_step("release"), node_step("result"),
    st.tuples(st.just("advance"), st.sampled_from((3.0, 11.0))),
    st.tuples(st.just("advance"), st.sampled_from((3.0, 11.0))),
    st.tuples(st.just("sweep")),
)


class Queue:
    """The smallest transport: one dict per record kind, the core's
    decisions applied as the broker applies them.  ``held`` is what each
    node *believes* it holds (the lease it was granted or renewed)."""

    def __init__(self) -> None:
        self.now = 1000.0
        self.leases = {}
        self.results = {}
        self.stones = {}
        self.held = {}
        self.offered = {}

    def settled(self, job):
        return job in self.results or job in self.stones

    def store(self, job, lease):
        previous = self.leases.get(job)
        assert previous is None or lease.attempt >= previous.attempt, \
            "attempts went down"
        assert lease.attempt <= RULES.max_attempts
        self.leases[job] = lease

    def live_owners(self, job):
        return [node for node in NODES if (node, job) in self.held
                and self.held[(node, job)].live(self.now)]

    def retire(self, job, lease):
        assert not self.live_owners(job), "retired a job someone holds"
        assert lease.attempt >= RULES.max_attempts, \
            "tombstone before attempts were exhausted"
        stone = self.stones.setdefault(job, core.tombstone(lease))
        assert (stone["reason"] == "quarantine") == lease.released

    def apply(self, op):
        kind = op[0]
        if kind == "advance":
            self.now += op[1]
        elif kind == "sweep":
            _expired, exhausted = core.sweep(
                ((job, self.leases.get(job)) for job in JOBS
                 if not self.settled(job)),
                self.now, RULES.max_attempts)
            for job, lease in exhausted:
                self.retire(job, lease)
        else:
            self.apply_node(kind, *op[1:])

    def apply_node(self, kind, node, job):
        mine = self.held.get((node, job))
        if kind == "claim":
            if self.settled(job):
                return
            decision = core.claim(self.leases.get(job), self.now, RULES,
                                  job, node)
            if decision.outcome == core.RETIRE:
                self.retire(job, decision.lease)
            elif decision.lease is not None:
                self.store(job, decision.lease)
                self.held[(node, job)] = decision.lease
        elif kind == "heartbeat" and mine is not None:
            renewed = core.renew(self.leases.get(job), node, self.now,
                                 RULES.lease_duration)
            if renewed is None:
                del self.held[(node, job)]
            else:
                self.store(job, renewed)
                self.held[(node, job)] = renewed
        elif kind == "release" and mine is not None:
            del self.held[(node, job)]
            released = core.release(self.leases.get(job), node,
                                    mine.claimed_at, self.now, "hang", "")
            if released is not None:
                self.store(job, released)
        elif kind == "result" and mine is not None:
            del self.held[(node, job)]
            record = core.result_record(RULES.fingerprint, node,
                                        mine.attempt, {"job_index": job})
            self.offered.setdefault(job, record)
            if job not in self.results:
                self.results[job] = record
                self.leases.pop(job, None)

    def check(self):
        for job in JOBS:
            owners = self.live_owners(job)
            assert len(owners) <= 1, f"job {job} has owners {owners}"
            if job in self.results:
                assert self.results[job] is self.offered[job], \
                    "a later result replaced the first"


@settings(max_examples=500, deadline=None)
@given(steps=st.lists(step, min_size=20, max_size=60))
# A release that arrives after the job was reclaimed elsewhere: random
# search seldom lines these steps up, so they are always tried.
@example(steps=[("claim", "a", 0), ("advance", 11.0), ("advance", 3.0),
                ("claim", "b", 0), ("release", "a", 0), ("claim", "a", 0)])
def test_random_schedules_keep_the_protocol_invariants(steps):
    """At most one unreleased, unexpired owner per job; attempts never
    go down (nor past the budget); a tombstone only once attempts are
    exhausted, ``quarantine`` iff the lease was released; the first
    result wins."""
    queue = Queue()
    for op in steps:
        queue.apply(op)
        queue.check()
