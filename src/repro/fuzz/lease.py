"""The lease state machine both queue transports share.

A distributed campaign's queue decides who may take a job, whether a
heartbeat still renews, what a release records, when silence becomes a
tombstone, when the queue is drained, and what every stored record
looks like.  Each rule is written here once, as a pure function: no
I/O, no lock, and no clock of its own (``now`` is always an argument).
:class:`~repro.fuzz.dist.WorkQueue` applies the decisions over a record
store — a shared directory, or the socket broker's journaled memory —
and every rule is testable under a fake clock without a queue at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from .parallel import KIND_NODE_LOST, retry_delay

#: The ``kind`` of each stored record.
KIND_CORPUS = "corpus"
KIND_JOB = "job"
KIND_LEASE = "lease"
KIND_MANIFEST = "manifest"
KIND_RESULT = "result"
KIND_TOMBSTONE = "tombstone"

#: Tombstone reasons.
REASON_NODE_LOST = KIND_NODE_LOST
REASON_QUARANTINE = "quarantine"

#: Claim outcomes: a new lease (``FRESH`` attempt 1, ``RECLAIM``
#: attempt + 1), no lease (``LIVE``: someone holds it; ``BACKOFF``:
#: expired, but the retry delay has not passed), or ``RETIRE``: the
#: attempts are exhausted and the job gets a tombstone.
FRESH = "fresh"
RECLAIM = "reclaim"
LIVE = "live"
BACKOFF = "backoff"
RETIRE = "retire"


class QueueError(RuntimeError):
    """The work queue cannot be used (I/O or format problem)."""


class QueueMismatch(QueueError):
    """The queue belongs to a different campaign.

    Raised when a manifest's fingerprint disagrees with the campaign
    about to be published or joined: mixing two campaigns in one queue
    would merge findings across configurations.
    """


@dataclass
class Lease:
    """One job's lease: who holds it, which attempt, until when."""

    node: str
    attempt: int
    claimed_at: float
    expires_at: float
    # A node that watched its own job hang/crash *releases* the lease
    # (expiry now, failure recorded) instead of silently vanishing, so
    # the reclaim path can tell a retryable failure from node loss.
    released: bool = False
    failure_kind: str = ""
    error: str = ""

    def live(self, now: float) -> bool:
        """True while the holder may still be running the job."""
        return not self.released and self.expires_at > now

    def to_dict(self) -> dict:
        # Every field is a scalar: no deep copy (``asdict``) is needed.
        return {"kind": KIND_LEASE, **vars(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Lease":
        return cls(
            node=data["node"],
            attempt=int(data["attempt"]),
            claimed_at=float(data["claimed_at"]),
            expires_at=float(data["expires_at"]),
            released=bool(data.get("released", False)),
            failure_kind=data.get("failure_kind", ""),
            error=data.get("error", ""),
        )


class Policy(NamedTuple):
    """The lease rules a campaign's manifest fixes."""

    lease_duration: float = 30.0
    max_attempts: int = 3
    retry_backoff: float = 0.25
    retry_jitter: float = 0.0
    fingerprint: str = ""

    @classmethod
    def from_manifest(cls, manifest: dict) -> "Policy":
        """Read (and type-check) the rules from a manifest or publish
        request; a malformed field raises ``TypeError``/``ValueError``."""
        return cls(
            lease_duration=float(manifest.get("lease_duration", 30.0)),
            max_attempts=int(manifest.get("max_attempts", 3)),
            retry_backoff=float(manifest.get("retry_backoff", 0.25)),
            retry_jitter=float(manifest.get("retry_jitter", 0.0)),
            fingerprint=str(manifest.get("fingerprint", "")),
        )


class Claim(NamedTuple):
    """A claim decision: the outcome, and the lease it concerns (the new
    lease for ``FRESH``/``RECLAIM``, the exhausted one for ``RETIRE``)."""

    outcome: str
    lease: Optional[Lease] = None


def claim(
    previous: Optional[Lease], now: float, policy: Policy, job_index: int, node: str
) -> Claim:
    """Whether ``node`` may take an unsettled job whose lease is ``previous``.

    No lease is a fresh claim.  A live lease is refused.  An expired or
    released lease is retired once its attempt used the last one the
    policy allows; otherwise it is reclaimed with the attempt bumped,
    after the exponential retry backoff (plus the campaign's seeded
    jitter) has passed since it expired.
    """
    if previous is None:
        return Claim(FRESH, Lease(node, 1, now, now + policy.lease_duration))
    if previous.live(now):
        return Claim(LIVE)
    if previous.attempt >= policy.max_attempts:
        return Claim(RETIRE, previous)
    backoff = retry_delay(
        policy.retry_backoff,
        previous.attempt,
        policy.retry_jitter,
        policy.fingerprint,
        job_index,
    )
    if now < previous.expires_at + backoff:
        return Claim(BACKOFF)
    attempt = previous.attempt + 1
    return Claim(RECLAIM, Lease(node, attempt, now, now + policy.lease_duration))


def renew(
    current: Optional[Lease], node: str, now: float, duration: float
) -> Optional[Lease]:
    """The heartbeat: ``current`` extended by ``duration``, or None when
    it is not ``node``'s to renew (reclaimed elsewhere, or released)."""
    if current is None or current.node != node or current.released:
        return None
    return replace(current, expires_at=now + duration)


def release(
    current: Optional[Lease],
    node: str,
    claimed_at: float,
    now: float,
    failure_kind: str,
    error: str,
) -> Optional[Lease]:
    """Give a hung/crashed job back: ``current`` expired now, failure
    recorded — or None when ``current`` is no longer the lease ``node``
    claimed at ``claimed_at``.

    A node whose job hung past its lease releases *after* someone else
    reclaimed the job; writing its stale lease back would hand the new
    owner's job to a third node and move the attempt count backwards.
    """
    if current is None or (current.node, current.claimed_at) != (node, claimed_at):
        return None
    return replace(
        current, expires_at=now, released=True, failure_kind=failure_kind, error=error
    )


def sweep(
    leases: Iterable[Tuple[int, Optional[Lease]]], now: float, max_attempts: int
) -> Tuple[int, List[Tuple[int, Lease]]]:
    """Judge the leases of unsettled jobs for the coordinator's sweep.

    Returns how many had silently expired (not released) and the
    ``(index, lease)`` pairs whose attempts are exhausted — the jobs to
    tombstone, which nodes would otherwise never stop reclaiming.
    """
    expired = 0
    exhausted: List[Tuple[int, Lease]] = []
    for index, lease in leases:
        if lease is None or lease.live(now):
            continue
        if not lease.released:
            expired += 1
        if lease.attempt >= max_attempts:
            exhausted.append((index, lease))
    return expired, exhausted


def drained(
    manifest: Optional[dict], published: Iterable[int], settled: Callable[[int], bool]
) -> bool:
    """True once a campaign is published and every published job has a
    result or a tombstone — including a campaign with no open jobs."""
    return manifest is not None and all(settled(index) for index in published)


def publish_base(
    existing: Optional[dict], fingerprint: str, proposed: Optional[dict], where: str
) -> Optional[dict]:
    """The shared config a publish diffs its job records against.

    One queue serves one campaign: an ``existing`` manifest with another
    fingerprint raises :class:`QueueMismatch`.  Once a manifest exists
    its shared config stays authoritative (a resume's re-publish may
    cover a different job subset, and the records already stored diff
    against the original base); a fresh campaign takes ``proposed``.
    """
    if existing is not None and existing.get("fingerprint") != fingerprint:
        served = str(existing.get("fingerprint", "?"))[:12]
        raise QueueMismatch(
            f"{where} already serves campaign {served}, not {fingerprint[:12]}; "
            "one queue serves one campaign"
        )
    if existing is not None and existing.get("shared_config") is not None:
        return existing["shared_config"]
    return proposed


def manifest_record(
    policy: Policy, total_jobs: int, shared_config: Optional[dict], version: int
) -> dict:
    """The campaign manifest: fingerprint, lease policy, config base."""
    return {
        "kind": KIND_MANIFEST,
        "version": version,
        "fingerprint": policy.fingerprint,
        "total_jobs": total_jobs,
        "lease_duration": policy.lease_duration,
        "max_attempts": policy.max_attempts,
        "retry_backoff": policy.retry_backoff,
        "retry_jitter": policy.retry_jitter,
        "shared_config": shared_config,
    }


def tombstone(lease: Lease) -> dict:
    """The record retiring a job whose attempts ran out under ``lease``.

    A released lease retires as ``quarantine`` (the node watched the job
    hang or crash and said so); a silently expired one as ``node_lost``
    (the node vanished mid-lease).
    """
    reason = REASON_QUARANTINE if lease.released else REASON_NODE_LOST
    error = lease.error or (
        f"lease of node {lease.node!r} expired (attempt {lease.attempt})"
    )
    return {
        "kind": KIND_TOMBSTONE,
        "reason": reason,
        "attempts": lease.attempt,
        "node": lease.node,
        "failure_kind": lease.failure_kind or reason,
        "error": error,
    }


def result_record(fingerprint: str, node: str, attempt: int, result: dict) -> dict:
    """The stored result of one job attempt (``result`` is the
    :func:`~repro.fuzz.checkpoint.result_to_dict` form); the first one
    stored for a job wins."""
    return {
        "kind": KIND_RESULT,
        "fingerprint": fingerprint,
        "node": node,
        "attempt": attempt,
        "result": result,
    }
