"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The campaign runtime is sharded across worker processes, so metrics are
collected in a per-process (in practice per-*job*) :class:`MetricsRegistry`
— a plain picklable dataclass that rides back to the supervising process
inside :class:`~repro.fuzz.parallel.ShardResult` and is folded into
``CampaignReport.metrics`` with :meth:`MetricsRegistry.merge`.

Merge semantics are **associative and commutative**, so the aggregate is
independent of worker count, scheduling order, and kill/resume cycles:

* counters add (float-valued, monotonic — stage seconds are counters);
* gauges keep their maximum (high-water marks);
* histograms add per-bucket counts (merging requires identical bucket
  boundaries).

Naming convention: metrics measuring wall-clock time have names ending in
``.seconds``.  Everything else is deterministic for a fixed campaign
configuration; :meth:`MetricsRegistry.deterministic` returns exactly that
timing-free subset, which tests use to compare runs across worker counts
and resume cycles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["DEFAULT_BUCKETS", "Histogram", "MetricsRegistry"]

# Upper bounds (seconds) for latency-style histograms; the final implicit
# bucket is +inf.  Chosen to straddle one fuzzing iteration (~1-100 ms).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)


@dataclass
class Histogram:
    """Fixed-bucket histogram: cumulative-free, merge-by-addition.

    ``buckets`` are inclusive upper bounds; ``counts`` has one extra
    trailing slot for observations above the last bound.
    """

    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        self.buckets = tuple(self.buckets)
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)
        if len(self.counts) != len(self.buckets) + 1:
            raise ValueError(
                f"histogram needs {len(self.buckets) + 1} counts, "
                f"got {len(self.counts)}"
            )

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        if self.buckets != other.buckets:
            raise ValueError(
                "cannot merge histograms with different buckets: "
                f"{self.buckets} != {other.buckets}"
            )
        for position, value in enumerate(other.counts):
            self.counts[position] += value
        self.total += other.total
        self.count += other.count
        return self

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        return cls(
            buckets=tuple(data.get("buckets", DEFAULT_BUCKETS)),
            counts=list(data.get("counts", [])),
            total=float(data.get("total", 0.0)),
            count=int(data.get("count", 0)),
        )


@dataclass
class MetricsRegistry:
    """All metrics of one process/job; picklable, JSON-able, mergeable."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name`` (creates it at 0)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the high-water-mark gauge ``name`` to at least ``value``."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Record ``value`` into the histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(tuple(buckets))
        histogram.observe(value)

    # -- reading ------------------------------------------------------------

    def counter(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def counters_with_prefix(self, prefix: str) -> Dict[str, float]:
        return {
            name: value
            for name, value in self.counters.items()
            if name.startswith(prefix)
        }

    # -- merging ------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place); returns self."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, value in other.gauges.items():
            self.gauge_max(name, value)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = Histogram(
                    buckets=histogram.buckets,
                    counts=list(histogram.counts),
                    total=histogram.total,
                    count=histogram.count,
                )
            else:
                mine.merge(histogram)
        return self

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """A fresh registry holding the merge of ``registries``."""
        result = cls()
        for registry in registries:
            result.merge(registry)
        return result

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        return cls(
            counters={
                str(k): float(v)
                for k, v in data.get("counters", {}).items()
            },
            gauges={
                str(k): float(v) for k, v in data.get("gauges", {}).items()
            },
            histograms={
                str(k): Histogram.from_dict(v)
                for k, v in data.get("histograms", {}).items()
            },
        )

    def deterministic(self) -> dict:
        """The run-invariant subset: no ``.seconds`` metrics, no gauges,
        no ``campaign.retry.*``, ``cache.*``, ``clone.*``, ``exec.*``,
        ``dist.*``, ``chaos.*``, ``gc.*``, ``opt.scan.*`` or
        ``opt.knownbits.*`` counters.

        For a fixed campaign configuration this subset is identical
        across worker counts and kill/resume cycles — what legitimately
        varies between runs is wall-clock-derived values and the
        operational retry bookkeeping (retries happen when transient
        faults do, not when the configuration says so).  Cache hit/miss
        and functions-copied counters vary with sharding and resume
        boundaries (each driver instance owns its caches and starts
        them cold), while the *findings* they feed stay identical —
        that invariance is what the deterministic subset certifies.
        ``exec.*`` covers the execution-plan cache and execution
        counters of the driver's ``TVCaches``, which likewise vary with
        sharding, resume boundaries and the ``--no-batched-exec``
        ablation without affecting verdicts.  ``dist.*``/``chaos.*``
        cover the distributed queue's protocol bookkeeping (claims,
        heartbeats, reclaims, dedups) and injected chaos — which node
        ran which job and how many leases expired is scheduling
        history, not computation, and must not break the
        kill-and-resume == uninterrupted invariant.  ``wire.*``
        / ``bitcode.*`` / ``net.*`` cover the transport tier — frames and
        bytes on the socket, blob-store and decode-cache hit rates,
        broker bookkeeping — which varies with the transport choice
        (shared dir vs socket), the payload format (text vs bitcode),
        and reconnect/retry history, while the findings the transported
        modules produce are bit-identical by the print∘parse fixpoint.
        ``gc.*`` is the cyclic collector's bookkeeping
        (:mod:`repro.obs.gcprobe`): when a collection runs depends on
        everything the process allocated before, not on the job.
        ``opt.scan.*`` / ``opt.knownbits.*`` count the work the scan
        passes did (instructions visited, known-bits lookups and memo
        hits), which follows memo warmth, not the IR produced.
        """

        def varies(name: str) -> bool:
            return (
                ".seconds" in name
                or name.startswith("campaign.retry.")
                or name.startswith("cache.")
                or name.startswith("clone.")
                or name.startswith("exec.")
                or name.startswith("dist.")
                or name.startswith("chaos.")
                or name.startswith("opt.scan.")
                or name.startswith("opt.knownbits.")
                or name.startswith("wire.")
                or name.startswith("bitcode.")
                or name.startswith("net.")
                or name.startswith("gc.")
            )

        return {
            "counters": {
                name: value
                for name, value in self.counters.items()
                if not varies(name)
            },
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
                if not varies(name)
            },
        }
