"""repro.obs — zero-dependency observability for the fuzzing runtime.

Per-stage metrics (:mod:`repro.obs.metrics`), the collector's cost as
metrics (:mod:`repro.obs.gcprobe`), sampled span tracing
(:mod:`repro.obs.trace`), periodic throughput snapshots
(:mod:`repro.obs.snapshots`), and normalized benchmark summaries
(:mod:`repro.obs.summary`).  Everything here is stdlib-only and safe to
import from the hot path: the disabled tracer and an untouched registry
cost one attribute check or one dict operation per event.

See README "Observability" for the CLI flags and JSONL schemas, and
DESIGN for how the spans map onto the paper's §V timing breakdown.
"""

from .gcprobe import GcProbe
from .metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from .snapshots import (
    JsonlSnapshotSink,
    ProgressReporter,
    ThroughputSnapshot,
    stderr_sink,
)
from .summary import (
    BENCH_SCHEMA_VERSION,
    campaign_summary,
    load_summary,
    throughput_summary,
    write_campaign_summary,
    write_summary,
)
from .trace import (
    NULL_TRACER,
    JsonlTraceSink,
    ListTraceSink,
    Tracer,
    tracer_for_path,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "GcProbe",
    "Histogram",
    "MetricsRegistry",
    "JsonlSnapshotSink",
    "ProgressReporter",
    "ThroughputSnapshot",
    "stderr_sink",
    "BENCH_SCHEMA_VERSION",
    "campaign_summary",
    "load_summary",
    "throughput_summary",
    "write_campaign_summary",
    "write_summary",
    "NULL_TRACER",
    "JsonlTraceSink",
    "ListTraceSink",
    "Tracer",
    "tracer_for_path",
]
