"""What the cyclic collector costs a run, as metrics.

CPython's collector walks every tracked container object of the
generations it collects, so its cost follows the number of long-lived
objects, not the garbage it finds — a cache that parks a million closure
cells taxes every full collection whether or not anything is freed.
:class:`GcProbe` makes that tax visible without a profiler: while
installed it counts collections and the seconds spent in them, per
generation, into ``gc.collections.gen{0,1,2}`` and
``gc.seconds.gen{0,1,2}``.  It only observes; it never tunes the
collector.
"""

from __future__ import annotations

import gc
import time
from typing import Dict

from .metrics import MetricsRegistry

__all__ = ["GcProbe"]

_GENERATIONS = (0, 1, 2)


class GcProbe:
    """A ``gc.callbacks`` hook that is installed for a ``with`` block.

    Collections are process-wide: one triggered by another thread while
    the probe is installed is counted too, and two probes installed at
    once each count every collection.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._metrics = metrics
        self._collections = [f"gc.collections.gen{g}" for g in _GENERATIONS]
        self._seconds = [f"gc.seconds.gen{g}" for g in _GENERATIONS]
        self._began = 0.0

    def __enter__(self) -> "GcProbe":
        gc.callbacks.append(self._on_collection)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_collection)

    def _on_collection(self, phase: str, info: Dict[str, int]) -> None:
        # Runs inside the collector, twice per collection: no allocation
        # of containers, no calls beyond the clock.
        if phase == "start":
            self._began = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._began
        generation = info["generation"]
        counters = self._metrics.counters
        name = self._collections[generation]
        counters[name] = counters.get(name, 0.0) + 1.0
        name = self._seconds[generation]
        counters[name] = counters.get(name, 0.0) + elapsed
