"""Span recording from outside the program.

The traced run of the ledger wraps the calls *into* each layer of
``repro`` (the targets in :data:`TARGETS`) without touching ``src/``:
module-level functions are replaced at every ``repro.*`` module that
holds a binding to them, methods are replaced on their class.  Spans
stay in memory, carry a link to the span that caused them (the
enclosing span on the same thread), and are reduced to *self time* —
a span's duration minus the part its child spans cover — when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["SIZED", "SPAN_NAMES", "Span", "SpanRecorder", "TARGETS",
           "install", "percentile", "self_times", "totals"]


class Span:
    """One timed call: name, start, end, and the causing span."""

    __slots__ = ("name", "start", "end", "parent", "size")

    def __init__(self, name: str, start: float,
                 parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.size = 0  # len() of the result, for spans in SIZED

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps every span in memory; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span around each call.

        The span bookkeeping is written out inside the wrapper: on the
        busiest targets (tens of thousands of calls per pass) two extra
        method calls per span are most of the tracing overhead.
        """
        clock, local, record = self.clock, self._local, self.spans.append
        sized = name in SIZED

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = getattr(local, "current", None)
            span = Span(name, clock(), parent)
            local.current = span
            record(span)  # list.append is atomic under the GIL
            try:
                result = function(*args, **kwargs)
                if sized:
                    span.size = len(result)
                return result
            finally:
                span.end = clock()
                local.current = parent

        return traced


def self_times(spans: Sequence[Span]) -> Dict[Span, float]:
    """Each span's duration minus the time its direct children cover.

    Children run on the parent's thread inside its interval and never
    overlap each other, so over any one tree the self times add up to
    the root's duration exactly.
    """
    result = {span: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.duration
    return result


def totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """``{name: (calls, self seconds)}`` summed over threads."""
    result: Dict[str, Tuple[int, float]] = {}
    for span, own in self_times(spans).items():
        calls, seconds = result.get(span.name, (0, 0.0))
        result[span.name] = (calls + 1, seconds + own)
    return result


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


# (span name, module, attribute).  ``Class.method`` patches the class;
# a bare name patches every ``repro.*`` module binding of the function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("ir.parse_module", "repro.ir", "parse_module"),
    ("ir.print_module", "repro.ir", "print_module"),
    ("ir.clone", "repro.ir", "Module.clone"),
    ("ir.clone", "repro.ir", "clone_functions_into"),
    ("ir.fingerprint", "repro.ir", "fingerprint_function"),
    ("ir.fingerprint", "repro.ir", "fingerprint_closure"),
    ("ir.bitcode", "repro.ir.bitcode", "write_bitcode"),
    ("ir.bitcode", "repro.ir.bitcode", "read_bitcode"),
    ("mutate.init", "repro.mutate", "Mutator.__init__"),
    ("mutate.create_mutant", "repro.mutate", "Mutator.create_mutant"),
    ("opt.run", "repro.opt", "PassManager.run"),
    ("opt.run", "repro.opt", "PassManager.run_function"),
    ("tv.check_refinement", "repro.tv", "check_refinement"),
    ("tv.generate_inputs", "repro.tv", "generate_inputs"),
    ("tv.compile_function", "repro.tv", "compile_function"),
    ("tv.compile_batch_program", "repro.tv", "compile_batch_program"),
    ("fuzz.driver.init", "repro.fuzz", "FuzzDriver.__init__"),
    ("fuzz.driver.run_one", "repro.fuzz", "FuzzDriver.run_one"),
    ("fuzz.execute_job", "repro.fuzz", "execute_job"),
    ("fuzz.campaign.execute", "repro.fuzz", "CampaignExecutor.execute"),
    ("fuzz.node.run", "repro.fuzz", "NodeRunner.run"),
    ("fuzz.checkpoint.append", "repro.fuzz", "CheckpointJournal.append"),
    ("fuzz.corpus.consider", "repro.fuzz", "Corpus.consider"),
    ("fuzz.corpus.journal_append", "repro.fuzz", "CorpusJournal.append"),
    ("fuzz.wire.encode_payload", "repro.fuzz.wire", "encode_payload"),
    ("fuzz.wire.decode_payload", "repro.fuzz.wire", "decode_payload"),
    ("fuzz.queue.publish", "repro.fuzz", "SocketQueue.publish"),
    ("fuzz.queue.claim_next", "repro.fuzz", "SocketQueue.claim_next"),
    ("fuzz.queue.publish_result", "repro.fuzz", "SocketQueue.publish_result"),
    ("fuzz.queue.collect_results", "repro.fuzz",
     "SocketQueue.collect_results"),
    ("fuzz.queue.heartbeat", "repro.fuzz", "SocketQueue.heartbeat"),
)

# Spans that also record how many items their call returned.
SIZED = frozenset({"fuzz.queue.collect_results"})

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))


def _bindings(module_name: str, attribute: str) -> List[Tuple[object, str]]:
    """Every ``(owner, name)`` that currently resolves to the target.

    A name the package no longer has raises ``AttributeError``: a
    renamed layer entry must fail the traced run, not drop its span.
    """
    module = importlib.import_module(module_name)
    owner_name, _, method = attribute.partition(".")
    if method:
        cls = getattr(module, owner_name)
        cls.__dict__[method]  # KeyError if the class stops defining it
        return [(cls, method)]
    target = getattr(module, attribute)
    return [(holder, name)
            for holder_name, holder in list(sys.modules.items())
            if holder is not None and (holder_name == "repro"
                                       or holder_name.startswith("repro."))
            for name, value in list(vars(holder).items())
            if value is target]


def install(recorder: SpanRecorder,
            targets: Sequence[Tuple[str, str, str]] = TARGETS
            ) -> Callable[[], None]:
    """Wrap every target; returns the function that undoes it all."""
    patched: List[Tuple[object, str, object]] = []
    for span_name, module_name, attribute in targets:
        bindings = _bindings(module_name, attribute)
        original = vars(bindings[0][0])[bindings[0][1]]
        traced = recorder.wrap(span_name, original)
        for owner, name in bindings:
            setattr(owner, name, traced)
            patched.append((owner, name, original))

    def uninstall() -> None:
        while patched:
            owner, name, original = patched.pop()
            setattr(owner, name, original)

    return uninstall
