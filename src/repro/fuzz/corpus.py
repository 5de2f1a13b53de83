"""The runtime corpus: coverage-selected mutants as mutation sources.

A feedback-guided campaign keeps the mutants that reached *new* optimizer
behavior — rewrite rules fired, pass branches taken, seeded-bug paths hit
(see :mod:`repro.fuzz.feedback`) — and mutates from them alongside the
original seed, hypofuzz-style.  This module owns that corpus:

* :class:`CorpusEntry` — one admitted mutant: printed module text, a
  stable fingerprint, and the covered-feature set it contributed to;
* :class:`Corpus` — admission (a candidate enters iff it covers a
  feature nothing before it covered), greedy distillation down to a
  minimal covering subset when the corpus outgrows ``max_size``, and
  deterministic iteration order for the scheduler's arm registry;
* :class:`CorpusJournal` — an append-only fsync'd JSONL journal of
  admitted entries (the durability model of
  :mod:`repro.fuzz.checkpoint`: a crash mid-append damages at most the
  final line, which :meth:`Corpus.load` drops), so a campaign's corpus
  survives the process and can seed later sessions.

Determinism contract: admission, distillation, and iteration order are
pure functions of the candidate sequence — no wall clock, no ambient
RNG — so a re-run job rebuilds the identical corpus and the campaign's
``deterministic()`` metrics stay bit-identical across kill/resume.

The *seed generators* (the synthetic LLVM-style unit-test corpus) live in
:mod:`repro.fuzz.seeds`.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from ..ir.bitcode import BitcodeError, read_bitcode, write_bitcode
from ..ir.parser import ParseError, parse_module
from ..ir.printer import print_module

__all__ = ["Corpus", "CorpusEntry", "CorpusJournal", "merge_journals",
           "module_fingerprint"]

CORPUS_JOURNAL_VERSION = 1


def module_fingerprint(text: str) -> str:
    """A stable identity for one module's printed text."""
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class CorpusEntry:
    """One admitted mutant (immutable; picklable; JSON-able).

    ``features`` is the full feature set the mutant exercised, not just
    the novel part — distillation needs the whole set to compute minimal
    covers.  ``seed``/``source``/``operator`` record provenance: the
    mutation seed that created it, the source it was mutated from
    (``"seed"`` or a corpus fingerprint), and the mutation class.
    """

    text: str
    fingerprint: str
    features: FrozenSet[str]
    seed: int = -1
    source: str = "seed"
    operator: str = ""

    def to_dict(self, payload_format: str = "text") -> dict:
        """The journal record; ``payload_format="bitcode"`` stores the
        module as base64 bitcode instead of printed text.

        Corpus text is always printed-module text, and print∘parse is a
        fixpoint, so the bitcode record reconstructs the identical text
        on read — the entry fingerprint (a text hash) carries over
        unchanged.  A module outside the bitcode-encodable subset falls
        back to a text record; readers handle both (see
        :meth:`from_dict`), so journals may mix formats freely.
        """
        record = {
            "kind": "entry",
            "fingerprint": self.fingerprint,
            "features": sorted(self.features),
            "seed": self.seed,
            "source": self.source,
            "operator": self.operator,
        }
        if payload_format == "bitcode":
            try:
                data = write_bitcode(parse_module(self.text))
            except (ParseError, BitcodeError):
                pass
            else:
                record["format"] = "bitcode"
                record["data"] = base64.b64encode(data).decode("ascii")
                return record
        record["text"] = self.text
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        """Rebuild an entry from a text *or* bitcode journal record.

        Mixed journals are the norm once a campaign upgrades formats:
        old text records keep loading, bitcode records decode through
        ``read_bitcode`` + ``print_module``.  Raises ``KeyError`` when
        neither payload is present and ``ValueError`` on undecodable
        bitcode (both are treated as damage by :meth:`Corpus.load`).
        """
        if "text" in data:
            text = data["text"]
        elif data.get("format") == "bitcode":
            try:
                raw = base64.b64decode(data["data"], validate=True)
                text = print_module(read_bitcode(raw))
            except (KeyError, TypeError, ValueError, BitcodeError) as exc:
                raise ValueError(f"undecodable bitcode entry: {exc}")
        else:
            raise KeyError("text")
        return cls(text=text,
                   fingerprint=data["fingerprint"],
                   features=frozenset(data.get("features", ())),
                   seed=int(data.get("seed", -1)),
                   source=data.get("source", "seed"),
                   operator=data.get("operator", ""))


class CorpusJournal:
    """Durable JSONL journal of admitted corpus entries.

    Same durability model as the campaign checkpoint journal: one JSON
    object per line, flushed + fsync'd before :meth:`append` returns, so
    a crash damages at most the trailing line.  The journal is
    write-through persistence — a fresh run truncates it (jobs are
    atomic; a killed job re-runs from scratch and rebuilds the identical
    corpus), and :meth:`Corpus.load` rehydrates it for later sessions.
    """

    def __init__(self, path: str, payload_format: str = "text") -> None:
        if payload_format not in ("text", "bitcode"):
            raise ValueError(f"payload_format must be 'text' or "
                             f"'bitcode', got {payload_format!r}")
        self.path = path
        self.payload_format = payload_format
        self._stream = None

    def start(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._stream = open(self.path, "w")
        self._write_line(json.dumps(
            {"kind": "header", "version": CORPUS_JOURNAL_VERSION,
             "format": self.payload_format},
            sort_keys=True))

    def append(self, entry: CorpusEntry) -> None:
        if self._stream is None:
            self.start()
        self._write_line(json.dumps(entry.to_dict(self.payload_format),
                                    sort_keys=True))

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def _write_line(self, line: str) -> None:
        self._stream.write(line + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def __enter__(self) -> "CorpusJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class Corpus:
    """Coverage-keyed mutant store with admission and distillation.

    ``max_size`` bounds the entry count: when an admission pushes past
    it the corpus is distilled to a greedy minimal covering subset
    (largest marginal contribution first, admission order breaking
    ties), and — if even the distilled cover is too large — truncated to
    the first ``max_size`` cover members, dropping the least-contributing
    tail.  Admission and distillation are deterministic in the candidate
    sequence alone.
    """

    def __init__(self, max_size: int = 64,
                 journal: Optional[CorpusJournal] = None) -> None:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.max_size = max_size
        self.journal = journal
        self.covered: Set[str] = set()
        self.admitted_count = 0
        self.distilled_count = 0
        self._entries: Dict[str, CorpusEntry] = {}  # fingerprint -> entry

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def entries(self) -> List[CorpusEntry]:
        """Entries in deterministic (admission, then distillation) order."""
        return list(self._entries.values())

    def get(self, fingerprint: str) -> Optional[CorpusEntry]:
        return self._entries.get(fingerprint)

    def features_covered(self) -> int:
        return len(self.covered)

    # -- admission ----------------------------------------------------------

    def new_features(self, features: Iterable[str]) -> FrozenSet[str]:
        """The subset of ``features`` nothing in coverage has reached."""
        return frozenset(features) - self.covered

    def cover(self, features: Iterable[str]) -> None:
        """Mark features as seen without admitting an entry.

        The driver uses this for the seed module's own baseline behavior
        (already a mutation source, so not corpus material) and for
        crash-path features where no admissible mutant text exists.
        """
        self.covered.update(features)

    def consider(self, entry: CorpusEntry) -> FrozenSet[str]:
        """Admit ``entry`` iff it covers new features; return the novel set.

        Returns the (possibly empty) set of features that were new; the
        entry was admitted iff that set is non-empty.  Admission journals
        the entry durably (when a journal is attached) and may trigger
        distillation.
        """
        fresh = self.new_features(entry.features)
        if not fresh or entry.fingerprint in self._entries:
            return frozenset()
        self.covered.update(entry.features)
        self._entries[entry.fingerprint] = entry
        self.admitted_count += 1
        if self.journal is not None:
            self.journal.append(entry)
        if len(self._entries) > self.max_size:
            self.compact()
        return fresh

    # -- distillation (hypofuzz-style minimal covering set) -----------------

    def distill(self) -> List[CorpusEntry]:
        """A greedy minimal covering subset of the current entries.

        Classic greedy set cover over the union of entry features:
        repeatedly take the entry covering the most still-uncovered
        features, breaking ties by admission order.  The result is a
        subset of the live entries and covers exactly their feature
        union (coverage recorded via :meth:`cover` has no entry to keep
        and never forces one).
        """
        remaining: Set[str] = set()
        for entry in self._entries.values():
            remaining |= entry.features
        chosen: List[CorpusEntry] = []
        pool = list(self._entries.values())
        while remaining:
            best = None
            best_gain = 0
            for entry in pool:
                gain = len(entry.features & remaining)
                if gain > best_gain:
                    best, best_gain = entry, gain
            if best is None:
                break
            chosen.append(best)
            remaining -= best.features
            pool.remove(best)
        return chosen

    def compact(self) -> int:
        """Distill in place; returns how many entries were dropped.

        Keeps at most ``max_size`` entries: the greedy cover, truncated
        (in cover order, so the least-contributing members go first)
        when the cover itself is too large.  ``covered`` is monotone —
        features stay covered even when their last witness is dropped,
        so admission never re-admits behavior the campaign already saw.
        """
        before = len(self._entries)
        kept = self.distill()[: self.max_size]
        self._entries = {entry.fingerprint: entry for entry in kept}
        dropped = before - len(self._entries)
        if dropped:
            self.distilled_count += dropped
        return dropped

    # -- persistence --------------------------------------------------------

    @classmethod
    def load(cls, path: str, max_size: int = 64,
             journal: Optional[CorpusJournal] = None) -> "Corpus":
        """Rehydrate a corpus from a journal written by :class:`CorpusJournal`.

        Tolerates the single crash failure mode — a damaged or
        newline-less trailing line — by dropping it; damage anywhere
        else raises ``ValueError`` (real corruption should be loud).
        """
        corpus = cls(max_size=max_size, journal=journal)
        with open(path, "rb") as stream:
            raw = stream.read()
        pieces = raw.splitlines(keepends=True)
        for position, piece in enumerate(pieces):
            last = position == len(pieces) - 1
            stripped = piece.strip()
            if not stripped:
                continue
            try:
                data = json.loads(stripped.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                if last:
                    break  # crash mid-append: drop the damaged tail
                raise ValueError(f"{path}: damaged journal line "
                                 f"{position + 1}")
            if not piece.endswith(b"\n") and last:
                break  # complete-looking JSON but the newline never landed
            if not isinstance(data, dict) or data.get("kind") != "entry":
                continue  # header or foreign record
            try:
                corpus.consider(CorpusEntry.from_dict(data))
            except (KeyError, ValueError):
                if last:
                    break
                raise ValueError(f"{path}: malformed entry at line "
                                 f"{position + 1}")
        return corpus


def merge_journals(paths: Iterable[str], out_path: str,
                   max_size: int = 4096) -> int:
    """Merge several corpus journals into one, in the order given.

    The cross-job (and cross-node) corpus merge: entries from each
    journal are re-admitted under the usual admit-iff-new-features rule
    into one corpus backed by a fresh journal at ``out_path``, so the
    merged journal is itself loadable and can seed the next campaign.
    Order matters for which duplicate witness survives — callers pass
    paths in job-index order so the merge is deterministic regardless
    of which node produced which delta.  Unreadable or damaged-beyond-
    the-tail journals are skipped (a torn delta loses only its own
    entries).  Returns the merged corpus size.
    """
    journal = CorpusJournal(out_path)
    merged = Corpus(max_size=max_size, journal=journal)
    try:
        for path in paths:
            try:
                delta = Corpus.load(path, max_size=max_size)
            except (OSError, ValueError):
                continue
            for entry in delta.entries():
                merged.consider(entry)
    finally:
        journal.close()
    return len(merged)
