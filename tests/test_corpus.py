"""Tests for the runtime coverage corpus (``repro.fuzz.corpus``).

Admission and distillation invariants, journal durability (same model as
the campaign checkpoint: a crash damages at most the trailing line), and
the one-release deprecation shim for the seed generators that used to
live in this module.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz.corpus import (Corpus, CorpusEntry, CorpusJournal,
                               module_fingerprint)

common_settings = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# A small feature alphabet keeps overlap (and therefore rejection and
# distillation pressure) high.
features_strategy = st.frozensets(
    st.sampled_from([f"feat{i}" for i in range(12)]), max_size=6)


def entry(index, features, text=None):
    text = text if text is not None else f"module {index}"
    return CorpusEntry(text=text, fingerprint=module_fingerprint(text),
                       features=frozenset(features), seed=index)


def build_corpus(feature_sets, max_size=64, journal=None):
    corpus = Corpus(max_size=max_size, journal=journal)
    for index, features in enumerate(feature_sets):
        corpus.consider(entry(index, features))
    return corpus


class TestAdmission:
    def test_first_entry_with_features_is_admitted(self):
        corpus = Corpus()
        fresh = corpus.consider(entry(0, {"a", "b"}))
        assert fresh == {"a", "b"}
        assert len(corpus) == 1
        assert corpus.admitted_count == 1

    def test_duplicate_coverage_is_rejected(self):
        corpus = build_corpus([{"a", "b"}])
        assert corpus.consider(entry(1, {"a"})) == frozenset()
        assert corpus.consider(entry(2, {"b", "a"})) == frozenset()
        assert len(corpus) == 1

    def test_partial_novelty_admits_and_reports_only_the_novel_part(self):
        corpus = build_corpus([{"a"}])
        assert corpus.consider(entry(1, {"a", "b"})) == {"b"}
        assert corpus.covered == {"a", "b"}

    def test_featureless_entry_is_rejected(self):
        corpus = Corpus()
        assert corpus.consider(entry(0, ())) == frozenset()
        assert len(corpus) == 0

    def test_cover_marks_features_without_admitting(self):
        corpus = Corpus()
        corpus.cover({"baseline"})
        assert corpus.consider(entry(0, {"baseline"})) == frozenset()
        assert len(corpus) == 0
        assert corpus.features_covered() == 1

    def test_lookup_by_fingerprint(self):
        corpus = build_corpus([{"a"}])
        admitted = corpus.entries()[0]
        assert admitted.fingerprint in corpus
        assert corpus.get(admitted.fingerprint) == admitted
        assert corpus.get("nope") is None

    def test_max_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Corpus(max_size=0)

    @common_settings
    @given(sets=st.lists(features_strategy, max_size=20))
    def test_admitted_entries_cover_exactly_the_union(self, sets):
        """Coverage == union of considered feature sets, always."""
        corpus = build_corpus(sets)
        union = set()
        for features in sets:
            union |= features
        assert corpus.covered == union
        covered_by_entries = set()
        for admitted in corpus.entries():
            covered_by_entries |= admitted.features
        assert covered_by_entries == union

    @common_settings
    @given(sets=st.lists(features_strategy, max_size=20))
    def test_every_admission_contributed_a_new_feature(self, sets):
        corpus = Corpus()
        seen = set()
        for index, features in enumerate(sets):
            fresh = corpus.consider(entry(index, features))
            assert fresh == features - seen or fresh == frozenset()
            if fresh:
                assert not fresh & seen
            seen |= corpus.covered
        assert corpus.admitted_count == len(corpus)


class TestDistillation:
    def test_distilled_is_a_subset_covering_the_union(self):
        corpus = build_corpus([{"a"}, {"b"}, {"a", "b", "c"}])
        distilled = corpus.distill()
        assert set(e.fingerprint for e in distilled) <= \
            set(e.fingerprint for e in corpus.entries())
        covered = set()
        for kept in distilled:
            covered |= kept.features
        assert covered == {"a", "b", "c"}

    def test_greedy_prefers_the_largest_contributor(self):
        corpus = build_corpus([{"a"}, {"b"}, {"c"}, {"a", "b", "c", "d"}])
        distilled = corpus.distill()
        assert distilled[0].features == {"a", "b", "c", "d"}
        assert len(distilled) == 1

    def test_ties_break_by_admission_order(self):
        corpus = build_corpus([{"a", "b"}, {"c", "d"}])
        distilled = corpus.distill()
        assert [e.seed for e in distilled] == [0, 1]

    def test_compact_respects_max_size_and_is_monotone(self):
        corpus = build_corpus(
            [{f"f{i}"} for i in range(5)], max_size=3)
        assert len(corpus) == 3
        assert corpus.distilled_count > 0
        # Monotone coverage: dropped witnesses stay covered, so their
        # features can never be re-admitted.
        assert corpus.features_covered() == 5
        assert corpus.consider(entry(99, {"f0"})) == frozenset()

    @common_settings
    @given(sets=st.lists(features_strategy, max_size=24),
           max_size=st.integers(1, 8))
    def test_distill_properties(self, sets, max_size):
        """distilled ⊆ admitted; cover preserved when it fits."""
        corpus = build_corpus(sets, max_size=max_size)
        assert len(corpus) <= max_size
        live = {e.fingerprint for e in corpus.entries()}
        distilled = corpus.distill()
        assert {e.fingerprint for e in distilled} <= live
        assert len({e.fingerprint for e in distilled}) == len(distilled)
        union = set()
        for features in sets:
            union |= features
        assert corpus.covered == union  # coverage is monotone

    @common_settings
    @given(sets=st.lists(features_strategy, max_size=24))
    def test_distillation_is_deterministic(self, sets):
        first = [e.fingerprint for e in build_corpus(sets).distill()]
        second = [e.fingerprint for e in build_corpus(sets).distill()]
        assert first == second


class TestJournal:
    def path(self, tmp_path):
        return str(tmp_path / "run.corpus.jsonl")

    def test_roundtrip(self, tmp_path):
        path = self.path(tmp_path)
        with CorpusJournal(path) as journal:
            corpus = build_corpus([{"a"}, {"b"}, {"a", "c"}],
                                  journal=journal)
        loaded = Corpus.load(path)
        assert [e.fingerprint for e in loaded.entries()] == \
            [e.fingerprint for e in corpus.entries()]
        assert loaded.covered == corpus.covered
        reloaded_entry = loaded.entries()[0]
        assert reloaded_entry.text == "module 0"
        assert reloaded_entry.seed == 0

    def test_fresh_journal_truncates(self, tmp_path):
        path = self.path(tmp_path)
        with CorpusJournal(path) as journal:
            build_corpus([{"a"}], journal=journal)
        with CorpusJournal(path) as journal:
            journal.start()
        assert len(Corpus.load(path)) == 0

    def test_damaged_tail_is_dropped(self, tmp_path):
        path = self.path(tmp_path)
        with CorpusJournal(path) as journal:
            build_corpus([{"a"}, {"b"}], journal=journal)
        with open(path, "a") as stream:
            stream.write('{"kind": "entry", "trunca')
        loaded = Corpus.load(path)
        assert loaded.covered == {"a", "b"}

    def test_newline_less_tail_is_dropped(self, tmp_path):
        path = self.path(tmp_path)
        with CorpusJournal(path) as journal:
            build_corpus([{"a"}], journal=journal)
        with open(path, "a") as stream:
            stream.write(json.dumps(entry(9, {"z"}).to_dict()))  # no \n
        assert Corpus.load(path).covered == {"a"}

    def test_damage_in_the_middle_is_loud(self, tmp_path):
        path = self.path(tmp_path)
        with CorpusJournal(path) as journal:
            build_corpus([{"a"}, {"b"}], journal=journal)
        with open(path) as stream:
            lines = stream.readlines()
        lines[1] = lines[1][:10] + "\n"
        with open(path, "w") as stream:
            stream.writelines(lines)
        with pytest.raises(ValueError):
            Corpus.load(path)

    def test_entry_dict_roundtrip(self):
        original = CorpusEntry(text="m", fingerprint=module_fingerprint("m"),
                               features=frozenset({"x", "y"}), seed=7,
                               source="abc123", operator="swap-operands")
        back = CorpusEntry.from_dict(json.loads(
            json.dumps(original.to_dict())))
        assert back == original


class TestSeedsMoveShim:
    def test_unknown_attribute_still_raises(self):
        # The seed generators live only in repro.fuzz.seeds.
        import repro.fuzz.corpus as corpus_module
        for name in ("generate_corpus", "no_such_name"):
            with pytest.raises(AttributeError):
                getattr(corpus_module, name)


# ---------------------------------------------------------------------------
# Bitcode journal records.
# ---------------------------------------------------------------------------

from repro.ir.parser import parse_module
from repro.ir.printer import print_module


def ir_entry(index, features):
    # Corpus text is always printed-module text in real campaigns, so
    # these entries round-trip through bitcode records exactly.
    text = print_module(parse_module(
        f"define i32 @f{index}(i32 %x) {{\n"
        f"  %r = add i32 %x, {index + 1}\n"
        f"  ret i32 %r\n}}\n"))
    return CorpusEntry(text=text, fingerprint=module_fingerprint(text),
                       features=frozenset(features), seed=index)


class TestBitcodeJournal:
    def path(self, tmp_path):
        return str(tmp_path / "run.corpus.jsonl")

    def test_bitcode_records_round_trip(self, tmp_path):
        path = self.path(tmp_path)
        with CorpusJournal(path, payload_format="bitcode") as journal:
            corpus = Corpus(max_size=8, journal=journal)
            for index, features in enumerate([{"a"}, {"b"}]):
                corpus.consider(ir_entry(index, features))
        with open(path) as stream:
            records = [json.loads(line) for line in stream]
        assert records[0]["format"] == "bitcode"  # header advertises it
        body = [r for r in records if r.get("kind") == "entry"]
        assert all(r.get("format") == "bitcode" and "text" not in r
                   for r in body)
        loaded = Corpus.load(path)
        assert [e.text for e in loaded.entries()] == \
            [e.text for e in corpus.entries()]
        assert [e.fingerprint for e in loaded.entries()] == \
            [e.fingerprint for e in corpus.entries()]

    def test_unencodable_text_falls_back_to_text_record(self, tmp_path):
        path = self.path(tmp_path)
        with CorpusJournal(path, payload_format="bitcode") as journal:
            corpus = Corpus(max_size=8, journal=journal)
            corpus.consider(entry(0, {"a"}))  # "module 0" is not IR
        loaded = Corpus.load(path)
        assert loaded.entries()[0].text == "module 0"

    def test_mixed_format_journal_loads(self, tmp_path):
        path = self.path(tmp_path)
        first, second = ir_entry(0, {"a"}), ir_entry(1, {"b"})
        with open(path, "w") as stream:
            stream.write(json.dumps(first.to_dict("text")) + "\n")
            stream.write(json.dumps(second.to_dict("bitcode")) + "\n")
        loaded = Corpus.load(path)
        assert [e.text for e in loaded.entries()] == \
            [first.text, second.text]

    def test_torn_bitcode_tail_is_dropped(self, tmp_path):
        path = self.path(tmp_path)
        with CorpusJournal(path, payload_format="bitcode") as journal:
            corpus = Corpus(max_size=8, journal=journal)
            corpus.consider(ir_entry(0, {"a"}))
        record = ir_entry(1, {"b"}).to_dict("bitcode")
        record["data"] = record["data"][:8]  # truncated base64 payload
        with open(path, "a") as stream:
            stream.write(json.dumps(record) + "\n")
        loaded = Corpus.load(path)
        assert loaded.covered == {"a"}

    def test_torn_bitcode_mid_journal_is_loud(self, tmp_path):
        path = self.path(tmp_path)
        record = ir_entry(0, {"a"}).to_dict("bitcode")
        record["data"] = record["data"][:8]
        with open(path, "w") as stream:
            stream.write(json.dumps(record) + "\n")
            stream.write(json.dumps(
                ir_entry(1, {"b"}).to_dict("bitcode")) + "\n")
        with pytest.raises(ValueError):
            Corpus.load(path)

    def test_journal_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            CorpusJournal(self.path(tmp_path), payload_format="morse")
