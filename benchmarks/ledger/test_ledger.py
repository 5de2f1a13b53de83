"""Tests for the ledger's own instruments (not collected by tier-1).

Run with ``python -m pytest benchmarks/ledger``.
"""

import json
import os
import threading

import pytest

import run as ledger  # first: puts src/ on sys.path
import blocks
import compare
import layers
import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _recorder():
    clock = FakeClock()
    return spans.SpanRecorder(clock=clock), clock


# -- span self-time arithmetic ----------------------------------------------


def test_nested_spans_subtract_children():
    recorder, clock = _recorder()
    inner = recorder.wrap("inner", lambda: clock.advance(3.0))

    def outer_body():
        clock.advance(1.0)
        inner()
        clock.advance(2.0)

    recorder.wrap("outer", outer_body)()
    assert spans.totals(recorder.spans) == {"outer": (1, 3.0),
                                            "inner": (1, 3.0)}
    (root,) = [s for s in recorder.spans if s.parent is None]
    assert root.name == "outer" and root.duration == 6.0


def test_sibling_spans_share_a_parent():
    recorder, clock = _recorder()
    child = recorder.wrap("child", lambda seconds: clock.advance(seconds))

    def parent_body():
        child(1.0)
        clock.advance(0.5)
        child(2.0)

    recorder.wrap("parent", parent_body)()
    assert spans.totals(recorder.spans) == {"parent": (1, 0.5),
                                            "child": (2, 3.0)}
    assert all(s.parent.name == "parent"
               for s in recorder.spans if s.name == "child")


def test_recursive_spans_keep_the_total():
    recorder, clock = _recorder()
    holder = {}

    def body(depth):
        clock.advance(1.0)
        if depth:
            holder["f"](depth - 1)

    holder["f"] = recorder.wrap("rec", body)
    holder["f"](3)
    calls, own = spans.totals(recorder.spans)["rec"]
    assert (calls, own) == (4, 4.0)
    own_times = spans.self_times(recorder.spans)
    assert sorted(own_times.values()) == [1.0, 1.0, 1.0, 1.0]


def test_spans_on_other_threads_are_their_own_roots():
    recorder, clock = _recorder()
    worker_span = recorder.wrap("worker", lambda: clock.advance(5.0))

    def main_body():
        thread = threading.Thread(target=worker_span)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        clock.advance(1.0)

    recorder.wrap("main", main_body)()
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["worker"].parent is None and by_name["main"].parent is None
    # The main span lasted 6 s and none of it is subtracted: the worker
    # is not its child, so per-thread trees each add up on their own.
    assert spans.totals(recorder.spans) == {"main": (1, 6.0),
                                            "worker": (1, 5.0)}


def test_a_raising_call_still_closes_its_span():
    recorder, clock = _recorder()

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    recorder.wrap("after", lambda: clock.advance(1.0))()
    assert [s.parent for s in recorder.spans] == [None, None]
    assert recorder.spans[0].duration == 1.0


def test_sized_spans_record_result_length():
    recorder, _clock = _recorder()
    (name,) = spans.SIZED
    recorder.wrap(name, lambda: {1: "a", 2: "b"})()
    assert recorder.spans[0].size == 2


def test_percentile_is_nearest_rank():
    assert spans.percentile([], 0.5) == 0.0
    assert spans.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert spans.percentile(list(range(100)), 0.99) == 99


# -- wrapper install / uninstall --------------------------------------------


def test_install_wraps_every_binding_and_uninstall_restores_it():
    before = {}
    for _span, module_name, attribute in spans.TARGETS:
        for owner, name in spans._bindings(module_name, attribute):
            before[(id(owner), name)] = (owner, vars(owner)[name])
    assert before
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        for (_owner_id, name), (owner, original) in before.items():
            wrapped = vars(owner)[name]
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    finally:
        uninstall()
    for (_owner_id, name), (owner, original) in before.items():
        assert vars(owner)[name] is original


def test_function_targets_are_patched_where_they_were_imported():
    import repro.fuzz.parallel as parallel
    import repro.ir as ir
    original = ir.parse_module
    assert parallel.parse_module is original
    uninstall = spans.install(spans.SpanRecorder(),
                              [("ir.parse_module", "repro.ir",
                                "parse_module")])
    try:
        assert parallel.parse_module is ir.parse_module is not original
    finally:
        uninstall()
    assert parallel.parse_module is ir.parse_module is original


def test_installed_spans_see_real_calls():
    import repro.ir as ir
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        text = blocks.block_corpus(1, 0)[0][1]
        ir.print_module(ir.parse_module(text))
    finally:
        uninstall()
    assert [s.name for s in recorder.spans] == ["ir.parse_module",
                                                "ir.print_module"]


@pytest.mark.parametrize("target", [
    ("x", "repro.ir", "no_such_function"),
    ("x", "repro.ir", "Module.no_such_method"),
    ("x", "repro.no_such_module", "f"),
])
def test_a_missing_target_fails_loudly(target):
    with pytest.raises((AttributeError, KeyError, ImportError)):
        spans.install(spans.SpanRecorder(), [target])


# -- the block-workload generator -------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_block_modules_are_verifier_clean(seed):
    from repro.ir import parse_module, verify_module
    corpus = blocks.block_corpus(8, seed)
    assert len({text for _name, text in corpus}) == 8
    for name, text in corpus:
        module = parse_module(text, name)
        verify_module(module)
        (function,) = module.definitions()
        assert len(function.blocks) == 42  # entry + 40 + out
    assert corpus == blocks.block_corpus(8, seed)


def test_block_widths_do_not_depend_on_the_seed():
    def widths(seed):
        return [text.split()[1] for _name, text in blocks.block_corpus(8, seed)]
    assert widths(0) == widths(7)
    assert set(widths(0)) == {"i8", "i16", "i32", "i64"}


# -- compare.py verdicts -----------------------------------------------------


def _summary(value, q1=None, q3=None):
    return {"value": value, "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3, "best": value, "n": 5,
            "unit": "1/s", "raw": [value]}


def test_verdicts_on_bounded_metrics():
    base = _summary(100.0, 99.0, 101.0)
    assert compare.verdict(base, _summary(105.0), "higher", 0.10) == "same"
    assert compare.verdict(base, _summary(95.0), "higher", 0.10) == "same"
    assert compare.verdict(base, _summary(120.0), "higher", 0.10) == "better"
    assert compare.verdict(base, _summary(80.0), "higher", 0.10) == "worse"
    assert compare.verdict(base, _summary(80.0), "lower", 0.10) == "better"
    assert compare.verdict(base, _summary(120.0), "lower", 0.10) == "worse"
    wide = _summary(100.0, 90.0, 110.0)
    assert compare.verdict(wide, _summary(150.0), "higher", 0.10) \
        == "unresolved"
    assert compare.verdict(base, wide, "higher", 0.10) == "unresolved"


def test_verdicts_on_exact_metrics():
    assert compare.exact_verdict(28, 28, "higher") == "same"
    assert compare.exact_verdict(28, 29, "higher") == "better"
    assert compare.exact_verdict(28, 27, "higher") == "worse"
    assert compare.exact_verdict(0, 1, "lower") == "worse"


def _result_file(rate, digest="d", bugs=3):
    e2e = {name: _summary(10.0) for name in layers.END_TO_END}
    e2e["mutants_per_sec"] = _summary(rate)
    absolute = {"bugs_found": {"value": bugs}, "failed_share": {"value": 0.0},
                "false_alarms": {"value": 0}}
    return {"workloads": {"w": {"digest": digest, "end_to_end": e2e,
                                "absolute": absolute}}}


def test_compare_rows_and_exit_status(tmp_path, capsys):
    bounds = compare.load_bounds()
    assert set(bounds) == set(layers.END_TO_END)
    rows = compare.compare(_result_file(100.0), _result_file(50.0, "e", 2),
                           bounds)
    verdicts = {metric: outcome for _w, metric, _d, outcome in rows}
    assert verdicts["findings digest"] == "worse"
    assert verdicts["mutants_per_sec"] == "worse"
    assert verdicts["bugs_found"] == "worse"
    assert verdicts["jobs_per_sec"] == "same"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result_file(100.0)))
    b.write_text(json.dumps(_result_file(101.0)))
    assert compare.main([str(a), str(b)]) == 0
    assert "B/A = 1.0100 of 100" in capsys.readouterr().out
    b.write_text(json.dumps(_result_file(50.0)))
    assert compare.main([str(a), str(b)]) == 1


# -- the metric tables -------------------------------------------------------


def test_benchmark_json_names_the_ledgers_tables():
    with open(compare.BENCHMARK_JSON, encoding="utf-8") as stream:
        spec = json.load(stream)
    assert [w["name"] for w in spec["workloads"]] == list(ledger.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == layers.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert len(spec["per_layer"]) <= 128
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"][-1] == "benchmarks/ledger/run.py"


def test_expected_digests_cover_every_workload():
    expected = ledger.load_expected()
    assert set(expected["digests"]) == set(ledger.WORKLOADS)
    assert expected["digests"][ledger.E1] == expected["digests"][ledger.J2]


def test_calls_are_charged_to_the_calling_package():
    src = os.path.join(os.sep, "x", "src", "repro")
    tv = (os.path.join(src, "tv", "refine.py"), 1, "check")
    opt = (os.path.join(src, "opt", "fold.py"), 1, "fold")
    builtin = ("~", 0, "<built-in method builtins.len>")
    library = (os.path.join(os.sep, "usr", "lib", "random.py"), 1, "rand")
    stats = {
        tv: (5, 5, 0.0, 0.0, {}),
        opt: (2, 2, 0.0, 0.0, {tv: (2, 2, 0.0, 0.0)}),
        builtin: (7, 7, 0.0, 0.0, {tv: (4, 4, 0.0, 0.0),
                                   opt: (3, 3, 0.0, 0.0)}),
        library: (3, 3, 0.0, 0.0, {library: (1, 1, 0.0, 0.0),
                                   opt: (2, 2, 0.0, 0.0)}),
    }
    totals = layers.calls_by_package(stats)
    assert totals["tv"] == 5 + 4
    assert totals["opt"] == 2 + 3 + 2
    assert totals["other"] == 1
    assert sum(totals.values()) == 5 + 2 + 7 + 3


def test_summaries_state_quartiles_best_and_count():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    summary = ledger.summarize(values, "lower")
    assert (summary["value"], summary["best"], summary["n"]) == (3.0, 1.0, 5)
    assert summary["q1"] < summary["value"] < summary["q3"]
    assert ledger.summarize(values, "higher")["best"] == 5.0
    assert ledger.summarize([2.0], "lower")["q1"] == 2.0
