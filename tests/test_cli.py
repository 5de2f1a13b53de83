"""End-to-end tests for the three command-line tools."""

import subprocess
import sys

import pytest

from repro.cli import alive_mutate, alive_tv, opt_tool

CLEAN = """define i32 @f(i32 %x) {
  %r = add i32 %x, 0
  ret i32 %r
}
"""

CLAMP = """define i32 @clamp(i32 %x) {
  %c = icmp ult i32 %x, 100
  %r = select i1 %c, i32 %x, i32 100
  ret i32 %r
}
"""


@pytest.fixture
def input_file(tmp_path):
    path = tmp_path / "input.ll"
    path.write_text(CLEAN)
    return str(path)


class TestOptTool:
    def test_optimizes_to_stdout(self, input_file, capsys):
        assert opt_tool.main([input_file, "-p", "instsimplify"]) == 0
        output = capsys.readouterr().out
        assert "add" not in output
        assert "ret i32 %x" in output

    def test_output_file(self, input_file, tmp_path, capsys):
        out = tmp_path / "out.ll"
        assert opt_tool.main([input_file, "-p", "O2", "-o", str(out)]) == 0
        assert "define" in out.read_text()

    def test_list_passes(self, capsys):
        assert opt_tool.main(["--list-passes", "x"]) == 0
        out = capsys.readouterr().out
        assert "instcombine" in out and "O2" in out

    def test_crash_bug_exit_code(self, tmp_path, capsys):
        path = tmp_path / "shift.ll"
        path.write_text("""define i8 @f(i8 %x) {
  %r = shl i8 %x, 9
  ret i8 %r
}
""")
        code = opt_tool.main([str(path), "-p", "instsimplify",
                              "--enable-bug", "56968"])
        assert code == 134

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.ll"
        path.write_text("this is not IR")
        assert opt_tool.main([str(path)]) == 2

    def test_missing_file(self):
        assert opt_tool.main(["/nonexistent/x.ll"]) == 2


class TestAliveTV:
    def test_verified(self, tmp_path, capsys):
        src = tmp_path / "src.ll"
        tgt = tmp_path / "tgt.ll"
        src.write_text(CLEAN)
        tgt.write_text(CLEAN.replace("add i32 %x, 0", "add i32 %x, 0"))
        assert alive_tv.main([str(src), str(tgt)]) == 0
        assert "verified" in capsys.readouterr().out

    def test_not_verified(self, tmp_path, capsys):
        src = tmp_path / "src.ll"
        tgt = tmp_path / "tgt.ll"
        src.write_text(CLEAN)
        tgt.write_text(CLEAN.replace("add i32 %x, 0", "add i32 %x, 1"))
        assert alive_tv.main([str(src), str(tgt)]) == 1
        out = capsys.readouterr().out
        assert "NOT verified" in out

    def test_quiet(self, tmp_path, capsys):
        src = tmp_path / "src.ll"
        src.write_text(CLEAN)
        assert alive_tv.main([str(src), str(src), "-q"]) == 0
        assert capsys.readouterr().out == ""

    def test_no_inputs_or_negative_seed_is_a_usage_error(self, tmp_path,
                                                         capsys):
        # With no inputs nothing would run and a miscompilation would
        # read as verified.
        src = tmp_path / "src.ll"
        tgt = tmp_path / "tgt.ll"
        src.write_text(CLEAN)
        tgt.write_text(CLEAN.replace("add i32 %x, 0", "add i32 %x, 1"))
        for flags, message in ((["--max-inputs", "0"], "max_inputs"),
                               (["--max-inputs", "-3"], "max_inputs"),
                               (["--seed", "-1"], "seed")):
            assert alive_tv.main([str(src), str(tgt)] + flags) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err


class TestAliveMutate:
    def test_mutate_only_writes_valid_ir(self, input_file, tmp_path):
        out = tmp_path / "mutant.ll"
        code = alive_mutate.main([input_file, "--mutate-only",
                                  "--seed", "3", "-o", str(out)])
        assert code == 0
        from repro.ir import is_valid_module, parse_module

        assert is_valid_module(parse_module(out.read_text()))

    def test_mutate_only_deterministic(self, input_file, tmp_path):
        a = tmp_path / "a.ll"
        b = tmp_path / "b.ll"
        alive_mutate.main([input_file, "--mutate-only", "--seed", "3",
                           "-o", str(a)])
        alive_mutate.main([input_file, "--mutate-only", "--seed", "3",
                           "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_fuzz_loop_clean(self, input_file, capsys):
        code = alive_mutate.main([input_file, "-n", "10"])
        assert code == 0
        assert "10 iterations" in capsys.readouterr().out

    def test_fuzz_loop_finds_seeded_bug(self, tmp_path, capsys):
        path = tmp_path / "clamp.ll"
        path.write_text(CLAMP)
        code = alive_mutate.main([str(path), "-n", "120",
                                  "--enable-bug", "53252"])
        assert code == 1
        assert "miscompilation" in capsys.readouterr().out

    def test_save_dir(self, input_file, tmp_path):
        save = tmp_path / "mutants"
        alive_mutate.main([input_file, "-n", "5", "--saveAll",
                           "--save-dir", str(save)])
        assert len(list(save.iterdir())) == 5

    def test_stats_prints_throughput_line(self, input_file, capsys):
        code = alive_mutate.main([input_file, "-n", "10", "--stats",
                                  "--stats-interval", "0.001"])
        assert code == 0
        err = capsys.readouterr().err
        assert "mutants" in err and "/s" in err
        assert "valid" in err
        assert "mutate" in err and "verify" in err  # per-stage share
        # Per-pass breakdown, then what the scan passes did.
        breakdown = [line for line in err.splitlines()
                     if "optimize passes:" in line]
        assert len(breakdown) == 1
        assert " | scan " in breakdown[0] and " visits · kb " in breakdown[0]
        assert "% memo)" in breakdown[0]

    def test_metrics_out_single_mode(self, input_file, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        code = alive_mutate.main([input_file, "-n", "8",
                                  "--metrics-out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["counters"]["mutants.created"] == 8
        assert data["counters"]["stage.verify.seconds"] > 0
        assert data["histograms"]["iteration.seconds"]["count"] == 8

    def test_metrics_out_sharded_mode(self, input_file, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        code = alive_mutate.main([input_file, "-n", "10", "-j", "2",
                                  "--stats", "--metrics-out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["counters"]["mutants.created"] == 10
        assert data["counters"]["opt.scan.visits"] > 0
        err = capsys.readouterr().err
        assert "total:" in err
        assert "optimize passes:" in err and " | scan " in err

    def test_trace_out_single_mode(self, input_file, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        code = alive_mutate.main([input_file, "-n", "5",
                                  "--trace-out", str(trace)])
        assert code == 0
        names = {json.loads(line)["name"]
                 for line in trace.read_text().splitlines()}
        assert {"mutate", "optimize", "verify"} <= names

    def test_trace_out_sharded_writes_per_shard_files(self, input_file,
                                                      tmp_path, capsys):
        traces = tmp_path / "traces"
        code = alive_mutate.main([input_file, "-n", "10", "-j", "2",
                                  "--trace-out", str(traces)])
        assert code == 0
        assert sorted(p.name for p in traces.iterdir()) == \
            ["job-0000.jsonl", "job-0001.jsonl"]

    def test_trace_sample_validated(self, input_file, capsys):
        assert alive_mutate.main([input_file, "--trace-sample", "2.0"]) == 2
        assert "--trace-sample" in capsys.readouterr().err

    def test_stats_interval_validated(self, input_file, capsys):
        assert alive_mutate.main([input_file, "--stats",
                                  "--stats-interval", "0"]) == 2
        assert "--stats-interval" in capsys.readouterr().err

    def test_feedback_flags_run_and_journal_corpus(self, input_file,
                                                   tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        code = alive_mutate.main([input_file, "-n", "20", "--feedback",
                                  "--scheduler", "bandit",
                                  "--corpus-dir", str(corpus_dir),
                                  "--stats", "--stats-interval", "0.001"])
        assert code == 0
        assert "corpus" in capsys.readouterr().err
        journals = list(corpus_dir.glob("*.corpus.jsonl"))
        assert len(journals) == 1

    def test_feedback_flags_require_feedback(self, input_file, capsys):
        assert alive_mutate.main([input_file, "-n", "2",
                                  "--scheduler", "bandit"]) == 2
        assert "feedback.scheduler" in capsys.readouterr().err
        assert alive_mutate.main([input_file, "-n", "2",
                                  "--corpus-dir", "/tmp/x"]) == 2
        assert "feedback.corpus_dir" in capsys.readouterr().err

    def test_stats_survives_empty_target_shard(self, input_file, tmp_path,
                                               capsys):
        """The --stats divide-by-zero regression: a shard whose functions
        are all dropped reports zero optimize calls, and every derived
        rate must render as 0 instead of raising."""
        empty = tmp_path / "wide.ll"
        empty.write_text("define i128 @wide(i128 %x) {\n"
                         "  ret i128 %x\n}\n")
        code = alive_mutate.main([input_file, str(empty), "-n", "5",
                                  "-j", "2", "--stats"])
        assert code == 0
        err = capsys.readouterr().err
        assert "total:" in err

    def test_stats_all_shards_empty_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "wide.ll"
        empty.write_text("define i128 @wide(i128 %x) {\n"
                         "  ret i128 %x\n}\n")
        code = alive_mutate.main([str(empty), "-n", "5", "-j", "2",
                                  "--stats"])
        assert code == 2
        assert "no processable functions" in capsys.readouterr().err

    def test_one_job_retries_and_quarantines_hung_shards(self, input_file,
                                                         tmp_path, capsys):
        """--jobs 1 follows the same retry rule as --jobs N: every shard
        overruns its deadline, is retried once, then quarantined."""
        other = tmp_path / "clamp.ll"
        other.write_text(CLAMP)
        code = alive_mutate.main([input_file, str(other), "-n", "5",
                                  "--jobs", "1", "--job-deadline", "1e-9",
                                  "--max-job-retries", "1"])
        assert code == 2  # nothing merged
        captured = capsys.readouterr()
        assert captured.err.count("quarantined (seed") == 2
        assert captured.err.count(", 2 attempts)") == 2
        assert "0 failed, 2 quarantined" in captured.out

    def test_console_scripts_run_as_modules(self, input_file):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli.opt_tool", input_file,
             "-p", "O0"],
            capture_output=True)
        assert result.returncode == 0
        assert b"define" in result.stdout
