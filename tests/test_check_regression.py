"""benchmarks/check_regression.py refuses a baseline that does not match
its gate list, in either mode, and passes the committed baselines."""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(HERE), "benchmarks",
                      "check_regression.py")


@pytest.fixture(scope="module")
def regression():
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load(path):
    with open(path) as stream:
        return json.load(stream)


def summaries_at_baseline(regression, baseline, out_dir):
    """Write BENCH_*.json summaries whose every gated metric equals the
    baseline's value, so only the baseline itself can fail the check."""
    files = {}
    for section, file_name, metric, _ in regression.GATES:
        files.setdefault(file_name, {})[metric] = baseline[section][metric]
    for file_name, summary in files.items():
        with open(os.path.join(out_dir, file_name), "w") as stream:
            json.dump(summary, stream)


@pytest.mark.parametrize("mode", ["quick", "full"])
def test_committed_baselines_match_the_gates(regression, mode, tmp_path):
    baseline = load(regression.BASELINES[mode])
    assert regression.mismatches(baseline) == ([], [])
    summaries_at_baseline(regression, baseline, str(tmp_path))
    assert regression.main(["--mode", mode, "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("mode", ["quick", "full"])
def test_extra_and_missing_keys_exit_2(regression, mode, tmp_path, capsys):
    baseline = load(regression.BASELINES[mode])
    summaries_at_baseline(regression, baseline, str(tmp_path))
    del baseline["wire"]["codec_speedup"]
    baseline["retired"] = {"speedup": 2.0}
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    assert regression.mismatches(baseline) == (["wire.codec_speedup"],
                                               ["retired.speedup"])
    code = regression.main(["--mode", mode, "--baseline", str(path),
                            "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "wire.codec_speedup" in err and "retired.speedup" in err
