"""scripts/bench_diff.py: missing inputs fail with a one-line error."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_diff.py"


@pytest.fixture(scope="module")
def bench_diff():
    spec = importlib.util.spec_from_file_location("bench_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("missing", ["old", "new"])
def test_missing_input_is_a_one_line_error(bench_diff, tmp_path, capsys,
                                           missing):
    present = tmp_path / "BENCH_x.json"
    present.write_text(json.dumps({"run_s": 1.0}))
    absent = tmp_path / "BENCH_missing.json"
    args = [absent, present] if missing == "old" else [present, absent]
    assert bench_diff.main([str(path) for path in args]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"bench_diff: no such file: {absent}\n"
    assert captured.out == ""


def test_present_inputs_still_diff(bench_diff, tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"run_s": 1.0}))
    new.write_text(json.dumps({"run_s": 3.0}))
    assert bench_diff.main([str(old), str(new), "--strict"]) == 1
    assert "REGRESSED" in capsys.readouterr().out
