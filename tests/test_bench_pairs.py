"""The comparison rule of scripts/bench_pairs.py, on made-up runs, and how it starts a run."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
compare = bench_pairs.compare

PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_gain_needs_nine_wins_in_ten():
    change = [p + 20.0 for p in PARENT]
    c = compare(PARENT, change, "higher", 0.25)
    assert (c["wins"], c["pairs"], c["gain"], c["within_bound"]) == (10, 10, True, True)
    change[0] = change[1] = PARENT[0] - 1.0  # lose two pairs
    c = compare(PARENT, change, "higher", 0.25)
    assert (c["wins"], c["gain"]) == (8, False)


def test_ties_count_for_neither_side():
    c = compare(PARENT, list(PARENT), "higher", 0.25)
    assert (c["wins"], c["gain"], c["rel"]) == (0, False, 0.0)


def test_gain_needs_medians_apart_by_more_than_the_parent_iqr():
    q1, _, q3 = bench_pairs.quartiles(PARENT)
    assert (q1, q3) == (99.25, 101.0)
    c = compare(PARENT, [p + 1.5 for p in PARENT], "higher", 0.25)
    assert c["wins"] == 10 and not c["gain"]  # 1.5 < IQR 1.75
    assert compare(PARENT, [p + 2.0 for p in PARENT], "higher", 0.25)["gain"]


def test_lower_is_better_and_the_bound():
    c = compare(PARENT, [p * 0.5 for p in PARENT], "lower", 0.1)
    assert (c["wins"], c["gain"], c["within_bound"]) == (10, True, True)
    assert c["rel"] == pytest.approx(-0.5)
    c = compare(PARENT, [p * 1.11 for p in PARENT], "lower", 0.1)
    assert (c["wins"], c["within_bound"]) == (0, False)
    assert compare(PARENT, [p * 1.09 for p in PARENT], "lower", 0.1)["within_bound"]
    assert not compare(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25)["within_bound"]


def test_one_pair():
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert compare([5.0], [6.0], "higher", 0.25)["gain"]


def test_each_run_gets_a_fresh_empty_pycache_prefix(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        calls.append((cmd, cwd, env, prefix, prefix.is_dir() and not any(prefix.iterdir())))
        line = json.dumps({"metrics": {}, "correct": True, "failed": 0})
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "stale"))
    for _ in range(2):
        assert bench_pairs.run_once(tmp_path, "w", 7, 1.0) == {"metrics": {}, "correct": True, "failed": 0, "status": 0}
    (cmd, cwd, env, first, first_empty), (_, _, _, second, second_empty) = calls
    assert cmd[1:] == ["bench/run.py", "--workload", "w", "--seed", "7", "--seconds", "1.0", "--trace", "0"]
    assert cwd == tmp_path
    assert first_empty and second_empty and first != second
    assert first != tmp_path / "stale" and not first.exists() and not second.exists()
    assert {k: v for k, v in env.items() if k != "PYTHONPYCACHEPREFIX"} == {
        k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"
    }
