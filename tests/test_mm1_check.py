"""scripts/mm1_check.py rejects loads and run lengths it cannot check, with an argparse error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "mm1_check.py"


def run_script(*args):
    # no PYTHONPATH: the script finds chainsim in a plain checkout by itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          env=env, timeout=120, check=False)


@pytest.mark.parametrize("args", [
    ("--rho", "0"),  # nothing arrives: the horizon divides by zero
    ("--rho", "1.0"),  # unstable: 1/(mu - lambda) divides by zero
    ("--rho", "-0.5"),
    ("--rho", "1.5"),
    ("--rho", "nan"),
    ("--completions", "0"),
    ("--completions", "-3"),
])
def test_rejected_value_exits_two(args):
    proc = run_script(*args)
    assert proc.returncode == 2, proc.stderr
    assert f"error: argument {args[0]}:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_short_run_compares():
    proc = run_script("--rho", "0.5", "--completions", "2000")
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "relative error" in proc.stdout


def test_no_completion_is_an_error_not_a_traceback():
    # At seed 2 the one-completion horizon draws no arrival at all.
    proc = run_script("--completions", "1", "--seed", "2")
    assert proc.returncode == 1
    assert "error: no invocation completed" in proc.stderr
    assert "Traceback" not in proc.stderr
