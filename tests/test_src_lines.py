"""scripts/src_lines.py on a small module: what counts as a code line."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"


def count(*paths):
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_docstring_comment_and_blank_count_zero(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""A docstring-only statement."""\n# a comment\n\n')
    assert count(module) == ["3 total lines", "0 code-only lines"]


def test_three_line_call_counts_three(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""Docstring."""\n# a comment\n\nprint(\n    "x",\n)\n')
    assert count(module) == ["6 total lines", "3 code-only lines"]


def test_files_add_up(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("x = 1\n")
    b.write_text("y = (\n    2\n)\n")
    assert count(a, b) == ["4 total lines", "4 code-only lines"]
