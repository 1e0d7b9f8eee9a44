"""Golden outputs: every file the CLI writes for the bundled configs.

Each case runs ``chainsim`` through ``cli.main`` into a temporary directory
and compares the SHA-256 of every written file with the listing in
``tests/golden/outputs.sha256``. The cases are every valid bundled config as
shipped, the bundled sweep with plot data, the chain, DAG and two-app
configs under every (policy, state_mode) pair, and the ``describe`` listing
of every valid config (hashed as ``<config>+describe/stdout``). A change
that is meant to keep behaviour must leave this test green; one that
changes outputs on purpose regenerates the listing and explains the
difference:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/outputs.sha256
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from chainsim.cli import main
from chainsim.config import load_json
from chainsim.dispatch import PolicyKind
from chainsim.state import StateMode

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.sha256"

VALID = [
    "baseline_single_worker.json",
    "two_worker_chain.json",
    "diamond_dag.json",
    "mm1.json",
    "multi_app.json",
    "edge_mesh.json",
]
VARIED = ["two_worker_chain.json", "diamond_dag.json", "edge_mesh.json", "multi_app.json"]


def _cases() -> dict[str, tuple[str, str, dict | None, list[str]]]:
    """Case name -> (command, config file, config override or None, extra arguments)."""
    cases = {name: ("run", name, None, []) for name in VALID}
    cases["sweep_rates.json"] = ("sweep", "sweep_rates.json", None, ["--emit-plotdata"])
    for name in VARIED:
        for policy in PolicyKind:
            for mode in StateMode:
                override = {"policy": policy.value, "state_mode": mode.value}
                cases[f"{name}+{policy.value}+{mode.value}"] = ("run", name, override, [])
    for name in VALID:
        cases[f"{name}+describe"] = ("describe", name, None, [])
    return cases


CASES = _cases()


def case_hashes(case: str, work: Path) -> dict[str, str]:
    """Run one case under ``work`` and hash every file it wrote."""
    command, name, override, extra = CASES[case]
    config = CONFIGS / name
    if override is not None:
        raw = load_json(config)
        raw.update(override)
        config = work / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
    if command == "describe":
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([command, str(config)]) == 0
        return {f"{case}/stdout": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}
    out = work / "out"
    assert main([command, str(config), "--out", str(out), *extra]) == 0
    return {
        f"{case}/{p.relative_to(out).as_posix()}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _golden() -> dict[str, str]:
    listing = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        listing[name] = digest
    return listing


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_golden(case, tmp_path):
    expected = {name: d for name, d in _golden().items() if name.startswith(case + "/")}
    got = case_hashes(case, tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in got if got[name] != expected[name]]
    assert changed == []


def test_listing_names_only_known_cases():
    prefixes = tuple(case + "/" for case in CASES)
    assert all(name.startswith(prefixes) for name in _golden())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(CASES):
            work = Path(tmp) / str(i)
            work.mkdir()
            with contextlib.redirect_stdout(sys.stderr):
                hashes = case_hashes(case, work)
            for name, digest in hashes.items():
                print(f"{digest}  {name}")
