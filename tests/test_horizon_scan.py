"""scripts/horizon_scan.py at short horizons: the table's shape, not its timings."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "horizon_scan.py"


def test_one_row_per_horizon():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--horizons", "1", "3"],
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split(" | ") == ["horizon_s", "invocations", "stages", "stages/s", "RSS growth MB", "kB/inv"]
    assert len(rows) == 2
    cells = [row.split(" | ") for row in rows]
    assert [c[0] for c in cells] == ["1", "3"]
    for horizon, invocations, stages, *measured in cells:
        assert int(invocations) > 0
        assert int(stages) == 4 * int(invocations)  # the run drains: every invocation runs its 4 stages
        assert all(float(x) >= 0 for x in measured)
    assert int(cells[0][1]) < int(cells[1][1])
