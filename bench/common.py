"""Paths shared by the benchmark's commands, the import of chainsim, and the
calibration kernel that gauges the host's current speed.

chainsim is always imported from ``src/`` of the checkout that holds this
directory, never from an installed copy, so a checkout measures its own code.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # listed in the root .gitignore


def import_chainsim():
    """Put the checkout's src/ first on sys.path and import chainsim from it.

    Exits with status 1 when the checkout has no chainsim sources.
    """
    init = SRC / "chainsim" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init.relative_to(ROOT)} not found; run from a chainsim checkout")
    sys.path.insert(0, str(SRC))
    import chainsim

    if Path(chainsim.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported chainsim from {chainsim.__file__}, not from {SRC}")
    return chainsim


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def hash_tree(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by its relative path."""
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        digests[path.relative_to(root).as_posix()] = h.hexdigest()
    return digests


# CPU seconds that calibrate() took on the reference machine (median of
# many calls; see README.md). A figure scaled by calibrate() / REF_CAL_S
# reads as if measured at the reference machine's speed.
REF_CAL_S = 0.085


class _Event:
    __slots__ = ("time", "kind")

    def __init__(self, time: float, kind: int):
        self.time = time
        self.kind = kind


def calibrate(n: int = 60000) -> float:
    """CPU seconds of a fixed pure-Python kernel: heap, dict, float and object work.

    It is the benchmark's own code, so no change to chainsim changes it; gc is
    off while it runs, so no gc setting of chainsim's reaches it either. The
    host's speed drifts by tens of percent between minutes; the ratio of a
    figure to this kernel's time, measured next to it, drifts far less.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        heap: list = []
        sums: dict[int, float] = {}
        acc, x = 0.0, 12345
        for i in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (x * 1e-9, i, _Event(x * 1e-12, i & 31)))
            if len(heap) > 64:
                t, _, ev = heapq.heappop(heap)
                sums[ev.kind] = sums.get(ev.kind, 0.0) + t
                acc += t * 0.5 + ev.time
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()
