"""Run with: python3 -m pytest bench -q (from the root of a checkout)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_chainsim  # noqa: E402

import_chainsim()
