#!/usr/bin/env python3
"""Run the bundled arrival-rate sweep and print a rate-vs-latency table.

Usage: python scripts/baseline_sweep.py [--out DIR] [--replications N]
"""

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))  # run from a plain checkout, chainsim not installed

from chainsim.config import load_json, sweep_from_raw
from chainsim.runner import run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO / "out" / "baseline_sweep"))
    parser.add_argument("--replications", type=int, default=5)
    args = parser.parse_args()

    configs = REPO / "configs"
    raw = load_json(configs / "sweep_rates.json")
    raw["base"] = load_json(configs / raw["base"])
    raw["base"]["replications"] = args.replications
    sweep, errs = sweep_from_raw(raw)
    if sweep is None:
        for e in errs:
            print(f"error: {e}", file=sys.stderr)
        return 1

    results = run_sweep(sweep, args.out, emit_plotdata=True)

    print(f"{'rate':>8} {'seed':>6} {'completed':>9} {'mean_lat_s':>12} {'p95_lat_s':>12} {'util':>8}")
    for res in results:
        rec = res.record
        util = max(rec["utilization"].values())
        print(
            f"{rec['swept_value']:>8} {rec['seed']:>6} {rec['completed']:>9}"
            f" {rec['mean_latency_s']:>12.6f} {rec['p95_latency_s']:>12.6f} {util:>8.3f}"
        )
    print(f"\nwrote CSVs and summary.json under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
