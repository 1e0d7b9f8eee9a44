#!/usr/bin/env python3
"""Compare simulated sojourn time against the M/M/1 closed form.

One client, one single-core worker, exponential service via compute
randomization, negligible network. Expected mean sojourn is 1/(mu - lambda).

Usage: python scripts/mm1_check.py [--rho 0.5] [--completions 200000]

--rho must lie in (0, 1) and --completions be at least 1; other values exit 2.
"""

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))  # run from a plain checkout, chainsim not installed

from chainsim import engine
from chainsim.config import load_json, scenario_from_raw


def offered_load(text: str) -> float:
    """An offered load strictly inside (0, 1): at 0 nothing arrives, at 1 the queue is unstable."""
    rho = float(text)
    if not 0.0 < rho < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return rho


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rho", type=offered_load, default=0.5, help="offered load lambda/mu, in (0, 1)")
    parser.add_argument("--completions", type=positive_int, default=200_000)
    parser.add_argument("--seed", type=int, default=4000)
    args = parser.parse_args()

    raw = load_json(REPO / "configs" / "mm1.json")
    mu = 1.0  # service rate implied by fixed_ops / core_speed
    lam = args.rho * mu
    raw["workload"]["rates"]["mm1"] = lam
    raw["workload"]["horizon"] = args.completions / lam * 1.05
    raw["seed"] = args.seed
    scenario, errs = scenario_from_raw(raw)
    if scenario is None:
        for e in errs:
            print(f"error: {e}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    log = engine.run(scenario)
    elapsed = time.perf_counter() - t0

    latencies = [inv.latency for inv in log.invocations if inv.latency is not None]
    if not latencies:
        print("error: no invocation completed; raise --completions", file=sys.stderr)
        return 1
    mean = sum(latencies) / len(latencies)
    expected = 1.0 / (mu - lam)
    err = abs(mean - expected) / expected
    print(f"completions      {len(latencies)}")
    print(f"simulated mean   {mean:.6f} s")
    print(f"analytic 1/(mu-lambda) {expected:.6f} s")
    print(f"relative error   {err * 100:.3f} %")
    print(f"wall time        {elapsed:.2f} s")
    return 0 if err < 0.05 else 1


if __name__ == "__main__":
    sys.exit(main())
