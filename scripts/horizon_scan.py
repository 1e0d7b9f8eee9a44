#!/usr/bin/env python3
"""Scan how the engine's speed and memory change with the simulated horizon.

The scenario is the benchmark's chain4 topology (one broker, 4 workers x 2
cores, the 4-stage stateful chain) at rho = 0.9 under least_loaded /
remote_fixed, scenario seed 7; only the horizon changes. Each horizon runs
in a fresh interpreter, so one run's heap cannot shape the next one's
memory. Per horizon it prints:

  invocations    arrivals simulated
  stages         stages executed
  stages/s       stages per second of process CPU time inside engine.run
  RSS growth MB  peak resident set after engine.run minus the peak before it
  kB/inv         RSS growth per invocation

Process CPU time on a shared host varies between runs; compare two
checkouts only by alternating runs of this script on each.

Usage: python3 scripts/horizon_scan.py [--horizons 200 800 3200]
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RHO = 0.9
SEED = 7
HEADER = ("horizon_s", "invocations", "stages", "stages/s", "RSS growth MB", "kB/inv")


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024 if sys.platform != "darwin" else peak / 2**20  # KiB on Linux, bytes on macOS


def measure(horizon: float) -> dict:
    """Build the scenario at ``horizon`` and time one ``engine.run`` in this process."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]
    import workloads
    from chainsim import config, engine

    doc = workloads.chain4_overload_ll_fixed(SEED)
    cores = sum(node.get("cores", 0) for node in doc["topology"]["nodes"])
    doc["workload"]["rates"]["chain"] = RHO * cores / workloads.CHAIN_CORE_S
    doc["workload"]["horizon"] = horizon
    scenario, errs = config.scenario_from_raw(doc)
    if scenario is None:
        raise SystemExit("invalid scenario: " + "; ".join(errs))
    before = peak_rss_mb()
    t0 = time.process_time()
    log = engine.run(scenario)
    cpu = time.process_time() - t0
    growth = peak_rss_mb() - before
    stages = sum(len(inv.stages) for inv in log.invocations)
    return {"horizon_s": horizon, "invocations": log.injected, "stages": stages,
            "stages_per_s": stages / cpu if cpu > 0 else 0.0, "rss_growth_mb": growth}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizons", type=float, nargs="+", default=[200.0, 800.0, 3200.0])
    parser.add_argument("--one", type=float, help=argparse.SUPPRESS)  # measure one horizon, print JSON
    args = parser.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return 0

    print(" | ".join(HEADER))
    for horizon in args.horizons:
        proc = subprocess.run([sys.executable, __file__, "--one", repr(horizon)],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        row = json.loads(proc.stdout.splitlines()[-1])
        n = row["invocations"]
        per_inv = row["rss_growth_mb"] * 1024 / n if n else 0.0
        print(f"{row['horizon_s']:g} | {n} | {row['stages']} | {row['stages_per_s']:.0f} | "
              f"{row['rss_growth_mb']:.1f} | {per_inv:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
