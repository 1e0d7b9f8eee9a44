#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

Pair i runs ``bench/run.py`` on every workload, parent first when i is even
and change first when i is odd, with the same seed and run length on both
sides. For each workload and each end-to-end metric of the change's
BENCHMARK.json it prints:

  parent, change  median [first quartile, third quartile] over the pairs
  change/parent   relative difference of the medians, signed (+ is larger)
  wins            pairs in which the change read better; ties count for neither
  bound           "ok" when the change's median is no worse than the parent's
                  by more than the metric's bound, else "WORSE"
  gain            "yes" when at least 10 pairs ran, the change won at least
                  9/10 of them and the medians differ, in the better
                  direction, by more than the parent's interquartile range;
                  "n/a (<10 pairs)" when fewer pairs ran, whatever they show

and, per side, the runs that were not correct and the failed invocations.

Usage:
  python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR [--pairs 10] [--seed 303]
      [--seconds S] [--workload NAME ...] [--json RUNS.json]

``--seconds`` defaults to the benchmark's ``run_seconds``. The exit status is
1 when any run was not correct or had failed invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MIN_GAIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired runs of one metric; ``parent[i]`` and ``change[i]`` are pair i.

    A gain needs at least ``MIN_GAIN_PAIRS`` pairs, the fewest the repo's
    comparison rule accepts, however many of them the change wins.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "rel": rel,
        "wins": wins,
        "pairs": len(parent),
        "within_bound": sign * rel >= -bound,
        "gain": len(parent) >= MIN_GAIN_PAIRS and 10 * wins >= 9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run; its last output line, parsed.

    The run writes and reads bytecode under a fresh, empty
    ``PYTHONPYCACHEPREFIX``, so no ``__pycache__`` left in either checkout
    can make one side's imports, and so its ``setup_s``, cheaper.
    """
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"error: {checkout}: {' '.join(cmd)} printed nothing (status {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["status"] = proc.returncode
    return result


def _fmt(x: float) -> str:
    return f"{x:.4g}" if abs(x) < 1000 else f"{x:.0f}"


def _gain(c: dict) -> str:
    if c["pairs"] < MIN_GAIN_PAIRS:
        return f"n/a (<{MIN_GAIN_PAIRS} pairs)"
    return "yes" if c["gain"] else "no"


def report(runs: dict, benchmark: dict) -> bool:
    """Print the comparison of ``runs[workload][side]``; True when every run was clean."""
    clean = True
    for workload, sides in runs.items():
        print(f"{workload} ({len(sides['parent'])} pairs)")
        for side in ("parent", "change"):
            bad = sum(not r["correct"] or r["status"] != 0 for r in sides[side])
            failed = sum(r["failed"] for r in sides[side])
            clean = clean and bad == 0 and failed == 0
            print(f"  {side}: {bad} runs not correct, {failed} failed invocations")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in sides[side]] for side in sides}
            c = compare(values["parent"], values["change"], metric["better"], metric["bound"])
            (pm, p1, p3), (cm, c1, c3) = c["parent"], c["change"]
            print(
                f"  {name:<13} parent {_fmt(pm)} [{_fmt(p1)}, {_fmt(p3)}]"
                f"  change {_fmt(cm)} [{_fmt(c1)}, {_fmt(c3)}] {metric['unit']}"
                f"  change/parent {c['rel']:+.1%}  wins {c['wins']}/{c['pairs']}"
                f"  bound {'ok' if c['within_bound'] else 'WORSE'}  gain {_gain(c)}"
            )
    return clean


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=303)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: the benchmark's)")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--json", type=Path, help="also write every run's result here")
    args = parser.parse_args()

    for checkout in (args.parent, args.change):
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"{checkout} has no bench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in benchmark["workloads"]]
    unknown = [w for w in args.workload or () if w not in names]
    if unknown:
        parser.error(f"unknown --workload {', '.join(unknown)}; BENCHMARK.json names {', '.join(names)}")
    workloads = args.workload or names

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                print(f"pair {i + 1}/{args.pairs} {workload} {side}", file=sys.stderr, flush=True)
                result = run_once(getattr(args, side), workload, args.seed, seconds)
                runs[workload][side].append(result)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0 if report(runs, benchmark) else 1


if __name__ == "__main__":
    sys.exit(main())
