"""Run one benchmark workload and print its metrics as the last output line.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``) it reports the end-to-end metrics:
  stages_per_s  simulated stages per second of host time, from the end of
                set-up to the last output file written; median over repeats
  peak_rss_mb   peak resident set of this process
  setup_s       host time of importing chainsim (numpy already imported) +
                load + validate + build every scenario, route tables
                included; median over fresh interpreters
Host time is process CPU time scaled to the reference machine's speed by
the calibration kernel of common.py, timed next to each measurement.
Traced (``--trace 1``) it reports the per-layer metrics of ``tracer.py``,
medians over traced repeats, and writes the spans under .bench_out/trace/.

Each repeat sets up (untimed) and runs one scenario document and writes
every output file. Input set i is the workload's document with scenario
seed ``--seed + i * 2**32``, so the same seed always gives the same inputs.
A warm-up repeat of set 0 is checked but not timed. Every repeat's log and
output files are checked against the benchmark's own model (checks.py), and
a rerun of set 0 must write the warm-up's files byte for byte. An invocation that fails a
check counts as failed; any run-level violation exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

from common import BENCH, OUT, REF_CAL_S, calibrate, fresh_dir, hash_tree, import_chainsim

SETUP_PROBES = 9
MIN_REPEATS = 5  # timed repeats, after the warm-up
MIN_TRACED_REPEATS = 1


def _setup_seconds(name: str, doc_path) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(doc_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="chainsim benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent in timed repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_chainsim()
    import checks
    import workloads
    from tracer import UNITS, Tracer, rss_mb, write_trace

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    work = fresh_dir(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}")
    out_dir = work / "out"
    docs = []  # docs[i] is the document of input set i, written on first use

    def doc_seed(i: int) -> int:
        return (args.seed + (i << 32)) % 2**64

    def doc_path(i: int):
        while len(docs) <= i:
            path = work / f"scenario-{len(docs)}.json"
            workloads.write_doc(wl, doc_seed(len(docs)), path)
            docs.append(path)
        return docs[i]

    # Only seeds differ between input sets, so one model checks them all.
    doc = wl.make_doc(args.seed)
    models = [checks.Model(d) for d in workloads.point_docs(wl, doc)]
    sweep = (doc["field"], doc["values"]) if wl.is_sweep else None
    setups = [] if args.trace else [_setup_seconds(wl.name, doc_path(0)) for _ in range(SETUP_PROBES)]

    report = checks.Report()
    rss_baseline = rss_mb()

    def repeat(i: int, tracer=None):
        """Set up and run input set i; returns (stages, CPU s, output hashes)."""
        fresh_dir(out_dir)
        gc.collect()
        if tracer:
            tracer.install()
        try:
            if tracer:
                spec = tracer.span("setup", workloads.set_up, wl, doc_path(i))
            else:
                spec = workloads.set_up(wl, doc_path(i))
            start = time.process_time()
            results = workloads.execute(wl, spec, out_dir)
            cpu = time.process_time() - start
        finally:
            if tracer:
                tracer.uninstall()
        stages = 0
        for res in results:
            report.merge(checks.check_log(models[res.point], res.log))
            stages += sum(len(inv.stages) for inv in res.log.invocations)
        report.violations.extend(checks.check_files(out_dir, models, results, doc_seed(i), sweep))
        del results, spec
        return stages, cpu, hash_tree(out_dir)

    # The warm-up runs input set 0. The first measured repeat runs set 0 again
    # (traced: every traced repeat does), and its files must match the
    # warm-up's byte for byte. Later untraced repeats run sets 1, 2, ..., so
    # the median spans many seeds.
    warm_stages, warm_cpu, reference = repeat(0)
    cal_before = calibrate()
    deadline = time.perf_counter() + args.seconds
    rates: list[float] = []
    layers: list[dict] = []
    spans: list[dict] = []
    traced_cpu: list[float] = []
    while True:
        if args.trace:
            tracer = Tracer(len(layers), rss_baseline)
            _, cpu, hashes = repeat(0, tracer)
            report.violations.extend(checks.check_identical(reference, hashes, "traced repeat"))
            layers.append(tracer.layer_metrics())
            spans.extend(tracer.spans)
            traced_cpu.append(cpu)
            done = len(layers) >= MIN_TRACED_REPEATS
        else:
            stages, cpu, hashes = repeat(len(rates))
            if not rates:
                report.violations.extend(checks.check_identical(reference, hashes, "rerun of input set 0"))
            # Host seconds at the reference speed: CPU seconds scaled by the
            # calibration kernel's reference time over its time around this
            # repeat.
            cal_after = calibrate()
            rates.append(stages / (cpu * REF_CAL_S / ((cal_before + cal_after) / 2)))
            cal_before = cal_after
            done = len(rates) >= MIN_REPEATS
        if done and time.perf_counter() >= deadline:
            break

    for v in report.violations:
        print(f"check failed: {v}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name, unit in UNITS.items():
            value = statistics.median(run[name] for run in layers)
            metrics[name] = int(value) if unit == "count" else value
        write_trace(
            OUT / "trace" / f"{wl.name}-seed{args.seed}.json",
            spans,
            {
                "per_layer": metrics,
                "traced_repeats": layers,
                "untraced_cpu_s": warm_cpu,
                "traced_cpu_s": traced_cpu,
                "stages_per_repeat": warm_stages,
            },
        )
        result_metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    else:
        result_metrics = {
            "stages_per_s": {"value": statistics.median(rates), "unit": "stages/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(json.dumps({
        "correct": not report.violations,
        "attempted": report.invocations,
        "failed": report.failed,
        "metrics": result_metrics,
    }))
    return 1 if report.violations else 0


if __name__ == "__main__":
    sys.exit(main())
