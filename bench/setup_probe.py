"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing chainsim, then loading, validating and building every
scenario of the workload, route tables included. numpy is imported before
the clock starts, so the figure is chainsim's own work and not that of its
dependency. Prints the process CPU seconds taken, scaled to the reference
machine's speed by the calibration kernel timed before and after.

Usage: python3 bench/setup_probe.py WORKLOAD SCENARIO_JSON
"""

import sys
import time

import numpy  # noqa: F401  imported untimed: its import dwarfs chainsim's

if __name__ == "__main__":
    name, doc_path = sys.argv[1], sys.argv[2]
    from common import REF_CAL_S, calibrate, import_chainsim

    cal_before = calibrate()
    start = time.process_time()
    import_chainsim()
    import workloads

    workloads.set_up(workloads.WORKLOADS[name], doc_path)
    cpu = time.process_time() - start
    print(repr(cpu * REF_CAL_S / ((cal_before + calibrate()) / 2)))
