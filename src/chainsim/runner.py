"""Experiment execution: replications, sweeps, and file emission.

Replication r runs with seed base_seed + r; swept points reuse the same
seeds so compared points share common random numbers. Each (point,
replication) gets its own directory of CSVs; a single summary.json at the
output root holds one record per (point, replication), in a fixed order so
reruns are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import engine, metrics
from .config import Scenario, SweepSpec
from .config import scenario_from_raw  # noqa: F401  bench/tracer.py wraps this name here


@dataclass
class PointResult:
    """One (point, replication): its summary record, as written to summary.json, and its log."""

    point: int
    record: dict
    log: engine.MetricsLog


def run_experiment(scenario: Scenario, out_dir: str | Path, emit_plotdata: bool = False) -> list[PointResult]:
    """Run one config's replications and write rep_### dirs plus summary.json."""
    return _run_points(None, [(None, scenario)], Path(out_dir), emit_plotdata)


def run_sweep(sweep: SweepSpec, out_dir: str | Path, emit_plotdata: bool = False) -> list[PointResult]:
    """Run every (point, replication) of a sweep; point_###/rep_### layout."""
    points = list(zip(sweep.values, sweep.scenarios))
    return _run_points(sweep.field, points, Path(out_dir), emit_plotdata)


def _run_points(
    swept_field: str | None, points: list[tuple[Any, Scenario]], out: Path, emit_plotdata: bool
) -> list[PointResult]:
    """Run and write every (point, replication); an unswept run has no point_### level."""
    results = []
    for p, (value, scenario) in enumerate(points):
        point_dir = out if swept_field is None else out / f"point_{p:03d}"
        for r in range(scenario.replications):
            seed = scenario.seed + r
            log = engine.run(scenario, seed=seed)
            _write_run_dir(point_dir / f"rep_{r:03d}", log)
            record = {
                "point": p,
                "swept_field": swept_field,
                "swept_value": value,
                "replication": r,
                "seed": seed,
            }
            record.update(metrics.summary_record(log))
            results.append(PointResult(p, record, log))
    records = [res.record for res in results]
    (out / "summary.json").write_text(json.dumps({"records": records}, indent=2) + "\n", encoding="utf-8")
    if emit_plotdata:
        (out / "plotdata.csv").write_text(metrics.plotdata_csv(records), encoding="utf-8")
    return results


def _write_run_dir(dirpath: Path, log: engine.MetricsLog) -> None:
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / "invocations.csv").write_text(metrics.invocations_csv(log), encoding="utf-8")
    (dirpath / "links.csv").write_text(metrics.links_csv(log), encoding="utf-8")
    (dirpath / "workers.csv").write_text(metrics.workers_csv(log), encoding="utf-8")

