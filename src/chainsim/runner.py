"""Experiment execution: replications, sweeps, and file emission.

Replication r runs with seed base_seed + r; swept points reuse the same
seeds so compared points share common random numbers. Each (point,
replication) gets its own directory of CSVs; a single summary.json at the
output root holds one record per (point, replication), in a fixed order so
reruns are byte-identical. Every replication is run and checked before any
file is written, so a run that fails writes nothing.
"""

from __future__ import annotations

import json
import math
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
    """Run and check every (point, replication), then write them all; an unswept run has no point_### level."""
    results = []
    files: list[tuple[Path, str]] = []  # (path, text) of every output file, in write order
    for p, (value, scenario) in enumerate(points):
        point_dir = out if swept_field is None else out / f"point_{p:03d}"
        for r in range(scenario.replications):
            seed = scenario.seed + r
            log = engine.run(scenario, seed=seed)
            rows = metrics.invocation_rows(log)
            record = {
                "point": p,
                "swept_field": swept_field,
                "swept_value": value,
                "replication": r,
                "seed": seed,
            }
            record.update(metrics.summary_record(log, rows))
            _check_finite(log, record)
            rep_dir = point_dir / f"rep_{r:03d}"
            files += [
                (rep_dir / "invocations.csv", metrics.invocations_csv(rows)),
                (rep_dir / "links.csv", metrics.links_csv(log)),
                (rep_dir / "workers.csv", metrics.workers_csv(log)),
            ]
            results.append(PointResult(p, record, log))
    records = [res.record for res in results]
    files.append((out / "summary.json", json.dumps({"records": records}, indent=2) + "\n"))
    if emit_plotdata:
        files.append((out / "plotdata.csv", metrics.plotdata_csv(records)))
    for path, text in files:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return results


def _check_finite(log: engine.MetricsLog, record: dict) -> None:
    """Refuse a replication whose summary or link totals overflowed."""
    where = f"point {record['point']}, replication {record['replication']}"
    for key, value in record.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise engine.EngineError(f"non-finite {key} at {where}")
    for (a, b), nbytes in sorted(log.link_bytes.items()):
        if not math.isfinite(nbytes):
            raise engine.EngineError(f"non-finite byte total on link {a}-{b} at {where}")
