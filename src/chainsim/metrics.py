"""Run metrics: percentiles, CSV serialization, summary statistics.

Each invocation's row is derived once, by ``invocation_rows``; the runner
writes that row list to invocations.csv and folds the same list, in ``inv_id``
order, into the summary's latency statistics and totals.
The CSV round-trips floats exactly (repr formatting), so recomputing a
summary from invocations.csv reproduces the runner's numbers.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, Mapping, Sequence

from .engine import MetricsLog

INVOCATIONS_HEADER = [
    "inv_id",
    "app",
    "arrival_s",
    "completion_s",
    "latency_s",
    "stages",
    "state_bytes",
    "migrations",
]
LINKS_HEADER = ["node_a", "node_b", "bytes"]
WORKERS_HEADER = ["worker_id", "busy_s", "utilization"]
PLOTDATA_HEADER = [  # keys of the runner's summary records
    "point",
    "swept_value",
    "seed",
    "mean_latency_s",
    "p50_latency_s",
    "p95_latency_s",
    "p99_latency_s",
]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p*n)-th order statistic."""
    if not values:
        raise ValueError("percentile of empty input")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return _nearest_rank(sorted(values), p)


def _nearest_rank(ordered: Sequence[float], p: float) -> float:
    """The ceil(p*n)-th of the sorted, non-empty ``ordered``, for p in (0, 1]."""
    return ordered[math.ceil(p * len(ordered)) - 1]


def _csv_text(header: list[str], rows: Iterable[Iterable]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)  # floats as repr, None as an empty field
    return buf.getvalue()


def invocation_rows(m: MetricsLog) -> list[list]:
    """One ``INVOCATIONS_HEADER`` row per invocation; state bytes are summed in stage order."""
    rows = []
    for inv in m.invocations:
        state_bytes = 0.0
        migrations = 0
        for rec in inv.stages.values():
            state_bytes += rec.state_bytes
            migrations += rec.migration
        rows.append(
            [inv.inv_id, inv.app, inv.arrival, inv.completion, inv.latency, len(inv.stages), state_bytes, migrations]
        )
    return rows


def invocations_csv(rows: Iterable[list]) -> str:
    """invocations.csv from ``invocation_rows`` of one log."""
    return _csv_text(INVOCATIONS_HEADER, rows)


def links_csv(m: MetricsLog) -> str:
    return _csv_text(LINKS_HEADER, ([a, b, m.link_bytes[(a, b)]] for a, b in sorted(m.link_bytes)))


def workers_csv(m: MetricsLog) -> str:
    rows = ([wid, m.worker_busy[wid], m.utilization[wid]] for wid in sorted(m.worker_busy))
    return _csv_text(WORKERS_HEADER, rows)


def plotdata_csv(records: Iterable[Mapping]) -> str:
    """One row per summary record: its point, swept value, seed and latency statistics."""
    return _csv_text(PLOTDATA_HEADER, ([rec[key] for key in PLOTDATA_HEADER] for rec in records))


def summary_record(m: MetricsLog, rows: Iterable[list]) -> dict:
    """Per-replication summary of ``m``, folded from its ``invocation_rows`` in row order.

    Latency stats are None when nothing completed.
    """
    latencies = []
    state_bytes = 0.0
    migrations = 0
    for *_, latency, _stages, row_state_bytes, row_migrations in rows:
        if latency is not None:
            latencies.append(latency)
        state_bytes += row_state_bytes
        migrations += row_migrations
    record: dict = {
        "injected": m.injected,
        "completed": m.completed,
        "in_flight_at_end": m.in_flight_at_end,
        "throughput_per_s": m.completed / m.horizon,
        "total_state_bytes": state_bytes,
        "total_migrations": migrations,
        "utilization": {str(wid): m.utilization[wid] for wid in sorted(m.utilization)},
    }
    record.update(_latency_stats(latencies))
    return record


def _latency_stats(latencies: Sequence[float]) -> dict:
    if not latencies:
        return {
            "mean_latency_s": None,
            "p50_latency_s": None,
            "p95_latency_s": None,
            "p99_latency_s": None,
        }
    total = 0.0
    for x in latencies:
        total += x
    ordered = sorted(latencies)
    return {
        "mean_latency_s": total / len(latencies),
        "p50_latency_s": _nearest_rank(ordered, 0.50),
        "p95_latency_s": _nearest_rank(ordered, 0.95),
        "p99_latency_s": _nearest_rank(ordered, 0.99),
    }

