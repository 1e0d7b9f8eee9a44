"""Independent checks of one simulated run against the benchmark's own model.

Nothing here calls chainsim. The model is read from the scenario document
the benchmark wrote, and every expected quantity is recomputed here: input
bytes by DAG propagation, busy seconds per worker, a zero-load latency
floor by longest-path DP, and the arrival count. The checks read the
program's in-memory log (``MetricsLog``) through its attributes only, and
parse the files the program wrote (CSVs and summary.json) with their own
reader, to show that every file says what the log says.

A check on one invocation fails that invocation; a check on the whole run
adds a violation, and any violation fails the benchmark run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REL_TOL = 1e-9  # float sums here and in the engine run in different orders
ABS_TOL_S = 1e-9
POISSON_SIGMAS = 5.0


@dataclass
class Report:
    invocations: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)

    def merge(self, other: "Report") -> None:
        self.invocations += other.invocations
        self.failed += other.failed
        self.violations.extend(other.violations)


def _all_pairs(ids: list[int], links: list[dict], weight) -> dict[int, dict[int, float]]:
    """Floyd-Warshall minimum of ``weight`` summed over a path's links."""
    dist = {a: {b: (0.0 if a == b else math.inf) for b in ids} for a in ids}
    for lk in links:
        a, b, w = lk["endpoint_a"], lk["endpoint_b"], weight(lk)
        if w < dist[a][b]:
            dist[a][b] = dist[b][a] = w
    for k in ids:
        dk = dist[k]
        for a in ids:
            da = dist[a]
            via = da[k]
            if via == math.inf:
                continue
            for b in ids:
                if via + dk[b] < da[b]:
                    da[b] = via + dk[b]
    return dist


class _App:
    """One workflow's functions and DAG, vertices in topological order."""

    def __init__(self, wf: dict):
        self.client = wf["client"]
        self.functions = {f["id"]: f for f in wf["functions"]}
        if "chain" in wf:
            vertices = list(wf["chain"])
            edges = list(zip(vertices, vertices[1:]))
        else:
            vertices = list(wf["dag"]["vertices"])
            edges = [tuple(e) for e in wf["dag"]["edges"]]
        self.vertices = frozenset(vertices)
        self.preds = {v: sorted(p for p, q in edges if q == v) for v in vertices}
        succs = {v: [q for p, q in edges if p == v] for v in vertices}
        self.order = []
        indeg = {v: len(ps) for v, ps in self.preds.items()}
        ready = [v for v, k in indeg.items() if k == 0]
        while ready:
            v = ready.pop()
            self.order.append(v)
            for q in succs[v]:
                indeg[q] -= 1
                if indeg[q] == 0:
                    ready.append(q)
        (self.sink,) = [v for v in vertices if not succs[v]]


class Model:
    """What the checks know about one scenario point, from its document."""

    def __init__(self, doc: dict):
        topo = doc["topology"]
        ids = [n["id"] for n in topo["nodes"]]
        self.speed = {n["id"]: n["core_speed"] for n in topo["nodes"] if n["role"] == "worker"}
        self.cores = {n["id"]: n["cores"] for n in topo["nodes"] if n["role"] == "worker"}
        self.prop = _all_pairs(ids, topo["links"], lambda lk: lk["propagation"])
        self.inv_rate = _all_pairs(ids, topo["links"], lambda lk: 1.0 / lk["rate"])
        self.apps = {wf["app_id"]: _App(wf) for wf in doc["workflows"]}
        self.rates = dict(doc["workload"]["rates"])
        self.horizon = doc["workload"]["horizon"]
        self.replications = doc["replications"]

    def transfer_floor(self, src: int, dst: int, nbytes: float) -> float:
        """No route is faster: least propagation plus bytes at the least 1/rate sum."""
        return self.prop[src][dst] + nbytes * self.inv_rate[src][dst]


def check_log(model: Model, log) -> Report:
    """Drain completeness, latency floor, work conservation and arrival count."""
    rep = Report(invocations=len(log.invocations))
    busy: dict[int, list[float]] = {w: [] for w in model.speed}
    arrivals: dict[str, int] = {app: 0 for app in model.rates}

    for inv in log.invocations:
        app = model.apps[inv.app]
        arrivals[inv.app] += 1
        if not 0.0 <= inv.arrival < model.horizon:
            rep.violations.append(f"invocation {inv.inv_id} arrives at {inv.arrival!r}, outside [0, horizon)")
        complete = inv.completion is not None and set(inv.stages) == app.vertices
        if not complete:
            rep.failed += 1
            continue
        done: dict[str, float] = {}
        out: dict[str, float] = {}
        where: dict[str, int] = {}
        for v in app.order:
            f = app.functions[v]
            w = inv.stages[v].worker
            preds = app.preds[v]
            if not preds:
                inp = inv.payload
                ready = model.transfer_floor(app.client, w, inp)
            else:
                inp = math.fsum(out[p] for p in preds)
                # Path-sum join rule: the floor under max(done + xfer) is
                # also a floor under max(done) + max(xfer).
                ready = max(done[p] + model.transfer_floor(where[p], w, out[p]) for p in preds)
            service = (f["fixed_ops"] * inv.compute_factor + f["ops_per_byte"] * inp) / model.speed[w]
            busy[w].append(service)
            done[v] = ready + service
            out[v] = f["output_ratio"] * inp
            where[v] = w
        floor = done[app.sink] + model.transfer_floor(where[app.sink], app.client, out[app.sink])
        if inv.latency < floor - ABS_TOL_S - REL_TOL * floor:
            rep.failed += 1

    if not (log.injected == len(log.invocations) == log.completed) or log.in_flight_at_end != 0:
        rep.violations.append(
            f"drain: injected {log.injected}, records {len(log.invocations)}, "
            f"completed {log.completed}, in flight {log.in_flight_at_end}"
        )
    for w, parts in busy.items():
        expected = math.fsum(parts)
        got = log.worker_busy.get(w)
        if got is None or not math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL_S):
            rep.violations.append(f"work conservation: worker {w} busy {got!r} s, expected {expected!r} s")
    for app_id, n in arrivals.items():
        mean = model.rates[app_id] * model.horizon
        if abs(n - mean) > POISSON_SIGMAS * math.sqrt(mean):
            rep.violations.append(f"poisson: {n} arrivals of {app_id}, expected {mean:.1f} +- 5 sigma")
    return rep


def check_identical(reference: dict[str, str], hashes: dict[str, str], what: str) -> list[str]:
    """Output files of two runs of the same inputs must be byte-identical."""
    if reference == hashes:
        return []
    differ = sorted(k for k in reference.keys() | hashes.keys() if reference.get(k) != hashes.get(k))
    return [f"determinism: {what}: {len(differ)} output file(s) differ, first {differ[0]}"]


RUN_FILES = {
    "invocations.csv": ["inv_id", "app", "arrival_s", "completion_s", "latency_s", "stages", "state_bytes", "migrations"],
    "links.csv": ["node_a", "node_b", "bytes"],
    "workers.csv": ["worker_id", "busy_s", "utilization"],
}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL_S)


def _nearest_rank(ordered: list[float], p: float) -> float:
    return ordered[math.ceil(p * len(ordered)) - 1]


def _rows_match(path: Path, expected: list[list], same) -> list[str]:
    """Compare a CSV's data rows with ``expected``; ``same(cells, row)`` per row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RUN_FILES[path.name]:
            return [f"files: {path}: header {header!r}"]
        n, bad, first = 0, 0, None
        for cells, row in zip(reader, expected):
            n += 1
            try:
                ok = same(cells, row)
            except (ValueError, IndexError):
                ok = False
            if not ok:
                bad += 1
                first = first or n
        n += sum(1 for _ in reader)
    out = []
    if n != len(expected):
        out.append(f"files: {path}: {n} data rows, expected {len(expected)}")
    if bad:
        out.append(f"files: {path}: {bad} row(s) disagree with the log, first data row {first}")
    return out


def _check_run_dir(d: Path, model: Model, log) -> tuple[list[str], dict]:
    """Check one replication's CSVs against its log; returns the summary it implies."""
    invs = log.invocations
    state = [math.fsum(s.state_bytes for s in inv.stages.values()) for inv in invs]
    migrations = [sum(1 for s in inv.stages.values() if s.migration) for inv in invs]

    def inv_same(c, k):
        inv = invs[k]
        if inv.completion is None:
            times = c[3] == c[4] == ""
        else:
            times = float(c[3]) == inv.completion and float(c[4]) == inv.completion - inv.arrival
        return (
            times and int(c[0]) == inv.inv_id and c[1] == inv.app and float(c[2]) == inv.arrival
            and int(c[5]) == len(inv.stages) and _close(float(c[6]), state[k]) and int(c[7]) == migrations[k]
        )

    workers = sorted(model.speed)
    util = {
        w: log.worker_busy[w] / (model.cores[w] * log.end_time) if w in log.worker_busy and log.end_time > 0 else 0.0
        for w in workers
    }

    def worker_same(c, w):
        return int(c[0]) == w and float(c[1]) == log.worker_busy[w] and _close(float(c[2]), util[w])

    links = sorted(log.link_bytes.items())

    def link_same(c, link):
        (a, b), nbytes = link
        return int(c[0]) == a and int(c[1]) == b and float(c[2]) == nbytes

    out = _rows_match(d / "invocations.csv", list(range(len(invs))), inv_same)
    out += _rows_match(d / "workers.csv", workers, worker_same)
    out += _rows_match(d / "links.csv", links, link_same)

    latencies = sorted(inv.completion - inv.arrival for inv in invs if inv.completion is not None)
    summary = {
        "injected": len(invs),
        "completed": len(latencies),
        "in_flight_at_end": len(invs) - len(latencies),
        "throughput_per_s": len(latencies) / model.horizon,
        "total_state_bytes": math.fsum(state),
        "total_migrations": sum(migrations),
        "utilization": {str(w): util[w] for w in workers},
        "mean_latency_s": math.fsum(latencies) / len(latencies) if latencies else None,
    }
    for key, p in (("p50_latency_s", 0.50), ("p95_latency_s", 0.95), ("p99_latency_s", 0.99)):
        summary[key] = _nearest_rank(latencies, p) if latencies else None
    return out, summary


def _same_value(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(_same_value(got[k], want[k]) for k in want)
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return _close(got, want)
    return type(got) is type(want) and got == want


def check_files(out_dir: Path, models: list[Model], results, seed: int, sweep: tuple | None) -> list[str]:
    """Every file the runner wrote must hold exactly what the run's logs hold.

    ``results`` are the runner's PointResults, in (point, replication) order;
    only their ``log`` is read. ``seed`` is the document's scenario seed and
    ``sweep`` its (field, values), or None for a single scenario.
    """
    out_dir = Path(out_dir)
    expected = [
        (p, r, out_dir / (f"point_{p:03d}/rep_{r:03d}" if sweep else f"rep_{r:03d}"))
        for p, model in enumerate(models)
        for r in range(model.replications)
    ]
    want_files = {(d / name).relative_to(out_dir).as_posix() for _, _, d in expected for name in RUN_FILES}
    want_files.add("summary.json")
    got_files = {q.relative_to(out_dir).as_posix() for q in out_dir.rglob("*") if q.is_file()}
    if got_files != want_files:
        extra, missing = sorted(got_files - want_files), sorted(want_files - got_files)
        return [f"files: output tree differs: extra {extra[:3]}, missing {missing[:3]}"]
    if len(results) != len(expected):
        return [f"files: {len(results)} results, expected {len(expected)} (point, replication) pairs"]

    out: list[str] = []
    records = []
    for (p, r, d), res in zip(expected, results):
        problems, summary = _check_run_dir(d, models[p], res.log)
        out += problems
        records.append({
            "point": p,
            "swept_field": sweep[0] if sweep else None,
            "swept_value": sweep[1][p] if sweep else None,
            "replication": r,
            "seed": seed + r,
            **summary,
        })
    try:
        got = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return out + [f"files: summary.json unreadable: {exc}"]
    if not isinstance(got, list) or len(got) != len(records):
        return out + [f"files: summary.json has {len(got) if isinstance(got, list) else got!r} records, expected {len(records)}"]
    for k, (g, want) in enumerate(zip(got, records)):
        if not _same_value(g, want):
            keys = sorted(key for key in want if not (isinstance(g, dict) and _same_value(g.get(key), want[key])))
            out.append(f"files: summary.json record {k} disagrees with the log on {keys}")
    return out
