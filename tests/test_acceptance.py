"""Acceptance suite: one test per criterion, tolerances pinned inline.

Each test prints a PASS line on success (visible with ``pytest -s`` or in
the verbose run log); criteria with a runtime budget assert it.
"""

import csv
import itertools
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from chainsim import engine, metrics
from chainsim.cli import main
from chainsim.config import load_json, scenario_from_raw, sweep_from_raw
from chainsim.dispatch import (
    DispatchContext,
    PolicyKind,
    choose_worker,
    estimate_completion,
)
from chainsim.state import StateMode
from chainsim.topology import LinkSpec, NodeSpec, Topology, build_routes
from chainsim.workflow import AppWorkflow, FunctionSpec, critical_path_time

from helpers import (
    brute_force_routes,
    chain_scenario_raw,
    enumerate_critical_path,
    loaded_runtimes,
    random_chain_scenario_raw,
    random_dag,
    random_topology,
    route_propagation,
    summary_from_rows,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ALL_POLICIES = ["random", "round_robin", "least_loaded", "state_local", "min_latency_estimate"]
ALL_MODES = ["embedded", "remote_fixed", "remote_migrate"]


def _report(n: int, name: str) -> None:
    print(f"ACCEPTANCE criterion {n:02d} ({name}): PASS")


def _build(raw, explicit=None):
    sc, errs = scenario_from_raw(raw)
    assert not errs, errs
    if explicit is not None:
        sc.explicit_arrivals = explicit
    return sc


def test_criterion_01_zero_load_oracle():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    combos = itertools.cycle(itertools.product(ALL_POLICIES, ALL_MODES))
    for k in range(50):
        policy, mode = next(combos)
        raw = random_chain_scenario_raw(rng, seed=k, policy=policy, state_mode=mode)
        sc = _build(raw, explicit={"app": [0.0]})
        log = engine.run(sc)
        assert log.completed == 1
        inv = log.invocations[0]
        app = sc.apps["app"]
        assignment = {fid: rec.worker for fid, rec in inv.stages.items()}
        analytic = critical_path_time(
            app,
            assignment,
            sc.routes,
            None,
            sc.state_mode,
            workers={n.id: n for n in sc.topology.workers()},
            entry_payload=inv.payload,
        )
        assert abs(inv.latency - analytic) <= 1e-9, (policy, mode, raw)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"zero-load oracle took {elapsed:.2f}s"
    _report(1, "zero-load oracle, 50 random chain scenarios")


def test_criterion_02_dag_critical_path_vs_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(2002)
    topo = Topology(
        (
            NodeSpec(0, "client"),
            NodeSpec(1, "worker", 2, 1e6),
            NodeSpec(2, "worker", 1, 3e6),
            NodeSpec(3, "worker", 1, 5e5),
        ),
        (
            LinkSpec(0, 1, 0.001, 1e6),
            LinkSpec(0, 2, 0.002, 5e6),
            LinkSpec(1, 2, 0.0005, 1e7),
            LinkSpec(2, 3, 0.003, 1e6),
        ),
    )
    rt = build_routes(topo)
    workers = {n.id: n for n in topo.workers()}
    for k in range(100):
        d, entry = random_dag(rng, max_vertices=10)
        fns = {
            v: FunctionSpec(
                v,
                fixed_ops=rng.choice([0.0, 1e3, 1e5, 1e6]),
                ops_per_byte=rng.choice([0.5, 1.0, 4.0]),
                output_ratio=rng.choice([0.0, 0.3, 1.0, 2.0]),
                state_size=rng.choice([0.0, 1e3, 5e4]),
            )
            for v in d.vertices
        }
        a = {v: rng.choice([1, 2, 3]) for v in d.vertices}
        mode = StateMode(rng.choice(ALL_MODES))
        hosts = {}
        for v in sorted(d.vertices):
            if fns[v].state_size > 0 and rng.random() < 0.6:
                hosts["app", v] = rng.choice([1, 2, 3])
        app = AppWorkflow("app", d, fns, 0, entry)
        got = critical_path_time(app, a, rt, hosts, mode, workers=workers)
        expected = enumerate_critical_path(app, a, rt, hosts, mode, workers=workers)
        assert got == expected, f"dag #{k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"critical-path check took {elapsed:.2f}s"
    _report(2, "critical path equals path enumeration on 100 random DAGs")


def test_criterion_03_routing_vs_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(3003)
    for k in range(100):
        t = random_topology(rng, max_nodes=7)
        rt = build_routes(t)
        expected = brute_force_routes(t)
        ids = [n.id for n in t.nodes]
        assert len(expected) == len(ids) ** 2
        for key, (prop, path) in expected.items():
            route = rt.route(*key)
            assert route.path == path, f"topology #{k}, pair {key}"
            assert route_propagation(route) == prop, f"topology #{k}, pair {key}"
            assert len(route.hops) == len(path) - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"routing check took {elapsed:.2f}s"
    _report(3, "routes equal all-paths minimization on 100 random topologies")


def test_criterion_04_mm1():
    t0 = time.perf_counter()
    lam, mu = 0.5, 1.0
    raw = load_json(CONFIGS / "mm1.json")
    raw["workload"]["rates"]["mm1"] = lam
    raw["workload"]["horizon"] = 420_000.0
    raw["seed"] = 4000
    log = engine.run(_build(raw))
    latencies = [inv.latency for inv in log.invocations if inv.latency is not None]
    assert len(latencies) >= 200_000
    mean = sum(latencies) / len(latencies)
    expected = 1.0 / (mu - lam)
    assert abs(mean - expected) / expected < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"M/M/1 took {elapsed:.2f}s"
    _report(4, f"M/M/1 mean latency {mean:.4f} vs 1/(mu-lambda) {expected:.4f}")


def test_criterion_05_determinism(tmp_path):
    raw = chain_scenario_raw(n_workers=2, chain_len=2, policy="random", rate=25.0, horizon=4.0)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "rep_000" / "invocations.csv").read_bytes() == (
        out2 / "rep_000" / "invocations.csv"
    ).read_bytes()

    arrivals = {}
    for seed in (1, 2):
        log = engine.run(_build({**raw, "seed": seed}))
        arrivals[seed] = [inv.arrival for inv in log.invocations]
    assert arrivals[1] != arrivals[2]
    _report(5, "same seed byte-identical, different seeds differ")


def test_criterion_06_conservation_and_link_accounting():
    rng = random.Random(6006)
    scenarios = []
    for mode, policy in itertools.product(ALL_MODES, ["round_robin", "min_latency_estimate"]):
        scenarios.append(
            chain_scenario_raw(
                n_workers=3, chain_len=3, policy=policy, state_mode=mode,
                state_size=3000.0, rate=30.0, horizon=4.0, seed=rng.randrange(1 << 32),
            )
        )
    scenarios.append(load_json(CONFIGS / "diamond_dag.json"))
    scenarios.append(load_json(CONFIGS / "multi_app.json"))
    for raw in scenarios:
        log = engine.run(_build(raw))
        assert log.injected == log.completed + log.in_flight_at_end
        per_link = sum(log.link_bytes.values())
        per_stage = sum(rec.link_bytes for inv in log.invocations for rec in inv.stages.values())
        assert per_link == pytest.approx(per_stage, abs=1e-6)
    _report(6, "conservation and per-link byte accounting")


def test_criterion_07_state_properties():
    # (a) all-zero state sizes: the three modes agree under a common seed
    vectors = {}
    for mode in ALL_MODES:
        raw = chain_scenario_raw(
            n_workers=3, chain_len=3, policy="round_robin", state_mode=mode,
            state_size=0.0, rate=20.0, horizon=5.0, seed=777,
        )
        log = engine.run(_build(raw))
        vectors[mode] = [inv.latency for inv in log.invocations]
        assert metrics.summary_record(log, metrics.invocation_rows(log))["total_state_bytes"] == 0.0
    assert vectors["embedded"] == vectors["remote_fixed"] == vectors["remote_migrate"]

    # (b) state_local + remote_fixed never moves state bytes
    raw = chain_scenario_raw(
        n_workers=3, chain_len=2, policy="state_local", state_mode="remote_fixed",
        state_size=10_000.0, rate=40.0, horizon=5.0, seed=88,
    )
    log = engine.run(_build(raw))
    assert log.completed > 50
    assert metrics.summary_record(log, metrics.invocation_rows(log))["total_state_bytes"] == 0.0

    # (c) pinned two-worker ping-pong: exactly two invocations, round robin
    # sends them to w1 then w2; fixed pays fetch+writeback where migrate
    # pays a single transfer
    size = 5000.0
    totals = {}
    for mode in ("remote_fixed", "remote_migrate"):
        raw = chain_scenario_raw(
            n_workers=2, chain_len=1, policy="round_robin", state_mode=mode, state_size=size,
        )
        log = engine.run(_build(raw, explicit={"app": [0.0, 1.0]}))
        assert log.injected == 2
        totals[mode] = metrics.summary_record(log, metrics.invocation_rows(log))["total_state_bytes"]
    assert totals["remote_migrate"] == size
    assert totals["remote_fixed"] == 2 * size
    assert totals["remote_fixed"] == 2 * totals["remote_migrate"]
    _report(7, "state mode properties (zero-state parity, locality, 2x bytes)")


def test_criterion_08_policy_oracle():
    rng = random.Random(8008)
    ties_seen = 0
    for k in range(1000):
        n = rng.randint(2, 6)
        homogeneous = k % 5 == 0  # force exact ties regularly
        nodes = [NodeSpec(0, "client")]
        links = []
        for i in range(n):
            speed = 1e6 if homogeneous else rng.choice([2e5, 1e6, 4e6])
            cores = 1 if homogeneous else rng.randint(1, 4)
            nodes.append(NodeSpec(i + 1, "worker", cores, speed))
            prop = 0.001 if homogeneous else rng.choice([0.0005, 0.001, 0.005])
            rate = 1e6 if homogeneous else rng.choice([1e5, 1e6, 1e7])
            links.append(LinkSpec(0, i + 1, prop, rate))
        topo = Topology(tuple(nodes), tuple(links))
        rt = build_routes(topo)
        workers = {w.id: w for w in topo.workers()}
        candidates = tuple(sorted(workers))
        state_size = rng.choice([0.0, 1000.0])
        f = FunctionSpec(
            "f",
            fixed_ops=rng.choice([1e3, 1e5]),
            ops_per_byte=rng.choice([0.0, 1.0]),
            state_size=state_size,
        )
        host = rng.choice(candidates) if state_size and rng.random() < 0.8 else None
        backlog = {
            w: 0.0 if homogeneous else rng.choice([0.0, 500.0, 5000.0]) for w in candidates
        }
        ctx = DispatchContext(
            candidate_workers=candidates,
            routes=rt,
            rng=np.random.default_rng(k),
            loads=loaded_runtimes(workers, backlog),
            policy=PolicyKind.MIN_LATENCY_ESTIMATE,
            mode=StateMode(rng.choice(ALL_MODES)),
        )
        input_bytes = rng.choice([0.0, 1000.0, 50_000.0])
        got = choose_worker(ctx, f, ("app", "f"), input_bytes, 0.0, 0, host)
        estimates = {w: estimate_completion(ctx, f, w, input_bytes, 0.0, 0, host) for w in candidates}
        best = min(estimates.values())
        expected = min(w for w, e in estimates.items() if e == best)
        assert got == expected, f"context #{k}"
        if sum(1 for e in estimates.values() if e == best) > 1:
            ties_seen += 1
            assert got == min(w for w, e in estimates.items() if e == best)
    assert ties_seen > 50  # the homogeneous instances must actually tie
    _report(8, f"min-latency estimate argmin on 1000 contexts ({ties_seen} tied)")


def test_criterion_09_statistical_sanity():
    # Random dispatch uniformity over 10k draws, 3 sigma per candidate
    n_candidates = 5
    nodes = [NodeSpec(0, "client")] + [
        NodeSpec(i + 1, "worker", 1, 1e6) for i in range(n_candidates)
    ]
    links = [LinkSpec(0, i + 1, 0.001, 1e6) for i in range(n_candidates)]
    topo = Topology(tuple(nodes), tuple(links))
    rt = build_routes(topo)
    workers = {w.id: w for w in topo.workers()}
    ctx = DispatchContext(
        candidate_workers=tuple(range(1, n_candidates + 1)),
        routes=rt,
        rng=np.random.default_rng(909),
        loads=loaded_runtimes(workers, {}),
        policy=PolicyKind.RANDOM,
        mode=StateMode.EMBEDDED,
    )
    f = FunctionSpec("f", fixed_ops=1.0)
    draws = 10_000
    counts = {w: 0 for w in ctx.candidate_workers}
    for _ in range(draws):
        counts[choose_worker(ctx, f, ("app", "f"), 0.0, 0.0, 0, None)] += 1
    p = 1.0 / n_candidates
    sigma = (draws * p * (1 - p)) ** 0.5
    for w, c in counts.items():
        assert abs(c - draws * p) <= 3 * sigma, (w, c)

    # RoundRobin visits each of N candidates exactly once per N calls
    # (each candidate is a worker of the context: n = 6 names one the topology lacks)
    for n in range(2, 7):
        sub = tuple(range(1, n + 1))
        sub_workers = {w: NodeSpec(w, "worker", 1, 1e6) for w in sub}
        ctx_n = DispatchContext(
            candidate_workers=sub,
            routes=rt,
            rng=np.random.default_rng(0),
            loads=loaded_runtimes(sub_workers, {}),
            policy=PolicyKind.ROUND_ROBIN,
            mode=StateMode.EMBEDDED,
        )
        for cycle in range(3):
            seen = [choose_worker(ctx_n, f, ("app", "f"), 0.0, 0.0, 0, None) for _ in range(n)]
            assert sorted(seen) == list(sub), (n, cycle, seen)

    # Poisson inter-arrival mean within 2% with >= 100k samples
    from chainsim.workload import STREAM_ARRIVALS, gen_arrivals, substream

    rate, horizon = 1000.0, 120.0
    times = gen_arrivals(rate, horizon, substream(99, STREAM_ARRIVALS))
    assert len(times) >= 100_000
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean = sum(gaps) / len(gaps)
    assert abs(mean - 1.0 / rate) / (1.0 / rate) < 0.02
    _report(9, "random uniformity, round-robin cycles, poisson mean")


def test_criterion_10_cli_contract(tmp_path):
    valid = [
        "baseline_single_worker.json",
        "two_worker_chain.json",
        "diamond_dag.json",
        "mm1.json",
        "multi_app.json",
    ]
    invalid = [
        "invalid_disconnected.json",
        "invalid_cycle.json",
        "invalid_rate.json",
        "invalid_policy.json",
        "invalid_duplicate_node.json",
    ]
    for name in valid:
        assert main(["validate", str(CONFIGS / name)]) == 0, name
    for name in invalid:
        assert main(["validate", str(CONFIGS / name)]) == 1, name

    out = tmp_path / "sweep"
    assert main(["sweep", str(CONFIGS / "sweep_rates.json"), "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert len(doc["records"]) == 6
    assert {(r["point"], r["seed"]) for r in doc["records"]} == {
        (p, 1000 + r) for p in range(3) for r in range(2)
    }

    base = load_json(CONFIGS / "baseline_single_worker.json")
    horizon = base["workload"]["horizon"]
    for record in doc["records"]:
        rep_dir = out / f"point_{record['point']:03d}" / f"rep_{record['replication']:03d}"
        with open(rep_dir / "invocations.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        recomputed = summary_from_rows(rows, horizon=horizon)
        for key, value in recomputed.items():
            if isinstance(value, float):
                assert abs(record[key] - value) <= 1e-9, key
            else:
                assert record[key] == value, key
    _report(10, "validate exit codes, 3x2 sweep records, offline recompute")
