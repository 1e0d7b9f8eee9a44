"""The benchmark's three workloads, as scenario documents made from a seed.

Each workload is one JSON document that chainsim loads itself: a scenario
for the two chain workloads, a sweep with an inline base for the DAG one.
The topology, functions and rates are fixed; only the scenario seed comes
from ``--seed``, so arrivals, payloads and compute factors are drawn by the
program from its own seeded streams. Every workload uses open-loop Poisson
arrivals.

chainsim must already be importable when this module is imported.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from chainsim import config, runner

CORE_SPEED = 1e6  # ops/s on every worker
WAN = {"propagation": 0.002, "rate": 1.25e8}  # client to broker, 1 Gbit/s
CORE = {"propagation": 0.001, "rate": 1.25e8}  # broker to broker
EDGE = {"propagation": 0.0005, "rate": 1.25e7}  # broker to worker, 100 Mbit/s

# A 4-stage stateful chain; mean work at the 10 kB mean payload is
# 30k + 80k + 45k + 21.25k = 176.25k ops, so one invocation is 0.17625
# core-seconds at CORE_SPEED.
CHAIN_FUNCTIONS = [
    {"id": "ingest", "fixed_ops": 20000.0, "ops_per_byte": 1.0, "output_ratio": 1.0, "state_size": 5000.0},
    {"id": "detect", "fixed_ops": 60000.0, "ops_per_byte": 2.0, "output_ratio": 0.5, "state_size": 20000.0},
    {"id": "track", "fixed_ops": 40000.0, "ops_per_byte": 1.0, "output_ratio": 0.5, "state_size": 10000.0},
    {"id": "report", "fixed_ops": 20000.0, "ops_per_byte": 0.5, "output_ratio": 0.1, "state_size": 2500.0},
]
CHAIN_PAYLOAD_MEAN = 10000.0
CHAIN_CORE_S = 0.17625

# Fan-out/fan-in: split feeds three branches that join at merge. Mean work
# at the 4 kB payload is 6k + 3 x ~8.7k + 5.2k ops, about 37.3k ops.
DAG_FUNCTIONS = [
    {"id": "split", "fixed_ops": 2000.0, "ops_per_byte": 1.0, "output_ratio": 1.0, "state_size": 1000.0},
    {"id": "branch_a", "fixed_ops": 6000.0, "ops_per_byte": 0.5, "output_ratio": 0.5, "state_size": 0.0},
    {"id": "branch_b", "fixed_ops": 8000.0, "ops_per_byte": 0.25, "output_ratio": 0.25, "state_size": 0.0},
    {"id": "branch_c", "fixed_ops": 4000.0, "ops_per_byte": 1.0, "output_ratio": 0.75, "state_size": 0.0},
    {"id": "merge", "fixed_ops": 3000.0, "ops_per_byte": 1.0, "output_ratio": 0.1, "state_size": 2000.0},
]
DAG_EDGES = [
    ["split", "branch_a"], ["split", "branch_b"], ["split", "branch_c"],
    ["branch_a", "merge"], ["branch_b", "merge"], ["branch_c", "merge"],
]
DAG_PAYLOAD_MEAN = 4000.0


def _topology(brokers: int, workers_per_broker: int, cores: int) -> dict:
    """Client 0, brokers 1..B in a full mesh, workers behind each broker."""
    nodes = [{"id": 0, "role": "client"}]
    links = []
    broker_ids = list(range(1, brokers + 1))
    for b in broker_ids:
        nodes.append({"id": b, "role": "broker"})
        links.append({"endpoint_a": 0, "endpoint_b": b, **WAN})
    for i, a in enumerate(broker_ids):
        for b in broker_ids[i + 1:]:
            links.append({"endpoint_a": a, "endpoint_b": b, **CORE})
    wid = brokers + 1
    for b in broker_ids:
        for _ in range(workers_per_broker):
            nodes.append({"id": wid, "role": "worker", "cores": cores, "core_speed": CORE_SPEED})
            links.append({"endpoint_a": b, "endpoint_b": wid, **EDGE})
            wid += 1
    return {"nodes": nodes, "links": links}


def _chain_scenario(seed, brokers, workers_per_broker, rho, horizon, policy, state_mode) -> dict:
    workers = brokers * workers_per_broker
    rate = rho * workers * 2 / CHAIN_CORE_S
    return {
        "topology": _topology(brokers, workers_per_broker, cores=2),
        "workflows": [{
            "app_id": "chain",
            "client": 0,
            "entry_payload": CHAIN_PAYLOAD_MEAN,
            "functions": CHAIN_FUNCTIONS,
            "chain": [f["id"] for f in CHAIN_FUNCTIONS],
        }],
        "workload": {
            "rates": {"chain": rate},
            "horizon": horizon,
            "payload": {"kind": "exponential", "mean": CHAIN_PAYLOAD_MEAN},
            "compute_randomization": True,
        },
        "policy": policy,
        "state_mode": state_mode,
        "seed": seed,
        "replications": 1,
    }


def chain32_mle_migrate(seed: int) -> dict:
    return _chain_scenario(seed, brokers=4, workers_per_broker=8, rho=0.7, horizon=3.0,
                           policy="min_latency_estimate", state_mode="remote_migrate")


def chain4_overload_ll_fixed(seed: int) -> dict:
    return _chain_scenario(seed, brokers=1, workers_per_broker=4, rho=1.3, horizon=110.0,
                           policy="least_loaded", state_mode="remote_fixed")


def dag_sweep_rr_embedded(seed: int) -> dict:
    base = {
        "topology": _topology(brokers=2, workers_per_broker=4, cores=2),
        "workflows": [{
            "app_id": "fanout",
            "client": 0,
            "entry_payload": DAG_PAYLOAD_MEAN,
            "functions": DAG_FUNCTIONS,
            "dag": {"vertices": [f["id"] for f in DAG_FUNCTIONS], "edges": DAG_EDGES},
        }],
        "workload": {
            "rates": {"fanout": 1.0},
            "horizon": 6.0,
            "payload": {"kind": "exponential", "mean": DAG_PAYLOAD_MEAN},
            "compute_randomization": True,
        },
        "policy": "round_robin",
        "state_mode": "embedded",
        "seed": seed,
        "replications": 2,
    }
    # 16 cores at ~37.3k ops per invocation carry about 430 invocations/s.
    return {"base": base, "field": "arrival_rate", "values": [120.0, 220.0, 320.0]}


@dataclass(frozen=True)
class Workload:
    name: str
    make_doc: Callable[[int], dict]  # scenario seed -> document
    is_sweep: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain32-mle-migrate", chain32_mle_migrate, False),
        Workload("chain4-overload-ll-fixed", chain4_overload_ll_fixed, False),
        Workload("dag-sweep-rr-embedded", dag_sweep_rr_embedded, True),
    )
}


def write_doc(workload: Workload, seed: int, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(workload.make_doc(seed), indent=1) + "\n", encoding="utf-8")


def set_up(workload: Workload, doc_path: Path):
    """Load, validate and build every scenario of the workload (with routes)."""
    raw = config.load_json(doc_path)
    if workload.is_sweep:
        spec, errs = config.sweep_from_raw(raw)
    else:
        spec, errs = config.scenario_from_raw(raw)
    if spec is None:
        raise ValueError(f"{workload.name}: invalid document: " + "; ".join(errs))
    return spec


def execute(workload: Workload, spec, out_dir: Path) -> list:
    """Run every replication and write every output file; returns PointResults."""
    if workload.is_sweep:
        return runner.run_sweep(spec, out_dir)
    return runner.run_experiment(spec, out_dir)


def point_docs(workload: Workload, doc: dict) -> list[dict]:
    """The scenario document of each sweep point, in point order.

    Made here rather than by chainsim, so the output checks do not rest on
    the program's own sweep expansion. Only arrival-rate sweeps are used.
    """
    if not workload.is_sweep:
        return [doc]
    points = []
    for value in doc["values"]:
        point = copy.deepcopy(doc["base"])
        point["workload"]["rates"] = {app: value for app in point["workload"]["rates"]}
        points.append(point)
    return points
