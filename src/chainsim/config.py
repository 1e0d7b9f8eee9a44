"""Scenario configuration: JSON schema, validation, runtime scenario object.

A scenario config is a single JSON document with top-level fields
``topology``, ``workflows``, ``workload``, ``policy``, ``state_mode``,
``seed``, ``replications`` and optionally ``candidates``. Validation
returns human-readable violation strings rather than raising, so the CLI
can report all problems at once.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import workflow as wf
from .dispatch import PolicyKind
from .state import StateMode
from .topology import (
    LinkSpec,
    NodeSpec,
    RouteTable,
    Topology,
    build_routes,
    validate_topology,
)

MAX_SEED = 2**64 - 1

PAYLOAD_KINDS = ("constant", "uniform", "exponential")

SWEEPABLE_FIELDS = ("arrival_rate", "policy", "state_mode")  # plus link_rate:<a>-<b>


@dataclass(frozen=True)
class PayloadSpec:
    """Per-invocation entry payload distribution."""

    kind: str  # one of PAYLOAD_KINDS
    lo: float = 0.0
    hi: float = 0.0
    mean: float = 0.0


@dataclass
class AppWorkflow:
    """One application's workflow with derived structure precomputed."""

    app_id: str
    dag: wf.DagSpec
    functions: dict[str, wf.FunctionSpec]
    client: int
    source: str
    sink: str
    preds: dict[str, tuple[str, ...]]
    succs: dict[str, tuple[str, ...]]


@dataclass
class Scenario:
    """Validated runtime scenario; immutable by convention once built.

    ``explicit_arrivals`` bypasses workload generation with fixed arrival
    times per app; it is an internal hook for pinned experiments and tests
    and has no config-file counterpart.
    """

    topology: Topology
    routes: RouteTable
    apps: dict[str, AppWorkflow]
    rates: dict[str, float]
    horizon: float
    payload: PayloadSpec
    compute_randomization: bool
    policy: PolicyKind
    state_mode: StateMode
    candidates: tuple[int, ...]
    seed: int
    replications: int
    explicit_arrivals: dict[str, list[float]] | None = None


def load_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return doc


def _num(value: Any) -> float | None:
    """``value`` as a float if it is a finite number (not a bool), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _num_field(raw: dict, key: str, where: str, violations: list[str]) -> float:
    """An optional numeric field, 0.0 when absent; anything but a finite number is a violation."""
    x = _num(raw.get(key, 0.0))
    if x is None:
        violations.append(f"{where} {key} must be a finite number")
        return 0.0
    return x


def _parse_topology(raw: Any, violations: list[str]) -> Topology | None:
    if not isinstance(raw, dict):
        violations.append("topology must be an object with nodes and links")
        return None
    nodes = []
    for i, nd in enumerate(raw.get("nodes", [])):
        if not isinstance(nd, dict) or not isinstance(nd.get("id"), int):
            violations.append(f"topology.nodes[{i}] needs an integer id")
            continue
        where = f"topology.nodes[{i}]"
        cores = nd.get("cores", 0)
        if isinstance(cores, bool) or not isinstance(cores, int):
            violations.append(f"{where} cores must be an integer")
            cores = 0
        nodes.append(
            NodeSpec(
                id=nd["id"],
                role=str(nd.get("role", "")),
                cores=cores,
                core_speed=_num_field(nd, "core_speed", where, violations),
            )
        )
    links = []
    for i, lk in enumerate(raw.get("links", [])):
        if not isinstance(lk, dict) or not isinstance(lk.get("endpoint_a"), int) or not isinstance(
            lk.get("endpoint_b"), int
        ):
            violations.append(f"topology.links[{i}] needs integer endpoint_a and endpoint_b")
            continue
        links.append(
            LinkSpec(
                endpoint_a=lk["endpoint_a"],
                endpoint_b=lk["endpoint_b"],
                propagation=_num_field(lk, "propagation", f"topology.links[{i}]", violations),
                rate=_num_field(lk, "rate", f"topology.links[{i}]", violations),
            )
        )
    topo = Topology(tuple(nodes), tuple(links))
    violations.extend(validate_topology(topo))
    return topo


def _parse_workflow(raw: Any, topo: Topology | None, violations: list[str]) -> AppWorkflow | None:
    if not isinstance(raw, dict):
        violations.append("workflow entries must be objects")
        return None
    app_id = raw.get("app_id")
    if not isinstance(app_id, str) or not app_id:
        violations.append("workflow needs a non-empty app_id string")
        return None
    tag = f"workflow {app_id}"

    functions: dict[str, wf.FunctionSpec] = {}
    for fd in raw.get("functions", []):
        if not isinstance(fd, dict) or not isinstance(fd.get("id"), str):
            violations.append(f"{tag}: each function needs a string id")
            continue
        where = f"{tag}: function {fd['id']}"
        spec = wf.FunctionSpec(
            id=fd["id"],
            fixed_ops=_num_field(fd, "fixed_ops", where, violations),
            ops_per_byte=_num_field(fd, "ops_per_byte", where, violations),
            output_ratio=_num_field(fd, "output_ratio", where, violations),
            state_size=_num_field(fd, "state_size", where, violations),
        )
        if spec.id in functions:
            violations.append(f"{tag}: duplicate function id {spec.id}")
        functions[spec.id] = spec
        violations.extend(f"{tag}: {v}" for v in wf.validate_function(spec))

    entry_payload = _num(raw.get("entry_payload"))
    if entry_payload is None or entry_payload <= 0:
        violations.append(f"{tag}: entry_payload must be a number > 0")
        entry_payload = 1.0

    has_chain = "chain" in raw
    has_dag = "dag" in raw
    if has_chain == has_dag:
        violations.append(f"{tag}: exactly one of 'chain' or 'dag' is required")
        return None

    if has_chain:
        if not isinstance(raw["chain"], list):
            violations.append(f"{tag}: chain must be a list of function ids")
            return None
        chain = wf.ChainSpec(app_id, tuple(str(x) for x in raw["chain"]), entry_payload)
        errs = wf.validate_chain(chain, functions)
        if errs:
            violations.extend(f"{tag}: {v}" for v in errs)
            return None
        dag = wf.chain_to_dag(chain)
    else:
        dd = raw["dag"]
        if not isinstance(dd, dict):
            violations.append(f"{tag}: dag must be an object with vertices and edges")
            return None
        vertices = frozenset(str(v) for v in dd.get("vertices", []))
        edges = set()
        for e in dd.get("edges", []):
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                violations.append(f"{tag}: dag edges must be [producer, consumer] pairs")
                return None
            edges.add((str(e[0]), str(e[1])))
        dag = wf.DagSpec(app_id, vertices, frozenset(edges), entry_payload)
        for v in sorted(vertices):
            if v not in functions:
                violations.append(f"{tag}: dag references unknown function {v}")
    errs = wf.validate_dag(dag)
    if errs:
        violations.extend(f"{tag}: {v}" for v in errs)
        return None
    if any(v not in functions for v in dag.vertices):
        return None

    client = raw.get("client")
    if client is None and topo is not None:
        topo_clients = topo.clients()
        client = topo_clients[0].id if topo_clients else None
    if not isinstance(client, int) or topo is None or not topo.has_node(client) or topo.node(
        client
    ).role != "client":
        violations.append(f"{tag}: client must be the id of a client node")
        return None

    return AppWorkflow(
        app_id=app_id,
        dag=dag,
        functions=functions,
        client=client,
        source=wf.dag_source(dag),
        sink=wf.dag_sink(dag),
        preds=wf.predecessor_map(dag),
        succs=wf.successor_map(dag),
    )


def _parse_payload(raw: Any, violations: list[str]) -> PayloadSpec:
    if raw is None:
        return PayloadSpec(kind="constant")
    if not isinstance(raw, dict) or raw.get("kind") not in PAYLOAD_KINDS:
        violations.append(f"workload.payload.kind must be one of {list(PAYLOAD_KINDS)}")
        return PayloadSpec(kind="constant")
    kind = raw["kind"]
    if kind == "uniform":
        lo, hi = _num(raw.get("lo")), _num(raw.get("hi"))
        if lo is None or hi is None or lo < 0 or lo > hi:
            violations.append("workload.payload uniform requires 0 <= lo <= hi")
            return PayloadSpec(kind="constant")
        return PayloadSpec(kind=kind, lo=lo, hi=hi)
    if kind == "exponential":
        mean = _num(raw.get("mean"))
        if mean is None or mean <= 0:
            violations.append("workload.payload exponential requires mean > 0")
            return PayloadSpec(kind="constant")
        return PayloadSpec(kind=kind, mean=mean)
    return PayloadSpec(kind="constant")


def scenario_from_raw(raw: dict) -> tuple[Scenario | None, list[str]]:
    """Validate a raw config document and build the runtime scenario.

    Returns (scenario, []) on success or (None, violations) otherwise.
    """
    violations: list[str] = []

    topo = _parse_topology(raw.get("topology"), violations)

    apps: dict[str, AppWorkflow] = {}
    raw_workflows = raw.get("workflows")
    if not isinstance(raw_workflows, list) or not raw_workflows:
        violations.append("workflows must be a non-empty list")
        raw_workflows = []
    for wd in raw_workflows:
        app = _parse_workflow(wd, topo, violations)
        if app is not None:
            if app.app_id in apps:
                violations.append(f"duplicate app_id {app.app_id}")
            apps[app.app_id] = app

    workload = raw.get("workload")
    rates: dict[str, float] = {}
    horizon = 0.0
    payload = PayloadSpec(kind="constant")
    compute_randomization = False
    if not isinstance(workload, dict):
        violations.append("workload must be an object")
    else:
        raw_rates = workload.get("rates")
        if not isinstance(raw_rates, dict):
            violations.append("workload.rates must map app_id to arrival rate")
        else:
            for app_id, rate in raw_rates.items():
                r = _num(rate)
                if r is None or r <= 0:
                    violations.append(f"workload.rates[{app_id}] must be > 0")
                else:
                    rates[app_id] = r
            for app_id in apps:
                if app_id not in (raw_rates or {}):
                    violations.append(f"workload.rates missing app {app_id}")
            for app_id in raw_rates or {}:
                if apps and app_id not in apps:
                    violations.append(f"workload.rates names unknown app {app_id}")
        h = _num(workload.get("horizon"))
        if h is None or h <= 0:
            violations.append("workload.horizon must be a finite number > 0")
        else:
            horizon = h
        payload = _parse_payload(workload.get("payload"), violations)
        compute_randomization = bool(workload.get("compute_randomization", False))

    policy = None
    try:
        policy = PolicyKind(raw.get("policy"))
    except ValueError:
        violations.append(
            f"policy must be one of {[p.value for p in PolicyKind]}, got {raw.get('policy')!r}"
        )

    mode = None
    try:
        mode = StateMode(raw.get("state_mode"))
    except ValueError:
        violations.append(
            f"state_mode must be one of {[m.value for m in StateMode]}, got {raw.get('state_mode')!r}"
        )

    seed = raw.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= MAX_SEED:
        violations.append("seed must be an unsigned 64-bit integer")
        seed = 0

    replications = raw.get("replications", 1)
    if not isinstance(replications, int) or isinstance(replications, bool) or replications < 1:
        violations.append("replications must be a positive integer")
        replications = 1

    candidates: tuple[int, ...] = ()
    if topo is not None:
        worker_ids = [n.id for n in topo.workers()]
        raw_candidates = raw.get("candidates")
        if raw_candidates is None:
            candidates = tuple(worker_ids)
        elif not isinstance(raw_candidates, list) or not raw_candidates:
            violations.append("candidates must be a non-empty list of worker ids")
        else:
            for c in raw_candidates:
                if c not in worker_ids:
                    violations.append(f"candidate {c} is not a worker node")
            candidates = tuple(raw_candidates)

    if violations:
        return None, violations

    assert topo is not None and policy is not None and mode is not None
    return (
        Scenario(
            topology=topo,
            routes=build_routes(topo),
            apps={k: apps[k] for k in sorted(apps)},
            rates=rates,
            horizon=horizon,
            payload=payload,
            compute_randomization=compute_randomization,
            policy=policy,
            state_mode=mode,
            candidates=candidates,
            seed=seed,
            replications=replications,
        ),
        [],
    )


@dataclass
class SweepSpec:
    field: str
    values: list[Any]
    scenarios: list[Scenario]  # the built scenario of each value, in order


def sweep_from_raw(raw: dict, base_dir: Path | None = None) -> tuple[SweepSpec | None, list[str]]:
    """Parse and validate a sweep document and build the scenario of every point."""
    violations: list[str] = []
    base = raw.get("base")
    if isinstance(base, str):
        path = Path(base)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            base = load_json(path)
        except (OSError, ValueError) as exc:
            return None, [f"cannot load base config {base!r}: {exc}"]
    if not isinstance(base, dict):
        return None, ["sweep.base must be a config object or a path to one"]

    fieldname = raw.get("field")
    if not isinstance(fieldname, str) or not (
        fieldname in SWEEPABLE_FIELDS or fieldname.startswith("link_rate:")
    ):
        return None, [
            f"sweep.field must be one of {list(SWEEPABLE_FIELDS)} or link_rate:<a>-<b>"
        ]

    values = raw.get("values")
    if not isinstance(values, list) or not values:
        return None, ["sweep.values must be a non-empty list"]

    scenarios = []
    for i, value in enumerate(values):
        try:
            point, errs = scenario_from_raw(apply_sweep_value(base, fieldname, value))
        except ValueError as exc:
            return None, [str(exc)]
        violations.extend(f"sweep value [{i}]={value!r}: {e}" for e in errs)
        scenarios.append(point)
    if violations:
        return None, violations
    return SweepSpec(field=fieldname, values=values, scenarios=scenarios), []


def apply_sweep_value(base: dict, fieldname: str, value: Any) -> dict:
    """Return a copy of the base config with the swept field set to ``value``."""
    doc = copy.deepcopy(base)
    if fieldname == "arrival_rate":
        rates = doc.setdefault("workload", {}).setdefault("rates", {})
        for app_id in rates:
            rates[app_id] = value
    elif fieldname in ("policy", "state_mode"):
        doc[fieldname] = value
    elif fieldname.startswith("link_rate:"):
        spec = fieldname.split(":", 1)[1]
        try:
            a, b = (int(x) for x in spec.split("-"))
        except ValueError:
            raise ValueError(f"malformed link_rate field {fieldname!r}") from None
        hit = False
        for lk in doc.get("topology", {}).get("links", []):
            pair = {lk.get("endpoint_a"), lk.get("endpoint_b")}
            if pair == {a, b}:
                lk["rate"] = value
                hit = True
        if not hit:
            # leave the config untouched; scenario validation will not fail,
            # so flag the unresolvable path here
            raise ValueError(f"sweep field {fieldname!r} matches no link")
    else:
        raise ValueError(f"unknown sweep field {fieldname!r}")
    return doc
