"""Scenario configuration: JSON schema, validation, runtime scenario object.

A scenario config is a single JSON document with top-level fields
``topology``, ``workflows``, ``workload``, ``policy``, ``state_mode``,
``seed``, ``replications`` and optionally ``candidates``. Validation
returns human-readable violation strings rather than raising, so the CLI
can report all problems at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from . import workflow as wf
from .dispatch import PolicyKind
from .state import StateMode
from .topology import (
    LinkSpec,
    NodeSpec,
    RouteTable,
    Topology,
    build_routes,
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
    """One application's workflow: its DAG, its functions by id and its client node."""

    dag: wf.DagSpec
    functions: dict[str, wf.FunctionSpec]
    client: int


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
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nesting is too deep") from None
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


def _int(value: Any) -> int | None:
    """``value`` if it is an integer (not a bool), else None."""
    return None if isinstance(value, bool) or not isinstance(value, int) else value


def _num_field(raw: dict, key: str, where: str, violations: list[str]) -> float:
    """An optional numeric field, 0.0 when absent; anything but a finite number is a violation."""
    x = _num(raw.get(key, 0.0))
    if x is None:
        violations.append(f"{where} {key} must be a finite number")
        return 0.0
    return x


def _list(value: Any, message: str, violations: list[str], nonempty: bool = False) -> list | None:
    """``value`` if it is a list (non-empty if asked), else None after recording ``message``."""
    if isinstance(value, list) and (value or not nonempty):
        return value
    violations.append(message)
    return None


def _enum(value: Any, choices: Sequence[str], name: str, violations: list[str]) -> str | None:
    """``value`` if it is one of ``choices``, else None after recording a violation."""
    if isinstance(value, str) and value in choices:
        return value
    violations.append(f"{name} must be one of {list(choices)}, got {value!r}")
    return None


def _parse_topology(raw: Any, violations: list[str]) -> Topology | None:
    if not isinstance(raw, dict):
        violations.append("topology must be an object with nodes and links")
        return None
    nodes = []
    raw_nodes = _list(raw.get("nodes", []), "topology.nodes must be a list", violations)
    for i, nd in enumerate(raw_nodes or []):
        where = f"topology.nodes[{i}]"
        nd = nd if isinstance(nd, dict) else {}
        node_id = _int(nd.get("id"))
        if node_id is None:
            violations.append(f"{where} needs an integer id")
            continue
        cores = _int(nd.get("cores", 0))
        if cores is None:
            violations.append(f"{where} cores must be an integer")
            cores = 0
        nodes.append(
            NodeSpec(
                id=node_id,
                role=str(nd.get("role", "")),
                cores=cores,
                core_speed=_num_field(nd, "core_speed", where, violations),
            )
        )
    links = []
    raw_links = _list(raw.get("links", []), "topology.links must be a list", violations)
    for i, lk in enumerate(raw_links or []):
        where = f"topology.links[{i}]"
        lk = lk if isinstance(lk, dict) else {}
        a, b = _int(lk.get("endpoint_a")), _int(lk.get("endpoint_b"))
        if a is None or b is None:
            violations.append(f"{where} needs integer endpoint_a and endpoint_b")
            continue
        links.append(
            LinkSpec(
                endpoint_a=a,
                endpoint_b=b,
                propagation=_num_field(lk, "propagation", where, violations),
                rate=_num_field(lk, "rate", where, violations),
            )
        )
    topo = Topology(tuple(nodes), tuple(links))
    violations.extend(topo.violations)
    return topo


def _parse_workflow(raw: Any, topo: Topology | None, violations: list[str]) -> AppWorkflow | None:
    """One workflow entry; a ``chain`` becomes the DAG of its consecutive stages."""
    if not isinstance(raw, dict):
        violations.append("workflow entries must be objects")
        return None
    app_id = raw.get("app_id")
    if not isinstance(app_id, str) or not app_id:
        violations.append("workflow needs a non-empty app_id string")
        return None
    tag = f"workflow {app_id}"

    functions: dict[str, wf.FunctionSpec] = {}
    for fd in _list(raw.get("functions", []), f"{tag}: functions must be a list", violations) or []:
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

    if ("chain" in raw) == ("dag" in raw):
        violations.append(f"{tag}: exactly one of 'chain' or 'dag' is required")
        return None
    if "chain" in raw:
        kind = "chain"
        chain = _list(raw["chain"], f"{tag}: chain must be a list of function ids", violations)
        if chain is None:
            return None
        if not chain:
            violations.append(f"{tag}: chain has no functions")
            return None
        vertices = [str(x) for x in chain]
        edges = list(zip(vertices, vertices[1:]))
    else:
        kind = "dag"
        dd = raw["dag"]
        if not isinstance(dd, dict):
            violations.append(f"{tag}: dag must be an object with vertices and edges")
            return None
        raw_vertices = _list(dd.get("vertices", []), f"{tag}: dag vertices must be a list", violations)
        raw_edges = _list(dd.get("edges", []), f"{tag}: dag edges must be a list", violations)
        if raw_vertices is None or raw_edges is None:
            return None
        if not all(isinstance(e, (list, tuple)) and len(e) == 2 for e in raw_edges):
            violations.append(f"{tag}: dag edges must be [producer, consumer] pairs")
            return None
        vertices = sorted({str(v) for v in raw_vertices})
        edges = [(str(p), str(q)) for p, q in raw_edges]

    errs = []
    seen: set[str] = set()
    for v in vertices:
        if v not in functions:
            errs.append(f"{kind} references unknown function {v}")
        if v in seen:
            errs.append(f"duplicate function {v} in chain")
        seen.add(v)
    dag = wf.DagSpec(app_id, frozenset(vertices), frozenset(edges), entry_payload)
    if len(seen) == len(vertices):  # a repeated chain stage is reported as such, not as its cycle
        errs.extend(wf.validate_dag(dag))
    if errs:
        violations.extend(f"{tag}: {e}" for e in errs)
        return None

    clients = [n.id for n in topo.clients()] if topo is not None else []
    client = raw.get("client")
    if client is None and clients:
        client = clients[0]
    if _int(client) is None or client not in clients:
        violations.append(f"{tag}: client must be the id of a client node")
        return None

    return AppWorkflow(dag=dag, functions=functions, client=client)


def _parse_payload(raw: Any, violations: list[str]) -> PayloadSpec:
    if raw is None:
        return PayloadSpec(kind="constant")
    raw = raw if isinstance(raw, dict) else {}
    kind = _enum(raw.get("kind"), PAYLOAD_KINDS, "workload.payload.kind", violations)
    if kind == "uniform":
        lo, hi = _num(raw.get("lo")), _num(raw.get("hi"))
        if lo is not None and hi is not None and 0 <= lo <= hi:
            return PayloadSpec(kind=kind, lo=lo, hi=hi)
        violations.append("workload.payload uniform requires 0 <= lo <= hi")
    elif kind == "exponential":
        mean = _num(raw.get("mean"))
        if mean is not None and mean > 0:
            return PayloadSpec(kind=kind, mean=mean)
        violations.append("workload.payload exponential requires mean > 0")
    return PayloadSpec(kind="constant")


def scenario_from_raw(raw: dict) -> tuple[Scenario | None, list[str]]:
    """Validate a raw config document and build the runtime scenario.

    Returns (scenario, []) on success or (None, violations) otherwise.
    """
    violations: list[str] = []

    topo = _parse_topology(raw.get("topology"), violations)

    apps: dict[str, AppWorkflow] = {}
    raw_workflows = _list(
        raw.get("workflows"), "workflows must be a non-empty list", violations, nonempty=True
    )
    for wd in raw_workflows or []:
        app = _parse_workflow(wd, topo, violations)
        if app is not None:
            app_id = app.dag.app_id
            if app_id in apps:
                violations.append(f"duplicate app_id {app_id}")
            apps[app_id] = app

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
                if app_id not in raw_rates:
                    violations.append(f"workload.rates missing app {app_id}")
            for app_id in raw_rates:
                if apps and app_id not in apps:
                    violations.append(f"workload.rates names unknown app {app_id}")
        horizon = _num(workload.get("horizon"))
        if horizon is None or horizon <= 0:
            violations.append("workload.horizon must be a finite number > 0")
        payload = _parse_payload(workload.get("payload"), violations)
        compute_randomization = workload.get("compute_randomization", False)
        if not isinstance(compute_randomization, bool):
            violations.append("workload.compute_randomization must be true or false")

    policy = _enum(raw.get("policy"), [p.value for p in PolicyKind], "policy", violations)
    mode = _enum(raw.get("state_mode"), [m.value for m in StateMode], "state_mode", violations)

    seed = _int(raw.get("seed"))
    if seed is None or not 0 <= seed <= MAX_SEED:
        violations.append("seed must be an unsigned 64-bit integer")

    replications = _int(raw.get("replications", 1))
    if replications is None or replications < 1:
        violations.append("replications must be a positive integer")

    worker_ids = [n.id for n in topo.workers()] if topo is not None else []
    candidates = raw.get("candidates")
    if candidates is None:
        candidates = worker_ids
    elif _list(candidates, "candidates must be a non-empty list of worker ids", violations, nonempty=True):
        bad = [c for c in candidates if _int(c) is None or c not in worker_ids]
        violations.extend(f"candidate {c} is not a worker node" for c in bad)
        if not bad and len(set(candidates)) < len(candidates):
            violations.append("candidates must be distinct worker ids")

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
            policy=PolicyKind(policy),
            state_mode=StateMode(mode),
            candidates=tuple(candidates),
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


def _own(parent: dict | None, key: str, kind: type) -> Any:
    """A shallow copy of ``parent[key]``, put in its place, if that is a ``kind``; else None."""
    value = parent.get(key) if parent is not None else None
    if not isinstance(value, kind):
        return None
    parent[key] = value = kind(value)
    return value


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
    # Each point sets the swept field in place, then builds; only the containers
    # on the swept path are copied, so the caller's document stays unchanged.
    base = dict(base)
    if fieldname in ("policy", "state_mode"):
        targets = [(base, fieldname)]
    elif fieldname == "arrival_rate":
        rates = _own(_own(base, "workload", dict), "rates", dict)
        targets = [(rates, app_id) for app_id in rates] if rates is not None else []
    elif isinstance(fieldname, str) and fieldname.startswith("link_rate:"):
        try:
            a, b = (int(x) for x in fieldname.split(":", 1)[1].split("-"))
        except ValueError:
            return None, [f"malformed link_rate field {fieldname!r}"]
        links = _own(_own(base, "topology", dict), "links", list) or []
        targets = []
        for i, lk in enumerate(links):
            if isinstance(lk, dict) and (lk.get("endpoint_a"), lk.get("endpoint_b")) in ((a, b), (b, a)):
                links[i] = dict(lk)
                targets.append((links[i], "rate"))
        if not targets:
            # scenario validation cannot tell that the swept value went nowhere
            return None, [f"sweep field {fieldname!r} matches no link"]
    else:
        return None, [
            f"sweep.field must be one of {list(SWEEPABLE_FIELDS)} or link_rate:<a>-<b>"
        ]

    values = _list(raw.get("values"), "sweep.values must be a non-empty list", violations, nonempty=True)
    if values is None:
        return None, violations

    scenarios = []
    for i, value in enumerate(values):
        for owner, key in targets:
            owner[key] = value
        point, errs = scenario_from_raw(base)
        violations.extend(f"sweep value [{i}]={value!r}: {e}" for e in errs)
        scenarios.append(point)
    if violations:
        return None, violations
    return SweepSpec(field=fieldname, values=values, scenarios=scenarios), []
