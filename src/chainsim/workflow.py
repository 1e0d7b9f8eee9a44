"""Functions, chains, and DAG compositions, plus the analytic latency oracle.

A chain is the linear special case of a DAG: vertices are function ids,
edges carry the producer's output to the consumer. An ``AppWorkflow`` is the
one record of an application: its DAG, functions, client and entry payload.
Validation is structural (known edge ends, one source, one sink, acyclic);
``critical_path_time`` computes an app's zero-load end-to-end latency by
longest-path dynamic programming and serves as the simulator's oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import state as state_mod
from .state import StateMode
from .topology import NodeSpec, RouteTable, transfer_delay


@dataclass(frozen=True)
class FunctionSpec:
    """Per-function compute and state footprint.

    Compute demand for an input of ``b`` bytes is
    ``fixed_ops + ops_per_byte * b`` operations; the output is
    ``output_ratio * b`` bytes; ``state_size`` is the size of the function's
    persistent state (0 for stateless functions).
    """

    id: str
    fixed_ops: float = 0.0
    ops_per_byte: float = 0.0
    output_ratio: float = 0.0
    state_size: float = 0.0


@dataclass(frozen=True)
class DagSpec:
    """A composition of functions: pure structure, its derived facts computed once, when built.

    ``preds`` and ``succs`` hold each vertex's sorted producers and consumers;
    edges with an unknown end are ignored. ``source`` and ``sink`` are the
    vertex without producers and the one without consumers, or None unless
    exactly one exists. ``order`` is Kahn's order, the lowest id first among
    the ready vertices; it leaves out every vertex on or after a cycle, so it
    is shorter than ``vertices`` exactly when the graph has a cycle.
    """

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]  # (producer, consumer)
    preds: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)
    succs: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)
    source: str | None = field(init=False, compare=False, repr=False)
    sink: str | None = field(init=False, compare=False, repr=False)
    order: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        preds = _neighbours(self.vertices, ((q, p) for p, q in self.edges))
        succs = _neighbours(self.vertices, self.edges)
        ends = [[v for v, vs in nbrs.items() if not vs] for nbrs in (preds, succs)]
        source, sink = (vs[0] if len(vs) == 1 else None for vs in ends)
        derived = {"preds": preds, "succs": succs, "source": source, "sink": sink, "order": _kahn(preds, succs)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class AppWorkflow:
    """One application: its DAG, its functions by id, its client node and its entry payload in bytes (> 0)."""

    app_id: str
    dag: DagSpec
    functions: dict[str, FunctionSpec]
    client: int
    entry_payload: float


def validate_function(f: FunctionSpec) -> list[str]:
    violations = []
    if f.fixed_ops < 0:
        violations.append(f"function {f.id} fixed_ops must be >= 0")
    if f.ops_per_byte < 0:
        violations.append(f"function {f.id} ops_per_byte must be >= 0")
    if f.fixed_ops + f.ops_per_byte <= 0:
        violations.append(f"function {f.id} must perform work (fixed_ops + ops_per_byte > 0)")
    if f.output_ratio < 0:
        violations.append(f"function {f.id} output_ratio must be >= 0")
    if f.state_size < 0:
        violations.append(f"function {f.id} state_size must be >= 0")
    return violations


def _neighbours(vertices: frozenset[str], pairs: Iterable[tuple[str, str]]) -> dict[str, tuple[str, ...]]:
    """The sorted ``b`` of every ``(a, b)`` pair, by vertex ``a``; pairs with an unknown end are ignored."""
    nbrs: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in sorted(pairs):
        if a in nbrs and b in nbrs:
            nbrs[a].append(b)
    return {v: tuple(bs) for v, bs in nbrs.items()}


def _kahn(preds: Mapping[str, tuple[str, ...]], succs: Mapping[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Kahn's algorithm with lowest-id-first tie-breaking; omits every vertex on or after a cycle."""
    remaining = {v: len(ps) for v, ps in preds.items()}
    ready = [v for v, k in remaining.items() if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for q in succs[v]:
            remaining[q] -= 1
            if remaining[q] == 0:
                heapq.heappush(ready, q)
    return tuple(order)


def validate_dag(d: DagSpec) -> list[str]:
    """Structural validation; empty result iff the DAG is well formed.

    Every edge end must be a vertex, and there must be one source, one sink
    and no cycle. That puts every vertex on a source-to-sink path, so there
    is nothing more to check: in an acyclic graph, walking producers back
    from any vertex ends at a vertex without producers, which can only be
    the source, and walking consumers forward ends at the sink.
    """
    violations = []
    if not d.vertices:
        return ["dag has no vertices"]
    for p, q in sorted(d.edges):
        for end in (p, q):
            if end not in d.vertices:
                violations.append(f"edge ({p},{q}) references unknown vertex {end}")

    for end, nbrs, name in ((d.source, d.preds, "source"), (d.sink, d.succs, "sink")):
        if end is None:
            several = any(not vs for vs in nbrs.values())
            violations.append(f"multiple {name}s" if several else f"no {name}")

    if len(d.order) < len(d.vertices):
        violations.append("cycle detected")
    return violations


def stage_io(f: FunctionSpec, input_bytes: float, compute_factor: float = 1.0) -> tuple[float, float]:
    """(compute operations, output bytes) for one stage at the given input size.

    ``compute_factor`` scales ``fixed_ops``; the engine draws it per invocation.
    """
    if input_bytes < 0:
        raise ValueError(f"input_bytes must be >= 0, got {input_bytes}")
    compute_ops = f.fixed_ops * compute_factor + f.ops_per_byte * input_bytes
    output_bytes = f.output_ratio * input_bytes
    return compute_ops, output_bytes


def vertex_input_bytes(
    preds: tuple[str, ...], outputs: Mapping[str, float], entry_payload: float
) -> float:
    """Input size of a vertex: entry payload for the source, else the sum of its inputs.

    Predecessors are given sorted; summation order is part of the contract
    so the simulator and the analytic oracle accumulate identically.
    """
    if not preds:
        return entry_payload
    total = 0.0
    for p in preds:
        total += outputs[p]
    return total


def critical_path_time(
    app: AppWorkflow,
    assignment: Mapping[str, int],
    rt: RouteTable,
    hosts: Mapping[tuple[str, str], int] | None,
    mode: StateMode,
    *,
    workers: Mapping[int, NodeSpec],
    entry_payload: float | None = None,
) -> float:
    """Zero-load completion time of ``app``'s sink, including result delivery.

    ``assignment`` maps each function id to its worker; ``entry_payload``
    replaces the app's own. A vertex is dispatched when its last predecessor
    finishes; every input then moves to its worker in parallel, so a join's
    inputs have arrived at ``max(done_p) + max(xfer_p)``. State costs are
    paid at dispatch and the vertex computes without queueing. ``hosts``
    maps ``(app_id, function id)`` to the worker holding that state; state
    missing from it, or from a ``None`` map, is unplaced and costs nothing.
    Longest-path dynamic programming in ``app.dag.order``; ties in the max
    leave the result unchanged.
    """
    d, functions, client = app.dag, app.functions, app.client
    violations = validate_dag(d)
    if violations:
        raise ValueError("invalid dag: " + "; ".join(violations))
    for v in sorted(d.vertices):
        if v not in assignment:
            raise ValueError(f"assignment missing vertex {v}")
        if assignment[v] not in workers or not workers[assignment[v]].is_worker:
            raise ValueError(f"assignment maps {v} to non-worker node {assignment[v]}")

    entry = app.entry_payload if entry_payload is None else entry_payload
    hosts = {} if hosts is None else hosts
    done: dict[str, float] = {}
    outputs: dict[str, float] = {}
    preds = d.preds
    for v in d.order:
        f = functions[v]
        w = assignment[v]
        input_bytes = vertex_input_bytes(preds[v], outputs, entry)
        if not preds[v]:
            arrived = transfer_delay(rt, client, w, state_mod.stage_transfer_bytes(entry, None, f, mode))
        else:
            arrived = max(done[p] for p in preds[v]) + max(
                transfer_delay(rt, assignment[p], w, state_mod.stage_transfer_bytes(outputs[p], functions[p], f, mode))
                for p in preds[v]
            )
        access = state_mod.remote_state_access(mode, hosts.get((app.app_id, v)), f, w, rt)
        t = arrived + access.delay
        compute_ops, out_bytes = stage_io(f, input_bytes)
        t += compute_ops / workers[w].core_speed
        done[v] = t
        outputs[v] = out_bytes

    sink = d.sink
    f_sink = functions[sink]
    return done[sink] + transfer_delay(
        rt, assignment[sink], client, state_mod.stage_transfer_bytes(outputs[sink], f_sink, None, mode)
    )
