"""Shared test fixtures: independent oracles and random instance generators.

The oracles here deliberately avoid the library's algorithms: routing is
checked against exhaustive simple-path enumeration, the critical path
against exhaustive source-to-sink path enumeration. Both accumulate costs
left to right along a path, which is the comparison/accumulation order the
library contracts specify, so equality assertions can be exact.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from chainsim.state import remote_state_access
from chainsim.topology import LinkSpec, NodeSpec, Topology
from chainsim.workflow import DagSpec

PROP_GRID = [0.0001 * k for k in range(0, 101)]  # 0 .. 10 ms
RATE_GRID = [1e5, 5e5, 1e6, 5e6, 1e7, 1e8]


# -- topologies --------------------------------------------------------------


def make_topology(nodes: list[tuple], links: list[tuple]) -> Topology:
    """nodes: (id, role[, cores, core_speed]); links: (a, b, prop, rate)."""
    return Topology(
        tuple(NodeSpec(*n) for n in nodes),
        tuple(LinkSpec(*l) for l in links),
    )


def random_topology(rng: random.Random, max_nodes: int = 7, min_workers: int = 1) -> Topology:
    """Random connected topology with at least one client and worker."""
    n = rng.randint(2, max_nodes)
    roles = ["client", "worker"] + [
        rng.choice(["client", "broker", "worker", "worker"]) for _ in range(n - 2)
    ]
    while sum(r == "worker" for r in roles) < min_workers:
        roles[rng.randrange(1, n)] = "worker"
    rng.shuffle(roles)
    nodes = []
    for i, role in enumerate(roles):
        if role == "worker":
            nodes.append(NodeSpec(i, role, cores=rng.randint(1, 4), core_speed=rng.choice([1e5, 1e6, 5e6])))
        else:
            nodes.append(NodeSpec(i, role))

    links: dict[tuple[int, int], LinkSpec] = {}

    def add_link(a: int, b: int) -> None:
        key = (a, b) if a <= b else (b, a)
        if a != b and key not in links:
            links[key] = LinkSpec(key[0], key[1], rng.choice(PROP_GRID), rng.choice(RATE_GRID))

    for i in range(1, n):
        add_link(i, rng.randrange(0, i))  # spanning tree: connected by construction
    extra = rng.randint(0, n)
    for _ in range(extra):
        add_link(rng.randrange(n), rng.randrange(n))
    return Topology(tuple(nodes), tuple(links.values()))


def brute_force_routes(t: Topology) -> dict[tuple[int, int], tuple[float, tuple[int, ...]]]:
    """All-pairs minimum over every simple path, by (prop, hops, path).

    Each unordered pair is taken from its lower id; the other direction is
    the reversed path, its propagation summed along that path. Propagation
    accumulates left to right so ties and float effects match the library's
    comparison key exactly.
    """
    adj: dict[int, list[tuple[int, float]]] = {node.id: [] for node in t.nodes}
    prop_of: dict[frozenset[int], float] = {}
    for link in t.links:
        adj[link.endpoint_a].append((link.endpoint_b, link.propagation))
        adj[link.endpoint_b].append((link.endpoint_a, link.propagation))
        prop_of[frozenset((link.endpoint_a, link.endpoint_b))] = link.propagation

    best: dict[tuple[int, int], tuple[float, int, tuple[int, ...]]] = {}

    def visit(src: int, path: tuple[int, ...], prop: float) -> None:
        dst = path[-1]
        key = (src, dst)
        cand = (prop, len(path) - 1, path)
        if key not in best or cand < best[key]:
            best[key] = cand
        for nbr, link_prop in adj[dst]:
            if nbr not in path:
                visit(src, path + (nbr,), prop + link_prop)

    for node in t.nodes:
        visit(node.id, (node.id,), 0.0)
    routes = {}
    for (src, dst), (prop, _hops, path) in best.items():
        if src <= dst:
            routes[(src, dst)] = (prop, path)
            back = path[::-1]
            prop = 0.0
            for u, v in zip(back, back[1:]):
                prop += prop_of[frozenset((u, v))]
            routes[(dst, src)] = (prop, back)
    return routes


def route_propagation(route) -> float:
    """A route's total propagation: its hops' delays summed from 0.0 in path order."""
    prop = 0.0
    for link_prop, _rate in route.hops:
        prop += link_prop
    return prop


# -- DAGs ---------------------------------------------------------------------


def random_dag(rng: random.Random, max_vertices: int = 10, app_id: str = "app") -> DagSpec:
    """Random single-source single-sink DAG; every vertex lies on a path."""
    n = rng.randint(1, max_vertices)
    names = [f"f{i:02d}" for i in range(n)]
    edges: set[tuple[str, str]] = set()
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.35:
                edges.add((names[i], names[j]))
    for j in range(1, n):
        if not any(q == names[j] for _p, q in edges):
            edges.add((names[rng.randrange(j)], names[j]))
    for i in range(n - 1):
        if not any(p == names[i] for p, _q in edges):
            edges.add((names[i], names[rng.randrange(i + 1, n)]))
    return DagSpec(app_id, frozenset(names), frozenset(edges), entry_payload=rng.uniform(100, 10000))


def enumerate_critical_path(
    dag, assignment, routes, hosts, mode, *, functions, workers, client, entry_payload=None
):
    """Exhaustive source-to-sink path enumeration of the zero-load latency.

    Walks every path, accumulating transfer, state, and compute costs in the
    library's stated order; the result is the max over paths. Per-vertex
    output sizes are fixed by the join-sum rule before enumeration. Every
    input of a vertex moves once the vertex is dispatched, so the inbound
    cost of a path's step into a vertex is the slowest of all its input
    transfers, not the one along the path.
    """
    from chainsim.state import stage_transfer_bytes
    from chainsim.topology import transfer_delay
    from chainsim.workflow import stage_io, vertex_input_bytes

    def wire(data, producer, consumer):
        return stage_transfer_bytes(data, producer, consumer, mode)

    entry = dag.entry_payload if entry_payload is None else entry_payload
    preds, succs = dag.preds, dag.succs
    hosts = hosts or {}

    outputs: dict[str, float] = {}
    vertex_cost: dict[str, tuple[float, float]] = {}  # (state delay, compute s)
    inbound: dict[str, float] = {}  # slowest input transfer of each non-source vertex
    for v in _level_order(dag):
        f = functions[v]
        input_bytes = vertex_input_bytes(preds[v], outputs, entry)
        compute_ops, out_bytes = stage_io(f, input_bytes)
        outputs[v] = out_bytes
        access = remote_state_access(mode, hosts.get((dag.app_id, v)), f, assignment[v], routes)
        vertex_cost[v] = (access.delay, compute_ops / workers[assignment[v]].core_speed)
        if preds[v]:
            inbound[v] = max(
                transfer_delay(
                    routes,
                    assignment[p],
                    assignment[v],
                    wire(outputs[p], functions[p], f),
                )
                for p in preds[v]
            )

    source, sink = dag.source, dag.sink
    best = -math.inf

    def walk(v: str, t: float) -> None:
        nonlocal best
        f = functions[v]
        state_delay, compute_s = vertex_cost[v]
        t = t + state_delay
        t += compute_s
        if v == sink:
            t += transfer_delay(routes, assignment[v], client, wire(outputs[v], f, None))
            if t > best:
                best = t
            return
        for q in succs[v]:
            walk(q, t + inbound[q])

    t0 = transfer_delay(routes, client, assignment[source], wire(entry, None, functions[source]))
    walk(source, t0)
    return best


def _level_order(dag) -> list[str]:
    """The DAG's vertices, level by level and sorted within a level, so each comes after its producers."""
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(dag.vertices):
        level = sorted(v for v in dag.vertices if v not in placed and placed.issuperset(dag.preds[v]))
        if not level:
            raise ValueError("cycle detected")
        order += level
        placed.update(level)
    return order


# -- dispatch -----------------------------------------------------------------


def rescan_backlog(wr, now: float) -> float:
    """Reference backlog of a ``WorkerRuntime``: the queue summed from scratch, then the busy cores."""
    pending = math.fsum(job[4] for job, _t_enq in wr.queue)
    speed = wr.node.core_speed
    for until in wr.busy_until:
        if until > now:
            pending += (until - now) * speed
    return pending


def exact_queued_ops(wr, *more: float) -> float:
    """Reference ``queued_ops`` of a ``WorkerRuntime`` with ``more`` ops queued: each op a fraction, the sum rounded once."""
    return float(sum(map(Fraction, [*(job[4] for job, _t_enq in wr.queue), *more])))


def loaded_runtimes(workers, backlog) -> dict:
    """Idle ``WorkerRuntime``s for ``workers``; worker ``w`` in ``backlog`` holds one queued job of ``backlog[w]`` ops."""
    from chainsim.engine import WorkerRuntime

    loads = {w: WorkerRuntime(spec) for w, spec in workers.items()}
    for w, ops in backlog.items():
        loads[w].enqueue((0, "queued", w, 0.0, ops), 0.0)
    return loads


def candidate_context(topo, rt, targets, mode=None):
    """A ``min_latency_estimate`` context whose candidates are ``targets``, in order.

    Each target gets an idle ``WorkerRuntime`` of its ``NodeSpec``, a client
    or broker too, so dispatch's route and state tables can be filled from
    any node toward any others.
    """
    import numpy as np

    from chainsim.dispatch import DispatchContext, PolicyKind
    from chainsim.engine import WorkerRuntime
    from chainsim.state import StateMode

    specs = {n.id: n for n in topo.nodes}
    return DispatchContext(
        candidate_workers=tuple(targets),
        routes=rt,
        rng=np.random.default_rng(0),
        loads={w: WorkerRuntime(specs[w]) for w in targets},
        policy=PolicyKind.MIN_LATENCY_ESTIMATE,
        mode=StateMode.EMBEDDED if mode is None else mode,
    )


def reference_estimate(ctx, f, w, input_bytes, now, payload_node, host) -> float:
    """``min_latency_estimate``'s score of worker ``w`` at ``now``, term by term from first principles.

    One ``transfer_delay`` and one ``remote_state_access`` per worker, with
    the terms added in the library's stated order.
    """
    from chainsim.state import stage_transfer_bytes
    from chainsim.topology import transfer_delay
    from chainsim.workflow import stage_io

    spec = ctx.loads[w].node
    mode = ctx.mode
    wire = stage_transfer_bytes(input_bytes, None, f, mode)
    est = transfer_delay(ctx.routes, payload_node, w, wire)
    est += remote_state_access(mode, host, f, w, ctx.routes).delay
    compute_ops, _ = stage_io(f, input_bytes)
    est += rescan_backlog(ctx.loads[w], now) / (spec.cores * spec.core_speed)
    est += compute_ops / spec.core_speed
    return est


def reference_choice(ctx, f, input_bytes, now, payload_node, host) -> int:
    """The candidate with the least reference estimate; ties go to the lowest id."""
    return min((reference_estimate(ctx, f, w, input_bytes, now, payload_node, host), w)
               for w in ctx.candidate_workers)[1]


# -- outputs ------------------------------------------------------------------


def summary_from_rows(rows, horizon: float) -> dict:
    """Recompute the CSV-derived part of a summary record from invocations.csv rows.

    An offline check of ``metrics.summary_record`` for the same run: the
    utilization, which the rows do not hold, is omitted. Percentiles are
    nearest-rank, the ceil(p*n)-th order statistic.
    """
    latencies: list[float] = []
    injected = completed = migrations = 0
    state_bytes = 0.0
    for row in rows:
        injected += 1
        if row["latency_s"] != "":
            completed += 1
            latencies.append(float(row["latency_s"]))
        state_bytes += float(row["state_bytes"])
        migrations += int(row["migrations"])
    record: dict = {
        "injected": injected,
        "completed": completed,
        "in_flight_at_end": injected - completed,
        "throughput_per_s": completed / horizon,
        "total_state_bytes": state_bytes,
        "total_migrations": migrations,
    }
    ordered = sorted(latencies)
    for key, p in (("p50_latency_s", 0.50), ("p95_latency_s", 0.95), ("p99_latency_s", 0.99)):
        record[key] = ordered[math.ceil(p * len(ordered)) - 1] if ordered else None
    total = 0.0
    for x in latencies:
        total += x
    record["mean_latency_s"] = total / len(latencies) if latencies else None
    return record


# Two-sided 99.9% quantile of Student's t with 19 degrees of freedom.
T_999_19 = 3.8834


def batch_means_interval(samples: list[float]) -> tuple[float, float]:
    """(grand mean, half-width) of the 99.9% t-interval over 20 batch means of ``samples``.

    The batches are consecutive and of equal size; the last ``len % 20``
    samples are left out.
    """
    n_batches = 20
    size = len(samples) // n_batches
    means = [math.fsum(samples[i * size:(i + 1) * size]) / size for i in range(n_batches)]
    grand = math.fsum(means) / n_batches
    sd = math.sqrt(math.fsum((m - grand) ** 2 for m in means) / (n_batches - 1))
    return grand, T_999_19 * sd / math.sqrt(n_batches)


# -- scenario documents -------------------------------------------------------


def chain_scenario_raw(
    *,
    n_workers: int = 2,
    chain_len: int = 2,
    policy: str = "round_robin",
    state_mode: str = "remote_fixed",
    seed: int = 1,
    rate: float = 5.0,
    horizon: float = 10.0,
    state_size: float = 0.0,
    entry_payload: float = 1000.0,
    replications: int = 1,
) -> dict:
    """A small single-client chain scenario document, ready to customize."""
    nodes = [{"id": 0, "role": "client"}]
    links = []
    for i in range(n_workers):
        nodes.append({"id": i + 1, "role": "worker", "cores": 1, "core_speed": 1e6})
        links.append({"endpoint_a": 0, "endpoint_b": i + 1, "propagation": 0.001, "rate": 1e7})
    functions = [
        {
            "id": f"f{k}",
            "fixed_ops": 1000.0 * (k + 1),
            "ops_per_byte": 0.5,
            "output_ratio": 0.8,
            "state_size": state_size,
        }
        for k in range(chain_len)
    ]
    return {
        "topology": {"nodes": nodes, "links": links},
        "workflows": [
            {
                "app_id": "app",
                "client": 0,
                "entry_payload": entry_payload,
                "functions": functions,
                "chain": [f"f{k}" for k in range(chain_len)],
            }
        ],
        "workload": {
            "rates": {"app": rate},
            "horizon": horizon,
            "payload": {"kind": "constant"},
            "compute_randomization": False,
        },
        "policy": policy,
        "state_mode": state_mode,
        "seed": seed,
        "replications": replications,
    }


def overflowing_event_raw(kind: int) -> dict:
    """A valid chain document whose first non-finite event time is an overflow, in an event of ``kind``.

    Kind 2 (EXEC_START): state of 1e308 bytes is fetched and written back
    over slow links, so the second dispatch's state delay overflows. Kinds 3
    (EXEC_DONE) and 4 (DELIVERED): a client link of 1e308 s propagation
    brings each stage in near 1e308 s, and a service time of about 1e308 s
    (kind 3) or the delivery hop back (kind 4) overflows.
    """
    if kind == 2:
        raw = chain_scenario_raw(n_workers=2, chain_len=1, state_size=1e308)
        for link in raw["topology"]["links"]:
            link["rate"] = 1.6  # 6.25e307 s per hop, two hops per crossing, two crossings
        return raw
    raw = chain_scenario_raw(n_workers=1, chain_len=1)
    raw["topology"]["links"][0]["propagation"] = 1e308
    if kind == 3:
        raw["topology"]["nodes"][1]["core_speed"] = 1e-298
        raw["workflows"][0]["functions"][0]["fixed_ops"] = 1e10
    return raw


def _topology_raw(topo: Topology, cores: int | None = None) -> dict:
    """A topology as a config document's ``topology`` object; ``cores`` overrides every worker's."""
    nodes = []
    for n in topo.nodes:
        nd = {"id": n.id, "role": n.role}
        if n.role == "worker":
            nd["cores"] = n.cores if cores is None else cores
            nd["core_speed"] = n.core_speed
        nodes.append(nd)
    links = [
        {
            "endpoint_a": l.endpoint_a,
            "endpoint_b": l.endpoint_b,
            "propagation": l.propagation,
            "rate": l.rate,
        }
        for l in topo.links
    ]
    return {"nodes": nodes, "links": links}


def _random_function(rng: random.Random, fid: str) -> dict:
    return {
        "id": fid,
        "fixed_ops": rng.choice([0.0, 1e3, 1e4, 1e5]),
        "ops_per_byte": rng.choice([0.5, 1.0, 3.0]),
        "output_ratio": rng.choice([0.0, 0.25, 1.0, 1.5]),
        "state_size": rng.choice([0.0, 1e3, 2e4]),
    }


def _one_app_raw(
    topo_raw: dict, client: int, workflow: dict, *, seed: int, policy: str, state_mode: str
) -> dict:
    """A one-app document at rate 1/s for 10 s; ``workflow`` lacks only app_id and client."""
    workflow = {"app_id": "app", "client": client, **workflow}
    return {
        "topology": topo_raw,
        "workflows": [workflow],
        "workload": {
            "rates": {"app": 1.0},
            "horizon": 10.0,
            "payload": {"kind": "constant"},
            "compute_randomization": False,
        },
        "policy": policy,
        "state_mode": state_mode,
        "seed": seed,
        "replications": 1,
    }


def random_chain_scenario_raw(rng: random.Random, *, seed: int, policy: str, state_mode: str) -> dict:
    """Randomized scenario for oracle checks: <= 8 nodes, chain of <= 6 stages."""
    topo = random_topology(rng, max_nodes=8, min_workers=1)
    chain_len = rng.randint(1, 6)
    functions = [_random_function(rng, f"f{k}") for k in range(chain_len)]
    workflow = {
        "entry_payload": rng.uniform(100, 10000),
        "functions": functions,
        "chain": [f"f{k}" for k in range(chain_len)],
    }
    return _one_app_raw(
        _topology_raw(topo), topo.clients()[0].id, workflow, seed=seed, policy=policy, state_mode=state_mode
    )


def random_dag_scenario_raw(rng: random.Random, *, seed: int, policy: str, state_mode: str) -> dict:
    """Randomized DAG scenario for oracle checks: <= 8 nodes, <= 8 vertices.

    Every worker has one core per vertex, so a single invocation never queues.
    """
    topo = random_topology(rng, max_nodes=8, min_workers=1)
    dag = random_dag(rng, max_vertices=8)
    workflow = {
        "entry_payload": dag.entry_payload,
        "functions": [_random_function(rng, v) for v in sorted(dag.vertices)],
        "dag": {"vertices": sorted(dag.vertices), "edges": [list(e) for e in sorted(dag.edges)]},
    }
    return _one_app_raw(
        _topology_raw(topo, cores=len(dag.vertices)),
        topo.clients()[0].id,
        workflow,
        seed=seed,
        policy=policy,
        state_mode=state_mode,
    )
