"""Edge-network model: nodes, links, static routing, payload transfer delays.

Nodes play one of three roles: clients inject invocations, brokers relay
traffic, workers execute functions. Links are bidirectional delay+rate pipes
with no contention model. Routes are shortest paths on total propagation with
deterministic tie-breaking (fewer hops, then lexicographically smallest id
sequence read from the lower-id endpoint), so the network layer never
introduces nondeterminism into a run. Both directions between two nodes take
the same path.

Transfer cost is store-and-forward: the full payload is serialized on every
hop, so a transfer of ``n`` bytes over a route costs
``sum(prop_h + n / rate_h)`` over its hops.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

ROLE_CLIENT = "client"
ROLE_BROKER = "broker"
ROLE_WORKER = "worker"
ROLES = (ROLE_CLIENT, ROLE_BROKER, ROLE_WORKER)
MAX_CORES = 4096  # the engine keeps one busy-until time per core


@dataclass(frozen=True)
class NodeSpec:
    """A network node. Compute fields are meaningful for workers only."""

    id: int
    role: str
    cores: int = 0
    core_speed: float = 0.0  # operations per second

    @property
    def is_worker(self) -> bool:
        return self.role == ROLE_WORKER


@dataclass(frozen=True)
class LinkSpec:
    """Bidirectional, symmetric link between two distinct nodes."""

    endpoint_a: int
    endpoint_b: int
    propagation: float  # seconds
    rate: float  # bytes per second

    @property
    def pair(self) -> tuple[int, int]:
        a, b = self.endpoint_a, self.endpoint_b
        return (a, b) if a <= b else (b, a)


@dataclass
class Topology:
    """A set of nodes plus the links connecting them.

    Immutable by convention after construction; safe to share read-only
    across concurrent replications. ``violations`` is
    ``validate_topology``'s result, derived once, when built.
    """

    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]
    violations: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        self.links = tuple(self.links)
        self.violations = tuple(validate_topology(self))

    def workers(self) -> list[NodeSpec]:
        return sorted((n for n in self.nodes if n.role == ROLE_WORKER), key=lambda n: n.id)

    def clients(self) -> list[NodeSpec]:
        return sorted((n for n in self.nodes if n.role == ROLE_CLIENT), key=lambda n: n.id)


@dataclass(frozen=True)
class Route:
    """One directed route: node id sequence plus each hop's (propagation, rate) and link index."""

    path: tuple[int, ...]  # src first, dst last; (src,) when src == dst
    hops: tuple[tuple[float, float], ...]  # (propagation s, rate B/s) per hop
    links: tuple[int, ...]  # the index in Topology.links of each hop's link

    def delay(self, nbytes: float) -> float:
        acc = 0.0
        for prop, rate in self.hops:
            acc += prop + nbytes / rate
        return acc


class RouteTable:
    """All-pairs routes for a validated topology.

    ``accesses`` holds each priced state access, keyed by
    ``(mode, host, exec_node, state_size)``. Only
    ``state.remote_state_access`` reads and fills it: routes are static, so
    an access priced once holds for every later run on the table.
    """

    def __init__(self, routes: dict[tuple[int, int], Route]):
        self._routes = routes
        self.accesses: dict[tuple, object] = {}

    def route(self, src: int, dst: int) -> Route:
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise KeyError(f"no route for node pair ({src}, {dst})") from None

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self._routes)


def validate_topology(t: Topology) -> list[str]:
    """Return violation descriptions; empty iff every invariant holds.

    Violations are data, not failures: each entry names the offending
    element so config errors are actionable.
    """
    violations: list[str] = []

    seen_ids: set[int] = set()
    for n in t.nodes:
        if n.id in seen_ids:
            violations.append(f"duplicate node id {n.id}")
        seen_ids.add(n.id)
        if n.id < 0:
            violations.append(f"node id {n.id} must be non-negative")
        if n.role not in ROLES:
            violations.append(f"node {n.id} has unknown role {n.role!r}")
        elif n.role == ROLE_WORKER:
            if n.cores < 1:
                violations.append(f"worker {n.id} must have cores >= 1")
            elif n.cores > MAX_CORES:
                violations.append(f"worker {n.id} must have cores <= {MAX_CORES}")
            if n.core_speed <= 0:
                violations.append(f"worker {n.id} must have core_speed > 0")
        else:
            if n.cores or n.core_speed:
                violations.append(f"{n.role} {n.id} must not have compute capacity")

    seen_pairs: set[tuple[int, int]] = set()
    for link in t.links:
        a, b = link.endpoint_a, link.endpoint_b
        for end in (a, b):
            if end not in seen_ids:
                violations.append(f"link ({a},{b}) references unknown node {end}")
        if a == b:
            violations.append(f"link ({a},{b}) endpoints must differ")
        elif link.pair in seen_pairs:
            violations.append(f"duplicate link ({link.pair[0]},{link.pair[1]})")
        seen_pairs.add(link.pair)
        if link.propagation < 0:
            violations.append(f"link ({a},{b}) propagation must be >= 0")
        if link.rate <= 0:
            violations.append(f"link ({a},{b}) rate must be > 0")

    if not any(n.role == ROLE_CLIENT for n in t.nodes):
        violations.append("topology has no client")
    if not any(n.role == ROLE_WORKER for n in t.nodes):
        violations.append("topology has no worker")

    adj = _adjacency(t)
    if adj and len(_dijkstra(t.nodes[0].id, adj)) < len(adj):
        violations.append("topology not connected")

    return violations


def _adjacency(t: Topology) -> dict[int, list[tuple[int, float, float]]]:
    """Sorted (neighbour, propagation, rate) lists per node; skips links with an unknown or repeated end."""
    adj: dict[int, list[tuple[int, float, float]]] = {n.id: [] for n in t.nodes}
    for link in t.links:
        a, b = link.endpoint_a, link.endpoint_b
        if a in adj and b in adj and a != b:
            adj[a].append((b, link.propagation, link.rate))
            adj[b].append((a, link.propagation, link.rate))
    for lst in adj.values():
        lst.sort()
    return adj


def build_routes(t: Topology) -> RouteTable:
    """Compute the all-pairs route table.

    Each unordered pair is routed once, from its lower id: the path
    minimizes total propagation, and ties break on fewer hops, then on the
    lexicographically smallest node-id sequence. The other direction takes
    the reversed path. Raises ValueError on an invalid topology.
    """
    if t.violations:
        raise ValueError("invalid topology: " + "; ".join(t.violations))

    adj = _adjacency(t)
    index = {link.pair: i for i, link in enumerate(t.links)}
    specs = t.links

    routes: dict[tuple[int, int], Route] = {}
    for src in adj:
        for dst, path in _dijkstra(src, adj).items():
            if src > dst:
                continue
            for p in (path, path[::-1]):
                links = tuple(index[(u, v) if u <= v else (v, u)] for u, v in zip(p, p[1:]))
                hops = tuple((specs[i].propagation, specs[i].rate) for i in links)
                routes[(p[0], p[-1])] = Route(p, hops, links)
    return RouteTable(routes)


def _dijkstra(src: int, adj: dict[int, list[tuple[int, float, float]]]) -> dict[int, tuple[int, ...]]:
    # Priority (propagation, hop count, path) realizes the tie-break order
    # directly; the path component makes the popped label unique per node.
    best: dict[int, tuple[int, ...]] = {}
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (src,))]
    while heap:
        prop, nhops, path = heapq.heappop(heap)
        node = path[-1]
        if node in best:
            continue
        best[node] = path
        for nbr, link_prop, _rate in adj[node]:
            if nbr not in best:
                heapq.heappush(heap, (prop + link_prop, nhops + 1, path + (nbr,)))
    return best


def transfer_delay(rt: RouteTable, src: int, dst: int, nbytes: float) -> float:
    """Store-and-forward delay for ``nbytes`` from src to dst; 0 when src == dst."""
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    return rt.route(src, dst).delay(nbytes)
