import math
import random
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim.config import load_json, scenario_from_raw
from chainsim.dispatch import _fill_hops
from chainsim.topology import (
    MAX_CORES,
    LinkSpec,
    NodeSpec,
    Topology,
    build_routes,
    transfer_delay,
    validate_topology,
)

from helpers import brute_force_routes, candidate_context, make_topology, random_topology, route_propagation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def minimal_topology():
    return make_topology(
        [(0, "client"), (1, "worker", 1, 1e6)],
        [(0, 1, 0.001, 1e6)],
    )


class TestValidateTopology:
    def test_minimal_valid(self):
        assert validate_topology(minimal_topology()) == []

    def test_duplicate_node_id(self):
        t = make_topology(
            [(0, "client"), (3, "worker", 1, 1e6), (3, "worker", 1, 1e6)],
            [(0, 3, 0.001, 1e6)],
        )
        assert "duplicate node id 3" in validate_topology(t)

    def test_disconnected(self):
        t = make_topology(
            [(0, "client"), (1, "worker", 1, 1e6), (2, "worker", 1, 1e6)],
            [(0, 1, 0.001, 1e6)],
        )
        assert "topology not connected" in validate_topology(t)

    def test_worker_needs_compute(self):
        t = make_topology([(0, "client"), (1, "worker")], [(0, 1, 0.001, 1e6)])
        violations = validate_topology(t)
        assert "worker 1 must have cores >= 1" in violations
        assert "worker 1 must have core_speed > 0" in violations

    def test_worker_cores_are_capped(self):
        def violations(cores):
            return validate_topology(make_topology([(0, "client"), (1, "worker", cores, 1e6)], [(0, 1, 0.001, 1e6)]))

        assert violations(MAX_CORES) == []
        assert violations(MAX_CORES + 1) == [f"worker 1 must have cores <= {MAX_CORES}"]

    def test_client_must_not_compute(self):
        t = make_topology([(0, "client", 2, 1e6), (1, "worker", 1, 1e6)], [(0, 1, 0.001, 1e6)])
        assert "client 0 must not have compute capacity" in validate_topology(t)

    def test_missing_roles(self):
        t = make_topology([(0, "broker"), (1, "worker", 1, 1e6)], [(0, 1, 0.001, 1e6)])
        assert "topology has no client" in validate_topology(t)

    def test_bad_links(self):
        t = make_topology(
            [(0, "client"), (1, "worker", 1, 1e6)],
            [(0, 1, 0.001, 1e6), (1, 0, 0.002, 1e6), (0, 9, 0.001, 1e6), (1, 1, 0.0, 1e6)],
        )
        violations = validate_topology(t)
        assert "duplicate link (0,1)" in violations
        assert "link (0,9) references unknown node 9" in violations
        assert "link (1,1) endpoints must differ" in violations

    def test_a_config_build_validates_its_topology_once(self, monkeypatch):
        import chainsim.topology as topology

        calls = {"validate_topology": 0, "_dijkstra": 0}
        for name in calls:

            def counting(*args, _real=getattr(topology, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(topology, name, counting)
        sc, errs = scenario_from_raw(load_json(CONFIGS / "edge_mesh.json"))
        assert errs == [] and len(sc.topology.nodes) == 16
        # one connectivity search, then one route search per node
        assert calls == {"validate_topology": 1, "_dijkstra": 17}


class TestBuildRoutes:
    def test_self_route_is_empty(self):
        rt = build_routes(minimal_topology())
        route = rt.route(0, 0)
        assert route.hops == route.links == () and route_propagation(route) == 0.0
        assert route.path == (0,)

    def test_triangle_prefers_two_cheap_hops(self):
        # a-b=5ms, b-c=5ms, a-c=20ms: going through b is cheaper.
        t = make_topology(
            [(0, "client"), (1, "broker"), (2, "worker", 1, 1e6)],
            [(0, 1, 0.005, 1e6), (1, 2, 0.005, 1e6), (0, 2, 0.020, 1e6)],
        )
        route = build_routes(t).route(0, 2)
        assert route.path == (0, 1, 2)
        assert route_propagation(route) == pytest.approx(0.010, abs=1e-15)

    def test_line_sums_propagation(self):
        t = make_topology(
            [(0, "client"), (1, "broker"), (2, "worker", 1, 1e6)],
            [(0, 1, 0.003, 1e6), (1, 2, 0.004, 1e6)],
        )
        route = build_routes(t).route(0, 2)
        assert route_propagation(route) == 0.003 + 0.004
        assert min(rate for _prop, rate in route.hops) == 1e6

    def test_tie_breaks_fewer_hops_then_ids(self):
        # two equal-propagation routes 0->3: direct (1 hop) beats 0-1-3.
        t = make_topology(
            [(0, "client"), (1, "broker"), (2, "broker"), (3, "worker", 1, 1e6)],
            [
                (0, 1, 0.001, 1e6),
                (1, 3, 0.001, 1e6),
                (0, 3, 0.002, 1e6),
                (0, 2, 0.001, 1e6),
                (2, 3, 0.001, 1e6),
            ],
        )
        route = build_routes(t).route(0, 3)
        assert route.path == (0, 3)
        # remove the direct link: lexicographic tie-break picks path via 1
        t2 = make_topology(
            [(0, "client"), (1, "broker"), (2, "broker"), (3, "worker", 1, 1e6)],
            [(0, 1, 0.001, 1e6), (1, 3, 0.001, 1e6), (0, 2, 0.001, 1e6), (2, 3, 0.001, 1e6)],
        )
        assert build_routes(t2).route(0, 3).path == (0, 1, 3)

    def test_rejects_invalid_topology(self):
        t = make_topology([(0, "client")], [])
        with pytest.raises(ValueError, match="invalid topology"):
            build_routes(t)

    def test_matches_brute_force_on_random_topologies(self):
        rng = random.Random(0xBEEF)
        for _ in range(25):
            t = random_topology(rng, max_nodes=7)
            rt = build_routes(t)
            expected = brute_force_routes(t)
            for key, (prop, path) in expected.items():
                route = rt.route(*key)
                assert route.path == path
                assert route_propagation(route) == prop


class TestTransferDelay:
    def test_src_equals_dst(self):
        rt = build_routes(minimal_topology())
        assert transfer_delay(rt, 0, 0, 12345.0) == 0.0

    def test_single_hop(self):
        rt = build_routes(minimal_topology())
        assert transfer_delay(rt, 0, 1, 1000.0) == pytest.approx(0.002, abs=1e-15)

    def test_two_hops_sum_store_and_forward(self):
        t = make_topology(
            [(0, "client"), (1, "broker"), (2, "worker", 1, 1e6)],
            [(0, 1, 0.001, 1e6), (1, 2, 0.001, 1e6)],
        )
        rt = build_routes(t)
        # independent per-hop computation: each hop is 1 ms + 1000/1e6 s
        per_hop = 0.001 + 1000.0 / 1e6
        assert transfer_delay(rt, 0, 2, 1000.0) == pytest.approx(2 * per_hop, abs=1e-15)

    def test_unknown_node(self):
        rt = build_routes(minimal_topology())
        with pytest.raises(KeyError):
            transfer_delay(rt, 0, 99, 10.0)

    def test_negative_bytes_rejected(self):
        rt = build_routes(minimal_topology())
        with pytest.raises(ValueError):
            transfer_delay(rt, 0, 1, -1.0)


@st.composite
def topologies(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_topology(random.Random(seed), max_nodes=7)


class TestRoutingProperties:
    @settings(max_examples=60)
    @given(topologies(), st.floats(min_value=0, max_value=1e9), st.floats(min_value=0, max_value=1e9))
    def test_delay_monotone_in_bytes(self, t, n1, n2):
        rt = build_routes(t)
        lo, hi = min(n1, n2), max(n1, n2)
        for src in (n.id for n in t.nodes):
            for dst in (n.id for n in t.nodes):
                assert transfer_delay(rt, src, dst, lo) <= transfer_delay(rt, src, dst, hi)

    @settings(max_examples=60)
    @given(topologies(), st.floats(min_value=0, max_value=1e8))
    def test_delay_symmetric(self, t, nbytes):
        rt = build_routes(t)
        ids = [n.id for n in t.nodes]
        for src in ids:
            for dst in ids:
                assert transfer_delay(rt, src, dst, nbytes) == pytest.approx(
                    transfer_delay(rt, dst, src, nbytes), rel=1e-12, abs=1e-15
                )

    @settings(max_examples=60)
    @given(topologies())
    def test_triangle_property(self, t):
        rt = build_routes(t)
        ids = [n.id for n in t.nodes]
        for a in ids:
            for b in ids:
                for c in ids:
                    lhs = route_propagation(rt.route(a, c))
                    rhs = route_propagation(rt.route(a, b)) + route_propagation(rt.route(b, c))
                    assert lhs <= rhs + 1e-12


class TestHopClasses:
    def test_edge_mesh_classes(self):
        # edge_mesh: workers 4..15 behind brokers 1..3, edge rates alternating 12.5 and 2.5 MB/s
        sc, errs = scenario_from_raw(load_json(CONFIGS / "edge_mesh.json"))
        assert not errs
        ctx = candidate_context(sc.topology, sc.routes, tuple(range(4, 16)))
        _, from_client = _fill_hops(ctx, 0)
        assert from_client == (0, 1) * 6
        # from worker 4: itself, fast and slow peers at broker 1, fast and slow workers elsewhere
        _, from_worker = _fill_hops(ctx, 4)
        assert from_worker == (0, 1, 2, 1) + (3, 4) * 4

    @settings(max_examples=60)
    @given(topologies(), st.floats(min_value=0, max_value=1e8))
    def test_class_delay_is_each_routes_delay(self, t, nbytes):
        rt = build_routes(t)
        ids = [n.id for n in t.nodes]
        targets = tuple(random.Random(len(ids)).sample(ids, len(ids)))
        ctx = candidate_context(t, rt, targets)
        for src in ids:
            classes, class_of = _fill_hops(ctx, src)
            assert len({r.hops for r in classes}) == len(classes)
            assert list(dict.fromkeys(class_of)) == list(range(len(classes)))  # first-appearance order
            for dst, c in zip(targets, class_of):
                assert classes[c].hops == rt.route(src, dst).hops
                assert classes[c].delay(nbytes).hex() == transfer_delay(rt, src, dst, nbytes).hex()


class TestRouteLinks:
    @settings(max_examples=60)
    @given(topologies(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_links_and_hops_follow_the_path(self, t, flip_seed):
        # Links are given in either orientation; a route names each by its index in Topology.links.
        rng = random.Random(flip_seed)
        links = tuple(
            LinkSpec(l.endpoint_b, l.endpoint_a, l.propagation, l.rate) if rng.random() < 0.5 else l
            for l in t.links
        )
        by_ends = {}
        for link in links:
            by_ends[(link.endpoint_a, link.endpoint_b)] = by_ends[(link.endpoint_b, link.endpoint_a)] = link
        rt = build_routes(Topology(t.nodes, links))
        for src, dst in rt.pairs():
            route = rt.route(src, dst)
            assert len(route.links) == len(route.hops) == len(route.path) - 1
            for i, (u, v) in enumerate(zip(route.path, route.path[1:])):
                link = by_ends[(u, v)]
                assert t.links[route.links[i]].pair == link.pair
                assert route.hops[i] == (link.propagation, link.rate)


@st.composite
def unchecked_topologies(draw):
    """Node and link sets with repeated ids, unknown endpoints, self-loops, duplicates and negative propagation."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=7), max_size=7))
    ends = st.integers(min_value=0, max_value=9)  # 8 and 9 are never node ids
    props = st.sampled_from([-1.0, 0.0, 0.001, 0.01])
    links = draw(st.lists(st.tuples(ends, ends, props), max_size=12))
    return Topology(
        tuple(NodeSpec(i, "broker") for i in ids),
        tuple(LinkSpec(a, b, prop, 1e6) for a, b, prop in links),
    )


def bfs_connected(t: Topology) -> bool:
    """Every node reachable from the first over links whose endpoints are both nodes."""
    if not t.nodes:
        return True
    nbrs = {n.id: set() for n in t.nodes}
    for link in t.links:
        if link.endpoint_a in nbrs and link.endpoint_b in nbrs:
            nbrs[link.endpoint_a].add(link.endpoint_b)
            nbrs[link.endpoint_b].add(link.endpoint_a)
    seen = {t.nodes[0].id}
    frontier = deque(seen)
    while frontier:
        for v in nbrs[frontier.popleft()] - seen:
            seen.add(v)
            frontier.append(v)
    return len(seen) == len(nbrs)


class TestConnectivity:
    @settings(max_examples=300)
    @given(unchecked_topologies())
    def test_verdict_matches_bfs(self, t):
        assert ("topology not connected" in validate_topology(t)) == (not bfs_connected(t))
