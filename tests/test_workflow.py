import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import engine
from chainsim import workflow as wf
from chainsim.config import scenario_from_raw
from chainsim.state import StateMode
from chainsim.topology import build_routes, transfer_delay
from chainsim.workflow import (
    AppWorkflow,
    DagSpec,
    FunctionSpec,
    critical_path_time,
    stage_io,
    validate_dag,
    vertex_input_bytes,
)

from helpers import chain_scenario_raw, enumerate_critical_path, make_topology, random_dag


def diamond():
    return DagSpec(
        frozenset({"f1", "f2", "f3", "f4"}),
        frozenset({("f1", "f2"), ("f1", "f3"), ("f2", "f4"), ("f3", "f4")}),
    )


def parsed_chain(ids, entry):
    """The DAG a config's ``chain`` of ``ids`` parses to."""
    raw = chain_scenario_raw(chain_len=len(ids), entry_payload=entry)
    wd = raw["workflows"][0]
    for fd, fid in zip(wd["functions"], ids):
        fd["id"] = fid
    wd["chain"] = list(ids)
    scenario, errs = scenario_from_raw(raw)
    assert errs == []
    return scenario.apps["app"].dag


def linear_dag(ids):
    return DagSpec(frozenset(ids), frozenset(zip(ids, ids[1:])))


def app_of(dag, functions, entry=1000.0):
    """App ``app`` of ``dag`` and ``functions``, served from client 0."""
    return AppWorkflow("app", dag, functions, 0, entry)


class TestChainToDag:
    def test_singleton(self):
        d = parsed_chain(("f1",), 100.0)
        assert d.vertices == {"f1"} and d.edges == frozenset()

    def test_three_stage_chain(self):
        d = parsed_chain(("f1", "f2", "f3"), 100.0)
        assert d.edges == {("f1", "f2"), ("f2", "f3")}

    @given(st.integers(min_value=1, max_value=8), st.floats(min_value=1, max_value=1e6))
    def test_round_trip_validates(self, n, payload):
        assert validate_dag(parsed_chain(tuple(f"f{i}" for i in range(n)), payload)) == []


NAMES = [f"f{i}" for i in range(7)]


def random_graph(rng):
    """Vertices drawn from ``NAMES`` and edges that mostly run forward in a random order of them.

    Most vertices get a producer and a consumer, so many graphs are valid;
    up to two stray edges over all of ``NAMES`` add self-loops, cycles and
    ends outside the vertex set.
    """
    order = rng.sample(NAMES, rng.randint(0, len(NAMES)))
    edges = {(p, q) for i, p in enumerate(order) for q in order[i + 1:] if rng.random() < 0.3}
    for i, v in enumerate(order):
        if i and rng.random() < 0.9 and not any(q == v for _p, q in edges):
            edges.add((rng.choice(order[:i]), v))
        if i + 1 < len(order) and rng.random() < 0.9 and not any(p == v for p, _q in edges):
            edges.add((v, rng.choice(order[i + 1:])))
    for _ in range(rng.choice([0, 0, 1, 2])):
        edges.add((rng.choice(NAMES), rng.choice(NAMES)))
    return frozenset(order), frozenset(edges)


def reach(start, pairs):
    """Every vertex a breadth-first walk along ``pairs`` (a, b), a to b, reaches from ``start``."""
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [b for v in frontier for a, b in sorted(pairs) if a == v and b not in seen]
        seen.update(frontier)
    return seen


class TestValidateDag:
    def test_diamond_valid(self):
        assert validate_dag(diamond()) == []

    def test_two_cycle(self):
        d = DagSpec(frozenset({"f1", "f2"}), frozenset({("f1", "f2"), ("f2", "f1")}))
        assert "cycle detected" in validate_dag(d)

    def test_multiple_sinks(self):
        d = DagSpec(frozenset({"f1", "f2", "f3"}), frozenset({("f1", "f2"), ("f1", "f3")}))
        assert "multiple sinks" in validate_dag(d)

    def test_multiple_sources(self):
        d = DagSpec(frozenset({"f1", "f2", "f3"}), frozenset({("f1", "f3"), ("f2", "f3")}))
        assert "multiple sources" in validate_dag(d)

    def test_unknown_edge_endpoint(self):
        d = DagSpec(frozenset({"f1", "f2"}), frozenset({("f1", "f2"), ("f1", "f9")}))
        assert "edge (f1,f9) references unknown vertex f9" in validate_dag(d)

    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_graphs(self, rng):
        """``order`` and ``validate_dag`` against oracles that read only the vertex and edge sets."""
        vertices, edges = random_graph(rng)
        d = DagSpec(vertices, edges)
        violations = validate_dag(d)
        placed: set[str] = set()

        def ready():
            producers = {v: {p for p, q in edges if q == v and p in vertices} for v in vertices - placed}
            return sorted(v for v, ps in producers.items() if ps <= placed)

        for v in d.order:  # each vertex after its producers, the lowest ready id first
            assert ready()[:1] == [v]
            placed.add(v)
        assert ready() == [] and len(placed) == len(d.order)
        assert (len(d.order) < len(vertices)) == ("cycle detected" in violations)
        if not violations:  # then every vertex is on a source-to-sink path
            assert reach(d.source, edges) == reach(d.sink, {(q, p) for p, q in edges}) == vertices

    def test_app_build_derives_neighbours_once(self, monkeypatch):
        calls = []

        def counting(vertices, pairs):
            calls.append(vertices)
            return derive(vertices, pairs)

        derive = wf._neighbours
        monkeypatch.setattr(wf, "_neighbours", counting)
        sc, errs = scenario_from_raw(chain_scenario_raw(chain_len=3, horizon=1.0))
        assert errs == [] and len(calls) == 2  # once for preds and once for succs
        engine.run(sc)
        assert len(calls) == 2


class TestStageIo:
    def test_linear_in_input(self):
        f = FunctionSpec("f", fixed_ops=0.0, ops_per_byte=2.0, output_ratio=1.0)
        assert stage_io(f, 10.0) == (20.0, 10.0)

    def test_zero_ratio_zero_output(self):
        f = FunctionSpec("f", fixed_ops=5.0, output_ratio=0.0)
        assert stage_io(f, 123456.0)[1] == 0.0

    def test_input_independent_compute(self):
        f = FunctionSpec("f", fixed_ops=5.0, ops_per_byte=0.0, output_ratio=1.0)
        assert stage_io(f, 1e6)[0] == 5.0


class TestJoinPayload:
    def test_single(self):
        assert vertex_input_bytes(("a",), {"a": 100.0}, 999.0) == 100.0

    def test_sum(self):
        assert vertex_input_bytes(("a", "b"), {"a": 100.0, "b": 50.0}, 999.0) == 150.0

    def test_zeros(self):
        assert vertex_input_bytes(("a", "b", "c"), {"a": 0.0, "b": 0.0, "c": 0.0}, 999.0) == 0.0


def two_worker_network():
    t = make_topology(
        [(0, "client"), (1, "worker", 1, 1e6), (2, "worker", 1, 2e6)],
        [(0, 1, 0.001, 1e6), (0, 2, 0.002, 1e6), (1, 2, 0.001, 1e7)],
    )
    return t, build_routes(t), {n.id: n for n in t.workers()}


class TestCriticalPathTime:
    def test_single_function_closed_form(self):
        t, rt, workers = two_worker_network()
        f = FunctionSpec("f1", fixed_ops=1000.0, ops_per_byte=0.0, output_ratio=0.5)
        app = app_of(linear_dag(("f1",)), {"f1": f}, 1000.0)
        got = critical_path_time(app, {"f1": 1}, rt, None, StateMode.REMOTE_FIXED, workers=workers)
        expected = (
            transfer_delay(rt, 0, 1, 1000.0) + 1000.0 / 1e6 + transfer_delay(rt, 1, 0, 500.0)
        )
        assert got == pytest.approx(expected, abs=1e-15)

    def test_diamond_takes_slower_branch(self):
        t, rt, workers = two_worker_network()
        fns = {
            "f1": FunctionSpec("f1", fixed_ops=1000.0, output_ratio=1.0),
            "f2": FunctionSpec("f2", fixed_ops=50000.0, output_ratio=1.0),
            "f3": FunctionSpec("f3", fixed_ops=1000.0, output_ratio=1.0),
            "f4": FunctionSpec("f4", fixed_ops=1000.0, output_ratio=1.0),
        }
        a = {"f1": 1, "f2": 1, "f3": 2, "f4": 1}
        app = app_of(diamond(), fns)
        got = critical_path_time(app, a, rt, None, StateMode.REMOTE_FIXED, workers=workers)
        # enumerate both source->sink paths independently and take the max
        expected = enumerate_critical_path(app, a, rt, None, StateMode.REMOTE_FIXED, workers=workers)
        assert got == expected
        # the f2 branch has 49 ms more compute, so it must dominate
        slow = 50000.0 / 1e6
        assert got > slow

    def test_chain_equals_linear_sum_oracle(self):
        t, rt, workers = two_worker_network()
        fns = {
            f"f{k}": FunctionSpec(f"f{k}", fixed_ops=1000.0 * (k + 1), ops_per_byte=0.5, output_ratio=0.8)
            for k in range(4)
        }
        a = {"f0": 1, "f1": 2, "f2": 1, "f3": 2}
        app = app_of(linear_dag(tuple(fns)), fns, 2000.0)
        got = critical_path_time(app, a, rt, None, StateMode.REMOTE_FIXED, workers=workers)
        # independent linear accumulation, stage by stage
        mode = StateMode.REMOTE_FIXED
        tacc = transfer_delay(rt, 0, a["f0"], 2000.0)
        payload = 2000.0
        prev = None
        for k in range(4):
            f = fns[f"f{k}"]
            if prev is not None:
                tacc += transfer_delay(rt, a[prev], a[f.id], payload)
            ops, out = stage_io(f, payload)
            tacc += ops / workers[a[f.id]].core_speed
            payload = out
            prev = f.id
        tacc += transfer_delay(rt, a["f3"], 0, payload)
        assert got == pytest.approx(tacc, abs=1e-12)

    def test_missing_assignment_rejected(self):
        t, rt, workers = two_worker_network()
        f = FunctionSpec("f1", fixed_ops=1000.0, output_ratio=1.0)
        app = app_of(linear_dag(("f1",)), {"f1": f}, 1000.0)
        with pytest.raises(ValueError, match="assignment"):
            critical_path_time(app, {}, rt, None, StateMode.EMBEDDED, workers=workers)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(list(StateMode)))
    def test_equals_path_enumeration(self, seed, mode):
        rng = random.Random(seed)
        t, rt, workers = two_worker_network()
        d, entry = random_dag(rng, max_vertices=10)
        fns = {
            v: FunctionSpec(
                v,
                fixed_ops=rng.choice([0.0, 1e3, 1e5]),
                ops_per_byte=rng.choice([0.5, 2.0]),
                output_ratio=rng.choice([0.0, 0.5, 1.0]),
                state_size=rng.choice([0.0, 1e4]),
            )
            for v in d.vertices
        }
        a = {v: rng.choice([1, 2]) for v in d.vertices}
        hosts = {}
        for v in sorted(d.vertices):
            if fns[v].state_size > 0 and rng.random() < 0.7:
                hosts["app", v] = rng.choice([1, 2])
        app = app_of(d, fns, entry)
        got = critical_path_time(app, a, rt, hosts, mode, workers=workers)
        expected = enumerate_critical_path(app, a, rt, hosts, mode, workers=workers)
        assert got == expected

    def test_monotone_in_compute_and_payload(self):
        t, rt, workers = two_worker_network()
        rng = random.Random(99)
        for _ in range(20):
            d, entry = random_dag(rng, max_vertices=8)
            fns = {
                v: FunctionSpec(v, fixed_ops=1e3, ops_per_byte=1.0, output_ratio=0.5)
                for v in d.vertices
            }
            a = {v: rng.choice([1, 2]) for v in d.vertices}
            app = app_of(d, fns, entry)
            base = critical_path_time(app, a, rt, None, StateMode.EMBEDDED, workers=workers)
            bumped_v = rng.choice(sorted(d.vertices))
            fns2 = dict(fns)
            fns2[bumped_v] = FunctionSpec(bumped_v, fixed_ops=5e5, ops_per_byte=1.0, output_ratio=0.5)
            more_compute = critical_path_time(app_of(d, fns2, entry), a, rt, None, StateMode.EMBEDDED, workers=workers)
            assert more_compute >= base
            bigger_entry = critical_path_time(
                app, a, rt, None, StateMode.EMBEDDED, workers=workers, entry_payload=app.entry_payload * 3
            )
            assert bigger_entry >= base


class TestTopoOrder:
    def test_join_inputs_sum_in_sorted_pred_order(self):
        outputs = {"f2": 10.0, "f3": 20.0}
        assert vertex_input_bytes(("f2", "f3"), outputs, 999.0) == 30.0
        assert vertex_input_bytes((), outputs, 999.0) == 999.0
