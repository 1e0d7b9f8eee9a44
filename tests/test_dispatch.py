import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import state as state_mod
from chainsim.dispatch import (
    DispatchContext,
    PolicyKind,
    _least_backlog,
    _least_estimate,
    choose_worker,
    estimate_completion,
)
from chainsim.engine import WorkerRuntime
from chainsim.state import StateMode
from chainsim.topology import LinkSpec, NodeSpec, Topology, build_routes
from chainsim.workflow import FunctionSpec

from helpers import loaded_runtimes, make_topology, reference_choice, reference_estimate


def star_network(n_workers=3, core_speed=1e6, cores=1):
    nodes = [(0, "client")]
    links = []
    for i in range(n_workers):
        nodes.append((i + 1, "worker", cores, core_speed))
        links.append((0, i + 1, 0.001, 1e6))
    t = make_topology(nodes, links)
    return t, build_routes(t)


def make_ctx(
    t,
    rt,
    *,
    backlog=None,
    seed=0,
    candidates=None,
    policy=PolicyKind.MIN_LATENCY_ESTIMATE,
    mode=StateMode.EMBEDDED,
):
    workers = {n.id: n for n in t.workers()}
    cands = tuple(sorted(workers)) if candidates is None else tuple(candidates)
    return DispatchContext(
        candidate_workers=cands,
        routes=rt,
        rng=np.random.default_rng(seed),
        loads=loaded_runtimes(workers, backlog or {}),
        policy=policy,
        mode=mode,
    )


def choose(ctx, f, input_bytes, *, payload_node=0, host=None, now=0.0):
    """``choose_worker`` for stage ``("app", f.id)``."""
    return choose_worker(ctx, f, ("app", f.id), input_bytes, now, payload_node, host)


def estimate(ctx, f, w, input_bytes, *, payload_node=0, host=None, now=0.0):
    return estimate_completion(ctx, f, w, input_bytes, now, payload_node, host)


class TestEstimateCompletion:
    def test_idle_colocated_is_compute_only(self):
        t, rt = star_network(1)
        ctx = make_ctx(t, rt, mode=StateMode.REMOTE_FIXED)
        f = FunctionSpec("f", fixed_ops=1000.0)
        assert estimate(ctx, f, 1, 0.0, payload_node=1) == pytest.approx(
            0.001, abs=1e-15
        )

    def test_backlog_adds_drain_time(self):
        t, rt = star_network(1)
        ctx = make_ctx(t, rt, backlog={1: 1000.0}, mode=StateMode.REMOTE_FIXED)
        f = FunctionSpec("f", fixed_ops=1000.0)
        assert estimate(ctx, f, 1, 0.0, payload_node=1) == pytest.approx(
            0.002, abs=1e-15
        )

    def test_input_transfer_term(self):
        # one hop (1 ms, 1e6 B/s) with 1000 B: 0.002 transfer + 0.001 backlog + 0.001 compute
        t, rt = star_network(1)
        ctx = make_ctx(t, rt, backlog={1: 1000.0}, mode=StateMode.REMOTE_FIXED)
        f = FunctionSpec("f", fixed_ops=1000.0)
        assert estimate(ctx, f, 1, 1000.0, payload_node=0) == pytest.approx(
            0.004, abs=1e-15
        )

    def test_state_term_uses_snapshot_without_migrating(self):
        t, rt = star_network(2)
        ctx = make_ctx(t, rt, mode=StateMode.REMOTE_MIGRATE)
        f = FunctionSpec("f", fixed_ops=1000.0, state_size=500.0)
        at_host = estimate(ctx, f, 1, 0.0, payload_node=1, host=1)
        away = estimate(ctx, f, 2, 0.0, payload_node=1, host=1)
        assert away > at_host
        # prediction, not commitment: the state stays at host 1
        assert estimate(ctx, f, 1, 0.0, payload_node=1, host=1) == at_host

    def test_cores_divide_backlog(self):
        t, rt = star_network(1, cores=4)
        ctx = make_ctx(t, rt, backlog={1: 4000.0}, mode=StateMode.REMOTE_FIXED)
        f = FunctionSpec("f", fixed_ops=1000.0)
        assert estimate(ctx, f, 1, 0.0, payload_node=1) == pytest.approx(
            0.002, abs=1e-15
        )


class TestChooseWorker:
    def test_single_candidate_any_policy(self):
        t, rt = star_network(1)
        f = FunctionSpec("f", fixed_ops=1000.0)
        for policy in PolicyKind:
            ctx = make_ctx(t, rt, policy=policy)
            assert choose(ctx, f, 100.0) == 1

    def test_empty_candidates_rejected(self):
        t, rt = star_network(2)
        with pytest.raises(ValueError, match="empty candidate list"):
            make_ctx(t, rt, candidates=(), policy=PolicyKind.RANDOM)

    def test_candidate_without_runtime_rejected(self):
        t, rt = star_network(2)
        ctx = make_ctx(t, rt, policy=PolicyKind.RANDOM)
        with pytest.raises(ValueError, match="candidate 7 has no runtime in loads"):
            replace(ctx, candidate_workers=(1, 7), loads={1: ctx.loads[1]})

    def test_least_loaded_breaks_ties_by_id(self):
        t, rt = star_network(3)
        for candidates in ((1, 2, 3), (3, 2, 1)):
            ctx = make_ctx(t, rt, backlog={1: 5.0, 2: 5.0, 3: 9.0}, candidates=candidates,
                           policy=PolicyKind.LEAST_LOADED)
            f = FunctionSpec("f", 1.0)
            assert choose(ctx, f, 0.0) == 1

    def test_round_robin_cycles_per_function(self):
        t, rt = star_network(3)
        ctx = make_ctx(t, rt, policy=PolicyKind.ROUND_ROBIN)
        f, g = FunctionSpec("f", 1.0), FunctionSpec("g", 1.0)
        seq_f = [choose(ctx, f, 0.0) for _ in range(6)]
        assert seq_f == [1, 2, 3, 1, 2, 3]
        # a different function has its own cursor
        assert choose(ctx, g, 0.0) == 1

    def test_state_local_prefers_host_else_least_loaded(self):
        t, rt = star_network(3)
        local = {"policy": PolicyKind.STATE_LOCAL, "mode": StateMode.REMOTE_FIXED}
        ctx = make_ctx(t, rt, backlog={1: 0.0, 2: 0.0, 3: 100.0}, **local)
        f = FunctionSpec("f", fixed_ops=1.0, state_size=10.0)
        assert choose(ctx, f, 0.0, host=3) == 3
        # host not among candidates: falls back to least loaded
        ctx2 = make_ctx(t, rt, backlog={1: 7.0, 2: 3.0}, candidates=(1, 2), **local)
        assert choose(ctx2, f, 0.0, host=3) == 2
        # unplaced state: least loaded
        ctx3 = make_ctx(t, rt, backlog={1: 7.0, 2: 3.0, 3: 5.0}, **local)
        assert choose(ctx3, f, 0.0) == 2

    def test_random_is_deterministic_per_seed(self):
        t, rt = star_network(4)
        f = FunctionSpec("f", 1.0)
        seq1 = [choose(make_ctx(t, rt, seed=7, policy=PolicyKind.RANDOM), f, 0.0)]
        seq2 = [choose(make_ctx(t, rt, seed=7, policy=PolicyKind.RANDOM), f, 0.0)]
        assert seq1 == seq2

    def test_min_latency_matches_brute_force(self):
        rng = random.Random(42)
        f = FunctionSpec("f", fixed_ops=5000.0, ops_per_byte=1.0, state_size=800.0)
        for _ in range(50):
            n = rng.randint(2, 6)
            t, rt = star_network(n)
            host = rng.randint(1, n)
            backlog = {w: rng.choice([0.0, 500.0, 500.0, 2000.0]) for w in range(1, n + 1)}
            mode = rng.choice(list(StateMode))
            ctx = make_ctx(t, rt, backlog=backlog, mode=mode)
            got = choose(ctx, f, 1000.0, host=host)
            expected = min(
                ctx.candidate_workers,
                key=lambda w: (estimate(ctx, f, w, 1000.0, host=host), w),
            )
            assert got == expected

    def test_min_latency_tie_resolves_to_lowest_id(self):
        # identical workers, identical links, no state: all estimates equal
        t, rt = star_network(4)
        f = FunctionSpec("f", fixed_ops=1000.0)
        for candidates in ((1, 2, 3, 4), (4, 3, 2, 1)):
            ctx = make_ctx(t, rt, candidates=candidates)
            assert choose(ctx, f, 100.0) == 1


class TestOnePassChoice:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(["0.0", "1.0", "2.5", "inf", "nan"]), min_size=1, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_least_backlog_equals_min_over_pairs(self, values, rnd):
        # The pass keeps the first row, then takes a row whose backlog is less,
        # or equal with a lower id: ``min`` over (backlog, worker) pairs, NaN
        # included, for candidates in any order. Each backlog is its own float.
        ids = list(range(1, len(values) + 1))
        rnd.shuffle(ids)
        backlogs = [float(v) for v in values]
        rows = []
        for w, ops in zip(ids, backlogs):
            wr = WorkerRuntime(NodeSpec(w, "worker", cores=1, core_speed=1e6))
            wr.queued_ops = ops
            rows.append((w, wr, 1e6, 1e6))
        best, best_w = _least_backlog(0.0, tuple(rows))
        ref_best, ref_w = min(zip(backlogs, ids))
        assert (best.hex(), best_w) == (ref_best.hex(), ref_w)

    def test_repeated_decision_reads_no_route_table_memo(self, monkeypatch):
        # The candidates are fixed per run, so the context keeps their hop
        # groups and state delays: a decision at a seen payload node, state
        # host and state size looks up no route and prices no state access.
        t, rt = star_network(n_workers=4)
        ctx = make_ctx(t, rt, mode=StateMode.REMOTE_FIXED)
        f = FunctionSpec("f", fixed_ops=1000.0, state_size=500.0)
        first = choose(ctx, f, 100.0, payload_node=3, host=2)
        # one entry per node, the state host's reused for its state delays
        assert sorted(ctx.hop_memo) == [2, 3]
        assert list(ctx.state_memo) == [(2, 500.0)]
        hops, delays = dict(ctx.hop_memo), dict(ctx.state_memo)

        def fail(*args):
            raise AssertionError("route grouped or state priced at a repeated decision")

        monkeypatch.setattr(type(rt), "route", fail)
        monkeypatch.setattr(state_mod, "remote_state_access", fail)
        monkeypatch.setattr(state_mod, "_price_access", fail)
        assert choose(ctx, f, 100.0, payload_node=3, host=2) == first
        assert ctx.hop_memo == hops and ctx.state_memo == delays
        assert all(ctx.hop_memo[k] is v for k, v in hops.items())
        assert all(ctx.state_memo[k] is v for k, v in delays.items())

    @pytest.mark.parametrize("policy", [PolicyKind.ROUND_ROBIN, PolicyKind.MIN_LATENCY_ESTIMATE])
    def test_estimate_leaves_the_context_as_it_was(self, policy):
        # estimate_completion scores a copy of the context, so the caller's
        # caches and cursors keep their entries, unseen nodes included, and
        # the next decision is the one a context with no estimates makes.
        t, rt = star_network(n_workers=4)
        f = FunctionSpec("f", fixed_ops=1000.0, state_size=500.0)
        ctx, twin = (make_ctx(t, rt, backlog={1: 3000.0, 3: 500.0}, policy=policy, mode=StateMode.REMOTE_FIXED)
                     for _ in range(2))
        assert choose(ctx, f, 100.0, payload_node=3, host=2) == choose(twin, f, 100.0, payload_node=3, host=2)
        before = [dict(memo) for memo in (ctx.hop_memo, ctx.state_memo, ctx.cursors)]
        for src, host in ((3, 2), (0, 4), (1, None)):
            for w in ctx.candidate_workers:
                got = estimate(ctx, f, w, 100.0, payload_node=src, host=host)
                assert got.hex() == reference_estimate(ctx, f, w, 100.0, 0.0, src, host).hex()
            after = [ctx.hop_memo, ctx.state_memo, ctx.cursors]
            assert after == before
            assert all(a[k] is v for a, b in zip(after, before) for k, v in b.items())
        assert choose(ctx, f, 100.0, payload_node=3, host=2) == choose(twin, f, 100.0, payload_node=3, host=2)


class TestPolicyProperties:
    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.1, max_value=100.0))
    def test_min_latency_scale_invariance(self, seed, scale):
        # scaling all core speeds and link rates rescales every estimate;
        # on tie-free instances the argmin is unchanged
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        speeds = [rng.choice([1e5, 3e5, 1e6]) for _ in range(n)]
        rates = [rng.choice([1e5, 1e6, 1e7]) for _ in range(n)]

        def build(k):
            nodes = [NodeSpec(0, "client")] + [
                NodeSpec(i + 1, "worker", cores=1, core_speed=speeds[i] * k) for i in range(n)
            ]
            links = [LinkSpec(0, i + 1, 0.001, rates[i] * k) for i in range(n)]
            t = Topology(tuple(nodes), tuple(links))
            return t, build_routes(t)

        f = FunctionSpec("f", fixed_ops=3000.0, ops_per_byte=1.0)
        t1, rt1 = build(1.0)
        ctx1 = make_ctx(t1, rt1)
        estimates = [estimate(ctx1, f, w, 500.0) for w in ctx1.candidate_workers]
        if len(set(estimates)) < len(estimates):
            return  # tie-free instances only
        t2, rt2 = build(scale)
        ctx2 = make_ctx(t2, rt2)
        pick1 = choose(ctx1, f, 500.0)
        pick2 = choose(ctx2, f, 500.0)
        assert pick1 == pick2

    def test_random_uniform_within_3_sigma(self):
        t, rt = star_network(4)
        ctx = make_ctx(t, rt, seed=123, policy=PolicyKind.RANDOM)
        f = FunctionSpec("f", 1.0)
        n = 10_000
        counts = {w: 0 for w in ctx.candidate_workers}
        for _ in range(n):
            counts[choose(ctx, f, 0.0)] += 1
        p = 1 / len(counts)
        sigma = (n * p * (1 - p)) ** 0.5
        for w, c in counts.items():
            assert abs(c - n * p) <= 3 * sigma, (w, c)


def random_mesh(rng, tie):
    """Client 0 and brokers in a full mesh, workers behind brokers, from few link kinds.

    Routes from one source share hop sequences, and differ in rate where
    their hop counts agree. With ``tie`` every worker is the same and hangs
    off broker 1 over the same link, so equal estimates are certain.
    """
    n_brokers = rng.randint(1, 3)
    brokers = list(range(1, n_brokers + 1))
    nodes = [(0, "client")] + [(b, "broker") for b in brokers]
    links = [(0, b, 0.002, rng.choice([1e8, 2e7])) for b in brokers]
    links += [(a, b, 0.001, rng.choice([1e8, 5e7])) for i, a in enumerate(brokers) for b in brokers[i + 1:]]
    workers = list(range(n_brokers + 1, n_brokers + 1 + rng.randint(2, 8)))
    for w in workers:
        if tie:
            nodes.append((w, "worker", 2, 1e6))
            links.append((1, w, 0.0005, 1e6))
        else:
            nodes.append((w, "worker", rng.randint(1, 3), rng.choice([1e6, 2e6])))
            links.append((rng.choice(brokers), w, rng.choice([0.0005, 0.001]), rng.choice([1e6, 5e6])))
    return make_topology(nodes, links)


class TestScoresMatchReference:
    """The one-pass scorer against one ``transfer_delay`` and one state access per worker."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    def test_estimates_and_choice_bit_identical(self, seed, tie):
        rng = random.Random(seed)
        t = random_mesh(rng, tie)
        rt = build_routes(t)
        workers = {n.id: n for n in t.workers()}
        candidates = rng.sample(sorted(workers), rng.randint(2 if tie else 1, len(workers)))
        outside = [w for w in workers if w not in candidates]
        # one route table for every host and mode, so a memo keyed too coarsely shows
        hosts = [None] + outside[:1] + ([] if tie else [rng.choice(candidates)])
        sources = [0] if tie else [0, rng.choice(candidates), rng.choice(sorted(workers))]
        f = FunctionSpec(
            "f",
            fixed_ops=rng.choice([0.0, 5000.0]),
            ops_per_byte=rng.choice([0.5, 2.0]),
            state_size=rng.choice([0.0, 1000.0, 20000.0]),
        )
        for mode in StateMode:
            for host in hosts:
                for src in sources:
                    if tie:
                        backlog = {w: 500.0 for w in candidates}
                    else:
                        backlog = {w: rng.choice([0.0, 500.0, 2000.0]) for w in candidates if rng.random() < 0.8}
                    ctx = make_ctx(t, rt, backlog=backlog, candidates=candidates, mode=mode)
                    input_bytes = rng.choice([0.0, 1000.0, 12345.6])
                    args = (input_bytes, 0.0, src, host)
                    reference = [reference_estimate(ctx, f, w, *args) for w in candidates]
                    expected = [x.hex() for x in reference]
                    best, best_w = _least_estimate(ctx, f, *args)
                    ref_best, ref_w = min(zip(reference, candidates))
                    assert (best.hex(), best_w) == (ref_best.hex(), ref_w)
                    assert [estimate_completion(ctx, f, w, *args).hex() for w in candidates] == expected
                    got = choose_worker(ctx, f, ("app", "f"), *args)
                    assert got == reference_choice(ctx, f, *args)
                    if tie:
                        assert len(set(expected)) == 1
                        assert got == min(candidates)


class TestInterleavedDecisions:
    """One context serves a whole run; each decision brings its own time, payload node and state host."""

    @pytest.mark.parametrize(
        "policy", [PolicyKind.LEAST_LOADED, PolicyKind.STATE_LOCAL, PolicyKind.MIN_LATENCY_ESTIMATE]
    )
    def test_shared_context_decides_as_fresh_ones(self, policy):
        rng = random.Random(2424)
        t = random_mesh(rng, tie=False)
        rt = build_routes(t)
        workers = sorted(n.id for n in t.workers())
        # queued ops and busy cores, so which worker is least loaded turns on the time
        backlog = {w: rng.choice([500.0, 2000.0, 3000.0]) for w in workers}
        shared = make_ctx(t, rt, backlog=backlog, policy=policy, mode=StateMode.REMOTE_FIXED)
        for w in workers:
            shared.loads[w].busy_until[0] = rng.choice([0.0, 0.002, 0.01])
        f = FunctionSpec("f", fixed_ops=1000.0, ops_per_byte=1.0, state_size=20000.0)
        picks = []
        for _ in range(60):
            now = rng.choice([0.0, 0.001, 0.009])
            src = rng.choice([n.id for n in t.nodes])
            host = rng.choice([None, *workers])
            args = (1000.0, now, src, host)
            if policy is PolicyKind.MIN_LATENCY_ESTIMATE:
                # the least estimate itself, so a stale table shows even where the pick survives it
                best, best_w = _least_estimate(shared, f, *args)
                fresh, fresh_w = _least_estimate(replace(shared), f, *args)
                assert (best.hex(), best_w) == (fresh.hex(), fresh_w)
            got = choose_worker(shared, f, ("app", "f"), *args)
            assert got == choose_worker(replace(shared), f, ("app", "f"), *args)
            picks.append(got)
        assert len(set(picks)) > 1

    def test_round_robin_rotation_per_key(self):
        # The same function in two apps: each stage key keeps its own cursor.
        t, rt = star_network(3)
        ctx = make_ctx(t, rt, policy=PolicyKind.ROUND_ROBIN)
        f = FunctionSpec("f", 1.0)
        picks = {("a", "f"): [], ("b", "f"): []}
        for key in [("a", "f"), ("b", "f"), ("a", "f"), ("a", "f"), ("b", "f"), ("a", "f"), ("b", "f")]:
            picks[key].append(choose_worker(ctx, f, key, 0.0, 0.0, 0, None))
        assert picks == {("a", "f"): [1, 2, 3, 1], ("b", "f"): [1, 2, 3]}
