import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim import engine, metrics
from chainsim.config import load_json, scenario_from_raw
from chainsim.dispatch import PolicyKind, _least_backlog, estimate_completion
from chainsim.state import StateMode, StateRegistry
from chainsim.topology import NodeSpec
from chainsim.workflow import critical_path_time

from helpers import (
    batch_means_interval,
    chain_scenario_raw,
    random_chain_scenario_raw,
    random_dag_scenario_raw,
    reference_choice,
    reference_estimate,
    rescan_backlog,
)

ALL_POLICIES = ["random", "round_robin", "least_loaded", "state_local", "min_latency_estimate"]
ALL_MODES = ["embedded", "remote_fixed", "remote_migrate"]
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def build(raw, explicit=None):
    sc, errs = scenario_from_raw(raw)
    assert not errs, errs
    if explicit is not None:
        sc.explicit_arrivals = explicit
    return sc


def run_one(raw, explicit=None, seed=None):
    return engine.run(build(raw, explicit), seed=seed)


def oracle_latency(sc, log, inv):
    """Analytic zero-load latency for the assignment the run actually chose."""
    app = sc.apps[inv.app]
    assignment = {fid: rec.worker for fid, rec in inv.stages.items()}
    return critical_path_time(
        app.dag,
        assignment,
        sc.routes,
        StateRegistry(),
        sc.state_mode,
        functions=app.functions,
        workers={n.id: n for n in sc.topology.workers()},
        client=app.client,
        entry_payload=inv.payload,
    )


class TestVacuousRun:
    def test_empty_workload(self):
        log = run_one(chain_scenario_raw(), explicit={"app": []})
        assert log.injected == log.completed == 0
        assert all(u == 0.0 for u in log.utilization.values())
        assert log.end_time == 0.0

    def test_horizon_cuts_arrivals(self):
        raw = chain_scenario_raw(rate=0.001, horizon=0.001, seed=5)
        log = run_one(raw)
        assert log.injected == 0


class TestZeroLoadOracle:
    @pytest.mark.parametrize("policy,mode", list(itertools.product(ALL_POLICIES, ALL_MODES)))
    def test_single_invocation_matches_critical_path(self, policy, mode):
        raw = chain_scenario_raw(
            n_workers=3, chain_len=3, policy=policy, state_mode=mode, state_size=5000.0
        )
        sc = build(raw, explicit={"app": [0.0]})
        log = engine.run(sc)
        assert log.completed == 1
        inv = log.invocations[0]
        assert inv.latency == pytest.approx(oracle_latency(sc, log, inv), abs=1e-9)

    def test_nonzero_arrival_time(self):
        sc = build(chain_scenario_raw(chain_len=2), explicit={"app": [3.25]})
        log = engine.run(sc)
        inv = log.invocations[0]
        assert inv.arrival == 3.25
        assert inv.latency == pytest.approx(oracle_latency(sc, log, inv), abs=1e-9)


class TestDeterminism:
    def test_same_seed_identical_metrics(self):
        raw = chain_scenario_raw(n_workers=2, chain_len=2, policy="random", rate=20.0, horizon=5.0)
        a, b = run_one(raw), run_one(raw)
        assert metrics.invocations_csv(a) == metrics.invocations_csv(b)
        assert metrics.links_csv(a) == metrics.links_csv(b)
        assert metrics.workers_csv(a) == metrics.workers_csv(b)

    def test_different_seeds_differ(self):
        raw = chain_scenario_raw(rate=20.0, horizon=5.0)
        a = run_one(raw, seed=1)
        b = run_one(raw, seed=2)
        assert [i.arrival for i in a.invocations] != [i.arrival for i in b.invocations]


class TestConservationAndAccounting:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_injected_equals_completed_plus_in_flight(self, mode):
        raw = chain_scenario_raw(n_workers=2, chain_len=3, state_mode=mode, rate=30.0, horizon=4.0)
        log = run_one(raw)
        assert log.injected > 0
        assert log.injected == log.completed + log.in_flight_at_end

    def test_link_totals_match_stage_records(self):
        raw = chain_scenario_raw(
            n_workers=3, chain_len=3, state_mode="remote_migrate", state_size=4000.0,
            rate=25.0, horizon=4.0, policy="round_robin",
        )
        log = run_one(raw)
        per_link = sum(log.link_bytes.values())
        per_stage = sum(rec.link_bytes for inv in log.invocations for rec in inv.stages.values())
        assert per_link == pytest.approx(per_stage, abs=1e-6)

    def test_utilization_bounded(self):
        raw = chain_scenario_raw(rate=100.0, horizon=3.0)  # saturating load
        log = run_one(raw)
        for u in log.utilization.values():
            assert 0.0 <= u <= 1.0 + 1e-9


class TestQueueing:
    def test_two_simultaneous_enqueues_serve_in_seq_order(self):
        # one single-core worker; two invocations arriving at the same instant
        raw = chain_scenario_raw(n_workers=1, chain_len=1)
        log = run_one(raw, explicit={"app": [1.0, 1.0]})
        first, second = log.invocations
        rec1 = first.stages["f0"]
        rec2 = second.stages["f0"]
        assert rec1.queue_wait_s == 0.0
        assert rec2.queue_wait_s == pytest.approx(rec1.compute_s, abs=1e-12)

    def test_queue_wait_is_busy_until_minus_enqueue(self):
        raw = chain_scenario_raw(n_workers=1, chain_len=1)
        # second arrival lands while the first is still in service
        sc = build(raw, explicit={"app": [0.0, 0.0001]})
        log = engine.run(sc)
        a, b = log.invocations
        ra, rb = a.stages["f0"], b.stages["f0"]
        # enqueue instants include the input transfer
        enq_a = ra.dispatch_time + ra.transfer_s + ra.state_delay_s
        enq_b = rb.dispatch_time + rb.transfer_s + rb.state_delay_s
        busy_until = enq_a + ra.compute_s
        assert rb.queue_wait_s == pytest.approx(busy_until - enq_b, abs=1e-12)

    def test_fifo_holds_when_exec_start_ties_exec_done(self):
        # inv 2's EXEC_START at t=2.5 was scheduled before inv 0's EXEC_DONE at
        # t=2.5, so it is popped first; it must still queue behind inv 1.
        raw = chain_scenario_raw(n_workers=1, chain_len=1)
        raw["topology"]["nodes"][1]["core_speed"] = 1.0
        # 1.5 s each way: the payload's serialization time is below half an ulp of 1.5
        raw["topology"]["links"][0].update(propagation=1.5, rate=1e30)
        raw["workflows"][0]["functions"][0].update(fixed_ops=1.0, ops_per_byte=0.0)
        log = run_one(raw, explicit={"app": [0.0, 0.5, 1.0]})
        assert [inv.stages["f0"].queue_wait_s for inv in log.invocations] == [0.0, 0.5, 1.0]
        assert [inv.completion for inv in log.invocations] == [4.0, 5.0, 6.0]

    def test_multicore_runs_in_parallel(self):
        raw = chain_scenario_raw(n_workers=1, chain_len=1)
        raw["topology"]["nodes"][1]["cores"] = 2
        log = run_one(raw, explicit={"app": [1.0, 1.0]})
        assert all(inv.stages["f0"].queue_wait_s == 0.0 for inv in log.invocations)


class TestDagExecution:
    def diamond_raw(self):
        raw = chain_scenario_raw(n_workers=2)
        raw["workflows"][0] = {
            "app_id": "app",
            "client": 0,
            "entry_payload": 1000.0,
            "functions": [
                {"id": "f1", "fixed_ops": 1000.0, "ops_per_byte": 0.0, "output_ratio": 1.0, "state_size": 0.0},
                {"id": "f2", "fixed_ops": 5000.0, "ops_per_byte": 0.0, "output_ratio": 1.0, "state_size": 0.0},
                {"id": "f3", "fixed_ops": 9000.0, "ops_per_byte": 0.0, "output_ratio": 1.0, "state_size": 0.0},
                {"id": "f4", "fixed_ops": 1000.0, "ops_per_byte": 0.0, "output_ratio": 1.0, "state_size": 0.0},
            ],
            "dag": {
                "vertices": ["f1", "f2", "f3", "f4"],
                "edges": [["f1", "f2"], ["f1", "f3"], ["f2", "f4"], ["f3", "f4"]],
            },
        }
        return raw

    def test_join_waits_for_both_branches(self):
        log = run_one(self.diamond_raw(), explicit={"app": [0.0]})
        inv = log.invocations[0]
        done_f2 = (
            inv.stages["f2"].dispatch_time
            + inv.stages["f2"].transfer_s
            + inv.stages["f2"].state_delay_s
            + inv.stages["f2"].queue_wait_s
            + inv.stages["f2"].compute_s
        )
        done_f3 = (
            inv.stages["f3"].dispatch_time
            + inv.stages["f3"].transfer_s
            + inv.stages["f3"].state_delay_s
            + inv.stages["f3"].queue_wait_s
            + inv.stages["f3"].compute_s
        )
        assert inv.stages["f4"].dispatch_time == pytest.approx(max(done_f2, done_f3), abs=1e-12)

    def test_join_input_is_sum_of_outputs(self):
        log = run_one(self.diamond_raw(), explicit={"app": [0.0]})
        inv = log.invocations[0]
        assert inv.outputs["f4"] == pytest.approx(inv.outputs["f2"] + inv.outputs["f3"], abs=1e-9)

    def test_all_four_stages_execute(self):
        log = run_one(self.diamond_raw(), explicit={"app": [0.0]})
        assert set(log.invocations[0].stages) == {"f1", "f2", "f3", "f4"}


class TestRandomizedZeroLoad:
    def test_random_scenarios_match_oracle(self):
        rng = random.Random(0xC0FFEE)
        for k in range(20):
            raw = random_chain_scenario_raw(
                rng,
                seed=k,
                policy=rng.choice(ALL_POLICIES),
                state_mode=rng.choice(ALL_MODES),
            )
            sc = build(raw, explicit={"app": [0.0]})
            log = engine.run(sc)
            assert log.completed == 1
            inv = log.invocations[0]
            assert inv.latency == pytest.approx(oracle_latency(sc, log, inv), abs=1e-9), raw

    def test_random_dags_equal_critical_path_exactly(self):
        # Joins start at max(done) + max(transfer) in both the engine and the
        # oracle; a per-edge max(done + transfer) disagrees on some of these.
        rng = random.Random(0xDA6)
        combos = list(itertools.product(ALL_POLICIES, ALL_MODES))
        for k in range(300):
            policy, mode = combos[k % len(combos)]
            raw = random_dag_scenario_raw(rng, seed=k, policy=policy, state_mode=mode)
            sc = build(raw, explicit={"app": [0.0]})
            log = engine.run(sc)
            assert log.completed == 1
            inv = log.invocations[0]
            assert inv.latency == oracle_latency(sc, log, inv), (policy, mode, raw)


class TestComputeRandomization:
    def test_factors_scale_fixed_ops_only(self):
        raw = chain_scenario_raw(n_workers=1, chain_len=1)
        raw["workload"]["compute_randomization"] = True
        log = run_one(raw, explicit={"app": [0.0]})
        inv = log.invocations[0]
        f = build(raw).apps["app"].functions["f0"]
        expected_ops = f.fixed_ops * inv.compute_factor + f.ops_per_byte * inv.payload
        assert inv.stages["f0"].compute_s == pytest.approx(expected_ops / 1e6, rel=1e-12)
        assert inv.compute_factor != 1.0

    def test_mm1_smoke(self):
        # reduced-size sanity check; the full-scale check lives in acceptance
        raw = chain_scenario_raw(n_workers=1, chain_len=1, rate=0.5, horizon=40000.0)
        raw["workflows"][0]["functions"][0] = {
            "id": "f0", "fixed_ops": 1e6, "ops_per_byte": 0.0, "output_ratio": 1.0, "state_size": 0.0,
        }
        raw["workflows"][0]["entry_payload"] = 1.0
        raw["topology"]["links"][0] = {
            "endpoint_a": 0, "endpoint_b": 1, "propagation": 0.0, "rate": 1e15,
        }
        raw["workload"]["compute_randomization"] = True
        log = run_one(raw)
        lat = [i.latency for i in log.invocations if i.latency is not None]
        mean = sum(lat) / len(lat)
        assert len(lat) > 15000
        assert mean == pytest.approx(2.0, rel=0.10)


class TestMD1:
    def test_sojourn_matches_pollaczek_khinchine(self):
        # configs/mm1.json with constant 1 s service: M/D/1 at rho = 0.7,
        # mean sojourn 1/mu + rho / (2 mu (1 - rho)). The seed is the config's.
        lam, mu = 0.7, 1.0
        raw = load_json(CONFIGS / "mm1.json")
        raw["workload"]["compute_randomization"] = False
        raw["workload"]["rates"]["mm1"] = lam
        raw["workload"]["horizon"] = 60_000.0
        log = engine.run(build(raw))
        assert log.completed == log.injected > 40_000
        # one FIFO server: invocations leave in arrival order
        completions = [inv.completion for inv in log.invocations]
        assert completions == sorted(completions)

        latencies = [inv.latency for inv in log.invocations][2_000:]  # warm-up dropped
        grand, half = batch_means_interval(latencies)
        expected = 1.0 / mu + lam / (2.0 * mu * (1.0 - lam))
        assert grand - half <= expected <= grand + half, (grand, half, expected)
        assert half < 0.1 * expected  # the interval is narrow enough to mean something


class TestMMc:
    def test_sojourn_matches_erlang_c(self):
        # configs/mm1.json with 4 cores and exponential 1 s service: M/M/4 at
        # rho = 0.8. Mean sojourn 1/mu + C(c, a) / (c mu - lam), a = lam/mu,
        # with C the Erlang-C probability of waiting. The seed is the config's.
        lam, mu, c = 3.2, 1.0, 4
        raw = load_json(CONFIGS / "mm1.json")
        raw["topology"]["nodes"][1]["cores"] = c
        raw["workload"]["compute_randomization"] = True
        raw["workload"]["rates"]["mm1"] = lam
        raw["workload"]["horizon"] = 25_000.0
        log = engine.run(build(raw))
        assert log.completed == log.injected > 75_000

        latencies = [inv.latency for inv in log.invocations][2_000:]  # warm-up dropped
        grand, half = batch_means_interval(latencies)
        a = lam / mu
        tail = a**c / math.factorial(c) * c / (c - a)
        erlang_c = tail / (math.fsum(a**k / math.factorial(k) for k in range(c)) + tail)
        expected = 1.0 / mu + erlang_c / (c * mu - lam)
        assert expected == pytest.approx(1.7455, abs=1e-4)
        assert grand - half <= expected <= grand + half, (grand, half, expected)
        assert half < 0.15 * expected  # the interval is narrow enough to mean something


QUEUED_OPS = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


class TestWorkerRuntime:
    def test_backlog_counts_queued_and_in_service_ops(self):
        wr = engine.WorkerRuntime(NodeSpec(1, "worker", cores=2, core_speed=1e6))
        assert wr.backlog_ops(0.0) == 0.0
        wr.busy_until = [2.0, 0.5]  # remaining at t=0: 2e6 + 5e5 ops
        wr.enqueue((0, "f", 1, 0.0, 3000.0), 0.0)
        wr.enqueue((1, "f", 1, 0.0, 500.0), 0.0)
        assert wr.backlog_ops(0.0) == pytest.approx(2e6 + 5e5 + 3500.0, abs=1e-6)
        # in-service remainder shrinks with time, queued ops do not
        assert wr.backlog_ops(1.0) == pytest.approx(1e6 + 3500.0, abs=1e-6)
        assert wr.backlog_ops(5.0) == pytest.approx(3500.0, abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(
        busy_until=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=4),
        core_speed=st.sampled_from([1e5, 1e6, 5e6, 3.3e6]),
        steps=st.lists(st.one_of(QUEUED_OPS, st.none()), max_size=40),
        nows=st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=1, max_size=3),
    )
    # a float running sum of these leaves a residue once the queue empties
    @example(busy_until=[0.0], core_speed=1e6, steps=[0.1, 0.2, 0.3, None, None, None], nows=[0.0])
    def test_running_total_equals_fsum_rescan(self, busy_until, core_speed, steps, nows):
        wr = engine.WorkerRuntime(NodeSpec(1, "worker", cores=len(busy_until), core_speed=core_speed))
        wr.busy_until = busy_until
        for i, ops in enumerate(steps):
            if ops is None:
                if wr.queue:
                    wr.dequeue()
            else:
                wr.enqueue((i, "f", 1, 0.0, ops), 0.0)
            for now in nows:
                assert wr.backlog_ops(now).hex() == rescan_backlog(wr, now).hex()
        while wr.queue:
            wr.dequeue()
        for now in nows:
            idle_at = [min(until, now) for until in busy_until]
            wr.busy_until = idle_at
            assert wr.backlog_ops(now).hex() == (0.0).hex()

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_engine_matches_rescanning_backlog(self, policy, monkeypatch):
        # Decision differential: at every dispatch the run's one context holds
        # this stage's app, payload node and time, its load rows are the run's
        # live runtimes, each row's backlog in the policy's pass is bit-equal
        # to ``backlog_ops`` and to a rescan, and the chosen worker is the one
        # a first-principles choice over rescanned backlogs makes.
        # rho ~1.3 on three single-core workers: queues grow through the run;
        # candidates listed in descending order pin the lowest-id tie rule
        chain = chain_scenario_raw(n_workers=3, chain_len=3, policy=policy, rate=550.0, horizon=1.5,
                                   state_size=2000.0)
        for fn in chain["workflows"][0]["functions"][::2]:
            fn["state_size"] = 0.0  # stateless stages: state_local falls back to least_loaded
        chain["workload"]["compute_randomization"] = True
        chain["workload"]["payload"] = {"kind": "exponential", "mean": 1000.0}
        chain["candidates"] = [3, 2, 1]
        mesh = load_json(CONFIGS / "edge_mesh.json")
        mesh["policy"] = policy

        kind = PolicyKind(policy)
        ready = []  # (run, now, data) of each STAGE_READY as it is handled
        on_stage_ready = engine._Run._on_stage_ready
        choose_worker = engine.choose_worker

        def record_ready(run, now, data):
            ready.append((run, now, data))
            on_stage_ready(run, now, data)

        ties = []  # decisions whose least score several candidates share

        def least(scores):
            best = min(scores)
            ties.append(sum(score == best[0] for score, _ in scores) > 1)
            return best[1]

        def least_rescanned(ctx):
            return least([(rescan_backlog(ctx.loads[w], ctx.now), w) for w in ctx.candidate_workers])

        def spy(policy_kind, ctx, rr, f, input_bytes, mode):
            run, now, (inv_id, fid, at_node) = ready[-1]
            inv = run.invocations[inv_id]
            preds = run.apps[inv.app].dag.preds[fid]
            assert f.id == fid and ctx.app_id == inv.app and ctx.now == now
            origin = inv.stages[preds[0]].worker if preds else run.apps[inv.app].client
            assert ctx.payload_location == at_node == origin
            assert ctx.loads is run.workers
            assert [row[:2] for row in ctx.load_rows] == [(w, run.workers[w]) for w in ctx.candidate_workers]
            for row in ctx.load_rows:
                backlog = _least_backlog(now, (row,))[0].hex()
                assert backlog == row[1].backlog_ops(now).hex() == rescan_backlog(row[1], now).hex()
            w = choose_worker(policy_kind, ctx, rr, f, input_bytes, mode)
            if kind is PolicyKind.LEAST_LOADED:
                assert w == least_rescanned(ctx)
            elif kind is PolicyKind.STATE_LOCAL:
                host = ctx.state_host
                assert w == (host if host in ctx.candidate_workers else least_rescanned(ctx))
            elif kind is PolicyKind.MIN_LATENCY_ESTIMATE:
                scores = [(reference_estimate(ctx, f, c, input_bytes, mode), c) for c in ctx.candidate_workers]
                assert w == least(scores) == reference_choice(ctx, f, input_bytes, mode)
                for est, c in scores:
                    assert estimate_completion(ctx, f, c, input_bytes, mode).hex() == est.hex()
            return w

        monkeypatch.setattr(engine._Run, "_on_stage_ready", record_ready)
        monkeypatch.setattr(engine, "choose_worker", spy)
        for raw in (chain, mesh):
            for mode in ALL_MODES:
                raw["state_mode"] = mode
                ready.clear()
                ties.clear()
                log = run_one(raw)
                assert len(ready) == sum(len(inv.stages) for inv in log.invocations) > 0
                if raw is chain:
                    assert max(s.queue_wait_s for inv in log.invocations for s in inv.stages.values()) > 0.1
                    assert any(ties) or kind in (PolicyKind.RANDOM, PolicyKind.ROUND_ROBIN)


class TestMinLatencyAgainstReference:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_logs_equal_reference_chooser(self, mode, monkeypatch):
        # edge_mesh: 12 workers behind 3 brokers over two edge rates, so
        # candidates share hop sequences; migrations move the state host
        raw = load_json(CONFIGS / "edge_mesh.json")
        raw["state_mode"] = mode
        sc = build(raw)

        def reference_chooser(policy, ctx, rr, f, input_bytes, state_mode):
            assert policy is PolicyKind.MIN_LATENCY_ESTIMATE
            return reference_choice(ctx, f, input_bytes, state_mode)

        with monkeypatch.context() as m:
            m.setattr(engine, "choose_worker", reference_chooser)
            expected = engine.run(sc)
        assert metrics.summary_record(expected)["total_migrations"] > 0 or mode != "remote_migrate"
        assert engine.run(sc) == expected  # the route table's memo fills
        assert engine.run(sc) == expected  # and is reused by the next run


class TestStateRegistryReads:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("mode", ["remote_fixed", "remote_migrate"])
    def test_one_read_per_stateful_dispatch(self, policy, mode, monkeypatch):
        # The engine reads a stateful function's host once per dispatch and
        # hands it to the policy and the state access; nothing else reads it.
        raw = load_json(CONFIGS / "two_worker_chain.json")
        raw["policy"], raw["state_mode"] = policy, mode
        sc = build(raw)
        reads = []
        get = StateRegistry.get

        def counting_get(reg, app_id, function_id):
            reads.append((app_id, function_id))
            return get(reg, app_id, function_id)

        monkeypatch.setattr(StateRegistry, "get", counting_get)
        log = engine.run(sc)
        stateful = [
            (inv.app, fid)
            for inv in log.invocations
            for fid in inv.stages
            if sc.apps[inv.app].functions[fid].state_size > 0
        ]
        assert len(stateful) > 1000
        assert sorted(reads) == sorted(stateful)


class TestEngineErrors:
    def test_invalid_delay_aborts(self):
        raw = chain_scenario_raw()
        sc = build(raw, explicit={"app": [0.0]})
        # corrupt a route to force a non-finite transfer delay
        route = sc.routes.route(0, 1)
        object.__setattr__(route, "hops", ((float("inf"), 1.0),))
        with pytest.raises(engine.EngineError):
            engine.run(sc)
