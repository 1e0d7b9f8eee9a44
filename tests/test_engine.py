import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim import dispatch, engine, metrics
from chainsim.config import load_json, scenario_from_raw
from chainsim.dispatch import PolicyKind, _least_backlog, estimate_completion
from chainsim.state import StateMode, remote_state_access, stage_transfer_bytes
from chainsim.topology import NodeSpec
from chainsim.workflow import critical_path_time

from helpers import (
    batch_means_interval,
    chain_scenario_raw,
    exact_queued_ops,
    overflowing_event_raw,
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
        None,
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
        csv_a, csv_b = (metrics.invocations_csv(metrics.invocation_rows(log)) for log in (a, b))
        assert csv_a == csv_b
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


def replay_stages(sc, log):
    """Each stage's link charges and state traffic, recomputed from the logged workers alone.

    Yields ``(rec, access, state_bytes, charges)`` per stage, in dispatch
    order. ``charges`` lists one ``(link pair, bytes)`` per hop, in the
    engine's order: the state legs, then the input hops in sorted-pred order,
    then the sink's delivery. Each pair is read off the route's node path.
    """
    state_mode = sc.state_mode
    rt = sc.routes
    stages = sorted(
        (rec.dispatch_time, inv.inv_id, fid, inv, rec) for inv in log.invocations for fid, rec in inv.stages.items()
    )
    # the state hosts are replayed in dispatch order, which needs distinct times per state item
    dispatches = [(inv.app, fid, t) for t, _, fid, inv, _ in stages]
    assert len(set(dispatches)) == len(dispatches) > 100

    def crossing(src, dst, nbytes):
        path = rt.route(src, dst).path
        return [((min(u, v), max(u, v)), nbytes) for u, v in zip(path, path[1:])]

    hosts = {}
    for _t, _id, fid, inv, rec in stages:
        app = sc.apps[inv.app]
        f = app.functions[fid]
        stateful = state_mode is not StateMode.EMBEDDED and f.state_size > 0
        host = hosts.get((inv.app, fid)) if stateful else None
        access = remote_state_access(state_mode, host, f, rec.worker, rt)
        if stateful and (host is None or access.migration):
            hosts[inv.app, fid] = rec.worker
        state_bytes = access.bytes_moved
        charges = []
        crossings = {
            StateMode.REMOTE_FIXED: ((host, rec.worker), (rec.worker, host)),
            StateMode.REMOTE_MIGRATE: ((host, rec.worker),),
        }
        legs = crossings[state_mode] if stateful and host not in (None, rec.worker) else ()
        for src, dst in legs:
            charges += crossing(src, dst, f.state_size)
        preds = app.dag.preds[fid]
        hops = [(inv.stages[p].worker, rec.worker, inv.outputs[p], app.functions[p], f) for p in preds]
        if not preds:
            hops.append((app.client, rec.worker, inv.payload, None, f))
        if fid == app.dag.sink:
            hops.append((rec.worker, app.client, inv.outputs[fid], f, None))
        for src, dst, data, producer, consumer in hops:
            charges += crossing(src, dst, stage_transfer_bytes(data, producer, consumer, state_mode))
            if src != dst:
                state_bytes += stage_transfer_bytes(0.0, producer, consumer, state_mode)
        yield rec, access, state_bytes, charges


class TestPerStageBytes:
    """Each stage's ``state_bytes`` and ``link_bytes``, recomputed from the logged workers alone."""

    @staticmethod
    def raw(name: str) -> dict:
        if name == "diamond":
            return load_json(CONFIGS / "diamond_dag.json")
        # unequal state sizes of unequal magnitude, so a hop summed as
        # data + consumer + producer rounds differently from the engine's order
        raw = chain_scenario_raw(n_workers=3, chain_len=4, rate=20.0, horizon=6.0, seed=17)
        for fn, size in zip(raw["workflows"][0]["functions"], (1234.5678, 0.1, 98765.4321, 3.3)):
            fn["state_size"] = size
        raw["workload"]["payload"] = {"kind": "exponential", "mean": 1000.0}
        return raw

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("name", ["diamond", "chain"])
    def test_bytes_equal_a_replay_of_the_workers(self, name, mode):
        raw = self.raw(name)
        raw["state_mode"] = mode
        sc = build(raw)
        for rec, access, state_bytes, charges in replay_stages(sc, engine.run(sc)):
            link_bytes = 0.0
            for _pair, nbytes in charges:
                link_bytes += nbytes
            assert rec.migration == access.migration
            assert (rec.state_bytes.hex(), rec.link_bytes.hex()) == (state_bytes.hex(), link_bytes.hex())


class TestPerLinkBytes:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_each_link_total_equals_a_replay_of_the_workers(self, mode):
        # Every byte count is a whole number far below 2**53, so each sum is
        # exact in any order and the engine's event order need not be replayed:
        # a constant payload, output ratios that are powers of two, and whole state sizes.
        raw = load_json(CONFIGS / "edge_mesh.json")
        raw["state_mode"] = mode
        raw["workload"]["payload"] = {"kind": "constant"}
        for fn, ratio in zip(raw["workflows"][0]["functions"], (1.0, 0.5, 0.25)):
            fn["output_ratio"] = ratio
        sc = build(raw)
        log = engine.run(sc)
        totals = dict.fromkeys(log.link_bytes, 0.0)
        for *_, charges in replay_stages(sc, log):
            for pair, nbytes in charges:
                assert nbytes.is_integer()
                totals[pair] += nbytes
        assert max(totals.values()) < 2**53
        assert sum(v > 0 for v in totals.values()) > len(totals) // 2
        assert log.link_bytes == totals

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CONFIGS.glob("*.json") if not p.name.startswith(("invalid_", "sweep_")))
    )
    def test_keys_are_the_topology_pairs_in_order(self, name):
        sc = build(load_json(CONFIGS / name))
        assert list(engine.run(sc).link_bytes) == [link.pair for link in sc.topology.links]


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
# subnormals, ops near the float limit and everything between, so a queue mixes exponents
EXTREME_OPS = st.one_of(
    st.sampled_from([5e-324, 2.2e-308, 8.98e307, 0.0, 0.1, 1.0, 2e5]),
    st.floats(min_value=0.0, max_value=8.98e307, allow_nan=False, allow_infinity=False),
    QUEUED_OPS,
)


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

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(EXTREME_OPS, st.none(), st.just("drain")),
            max_size=40,
        )
    )
    @example(steps=[5e-324, 1000.0, None, 2.2e-308, "drain", 0.1, 3.0, None, 8.98e307, 8.98e307, 5e-324])
    @example(steps=[8.98e307, 5e-324, 8.98e307, None, 8.98e307, 8.98e307])  # the last overflows
    def test_queued_ops_is_the_correctly_rounded_exact_sum(self, steps):
        # None dequeues one op, "drain" empties the queue; the reference sums
        # fractions, so it shares nothing with the runtime's integer scale, and
        # reads (0.0).hex() for an empty queue
        wr = engine.WorkerRuntime(NodeSpec(1, "worker", cores=1, core_speed=1e6))
        for i, step in enumerate(steps):
            if step is None or step == "drain":
                while wr.queue:
                    wr.dequeue()
                    if step is None:
                        break
            else:
                try:
                    exact_queued_ops(wr, step)
                except OverflowError:
                    with pytest.raises(engine.EngineError, match="exceed the float range"):
                        wr.enqueue((i, "f", 1, 0.0, step), 0.0)
                    return
                wr.enqueue((i, "f", 1, 0.0, step), 0.0)
            assert wr.queued_ops.hex() == exact_queued_ops(wr).hex()

    @pytest.mark.parametrize("ops", [[1e308, 5e-324], [5e-324, 1e308]])
    def test_a_subnormal_beside_a_huge_op_rounds_away_without_overflow(self, ops):
        wr = engine.WorkerRuntime(NodeSpec(1, "worker", cores=1, core_speed=1e6))
        for i, x in enumerate(ops):
            wr.enqueue((i, "f", 1, 0.0, x), 0.0)
        assert wr.queued_ops == 1e308
        wr.dequeue()
        assert wr.queued_ops == ops[1]

    def test_queued_ops_beyond_the_float_range_raise(self):
        wr = engine.WorkerRuntime(NodeSpec(1, "worker", cores=1, core_speed=1e6))
        wr.enqueue((0, "f", 1, 0.0, 1e308), 0.0)
        with pytest.raises(engine.EngineError) as err:
            wr.enqueue((1, "f", 1, 0.0, 1e308), 0.0)
        assert str(err.value) == "queued ops on worker 1 exceed the float range"

    def test_an_emptied_queue_drops_the_subnormal_scale(self):
        # while a subnormal op is queued the total counts in its tiny units;
        # once the queue empties, ordinary ops go back to small integers
        wr = engine.WorkerRuntime(NodeSpec(1, "worker", cores=1, core_speed=1e6))
        wr.enqueue((0, "f", 1, 0.0, 5e-324), 0.0)
        wr.enqueue((1, "f", 1, 0.0, 1000.0), 0.0)
        assert wr.queued_units.bit_length() > 1000
        wr.dequeue()
        wr.dequeue()
        rng = random.Random(7)
        for i in range(200):
            wr.enqueue((i, "f", 1, 0.0, rng.expovariate(1 / 2e5)), 0.0)
            assert wr.queued_units.bit_length() < 128
            if i % 3 == 2:
                wr.dequeue()
                assert wr.queued_units.bit_length() < 128
        assert wr.queued_ops.hex() == exact_queued_ops(wr).hex()

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

        def least_rescanned(ctx, now):
            return least([(rescan_backlog(ctx.loads[w], now), w) for w in ctx.candidate_workers])

        def spy(ctx, f, key, input_bytes, now, payload_node, host):
            run, ready_at, (inv, plan, at_node) = ready[-1]
            fid = plan.f.id
            assert inv is run.invocations[inv.inv_id]
            preds = run.apps[inv.app].dag.preds[fid]
            assert ctx.policy is kind and ctx.mode is run.sc.state_mode
            assert f.id == fid and key == (inv.app, fid) and now == ready_at
            origin = inv.stages[preds[0]].worker if preds else run.apps[inv.app].client
            assert payload_node == at_node == origin
            assert host == (run.hosts.get(key) if plan.stateful else None)
            assert ctx.loads is run.workers
            assert [row[:2] for row in ctx.load_rows] == [(w, run.workers[w]) for w in ctx.candidate_workers]
            for row in ctx.load_rows:
                backlog = _least_backlog(now, (row,))[0].hex()
                assert backlog == row[1].backlog_ops(now).hex() == rescan_backlog(row[1], now).hex()
            args = (input_bytes, now, payload_node, host)
            w = choose_worker(ctx, f, key, *args)
            if kind is PolicyKind.LEAST_LOADED:
                assert w == least_rescanned(ctx, now)
            elif kind is PolicyKind.STATE_LOCAL:
                assert w == (host if host in ctx.candidate_workers else least_rescanned(ctx, now))
            elif kind is PolicyKind.MIN_LATENCY_ESTIMATE:
                scores = [(reference_estimate(ctx, f, c, *args), c) for c in ctx.candidate_workers]
                assert w == least(scores) == reference_choice(ctx, f, *args)
                for est, c in scores:
                    assert estimate_completion(ctx, f, c, *args).hex() == est.hex()
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

        def reference_chooser(ctx, f, key, *args):
            assert ctx.policy is PolicyKind.MIN_LATENCY_ESTIMATE
            return reference_choice(ctx, f, *args)

        with monkeypatch.context() as m:
            m.setattr(engine, "choose_worker", reference_chooser)
            expected = engine.run(sc)
        migrations = metrics.summary_record(expected, metrics.invocation_rows(expected))["total_migrations"]
        assert migrations > 0 or mode != "remote_migrate"
        assert engine.run(sc) == expected  # the route table's priced accesses fill
        assert engine.run(sc) == expected  # and are reused by the next run

    @pytest.mark.parametrize("mode", ["remote_fixed", "remote_migrate"])
    def test_routes_grouped_once_per_node(self, mode, monkeypatch):
        # A worker is both a payload node and a state host, and under
        # remote_migrate edge_mesh's three state sizes meet at one host, so
        # it is seen under several (host, size) keys. The run's context
        # groups the candidates' routes from each such node once.
        raw = load_json(CONFIGS / "edge_mesh.json")
        raw["policy"], raw["state_mode"] = "min_latency_estimate", mode
        sc = build(raw)
        grouped = []
        fill_hops = dispatch._fill_hops

        def counting_fill_hops(ctx, node):
            grouped.append(node)
            return fill_hops(ctx, node)

        payload_nodes, host_sizes = set(), set()
        choose = engine.choose_worker

        def spy(ctx, f, key, input_bytes, now, payload_node, host):
            payload_nodes.add(payload_node)
            if host is not None:
                host_sizes.add((host, f.state_size))
            return choose(ctx, f, key, input_bytes, now, payload_node, host)

        monkeypatch.setattr(dispatch, "_fill_hops", counting_fill_hops)
        monkeypatch.setattr(engine, "choose_worker", spy)
        engine.run(sc)
        hosts = {host for host, _ in host_sizes}
        assert payload_nodes & hosts
        assert len(host_sizes) > len(hosts) or mode == "remote_fixed"
        assert sorted(grouped) == sorted(payload_nodes | hosts)


class CountingHosts(dict):
    """A state-host dict that records every key read through ``get``, ``[]`` or ``in``."""

    def __init__(self, reads: list):
        super().__init__()
        self.reads = reads

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads.append(key)
        return super().__contains__(key)


def keep_runs(monkeypatch, hosts=dict) -> list:
    """Record each ``_Run`` as it is built, its ``hosts`` replaced by an empty ``hosts()``."""
    runs = []
    init = engine._Run.__init__

    def recording_init(run, *args):
        init(run, *args)
        run.hosts = hosts()
        runs.append(run)

    monkeypatch.setattr(engine._Run, "__init__", recording_init)
    return runs


def stateful_stages(sc, log) -> list:
    """``(dispatch time, inv_id, (app, fid), worker)`` of each stage with state, in dispatch order."""
    return sorted(
        (rec.dispatch_time, inv.inv_id, (inv.app, fid), rec.worker)
        for inv in log.invocations
        for fid, rec in inv.stages.items()
        if sc.apps[inv.app].functions[fid].state_size > 0
    )


class TestStateRegistryReads:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("mode", ["remote_fixed", "remote_migrate"])
    def test_one_read_per_stateful_dispatch(self, policy, mode, monkeypatch):
        # The engine reads a stateful function's host from the run's host
        # dict once per dispatch and hands it to the policy and the state
        # access; nothing else reads it.
        raw = load_json(CONFIGS / "two_worker_chain.json")
        raw["policy"], raw["state_mode"] = policy, mode
        sc = build(raw)
        reads = []
        keep_runs(monkeypatch, lambda: CountingHosts(reads))
        log = engine.run(sc)
        stateful = [key for _t, _id, key, _w in stateful_stages(sc, log)]
        assert len(stateful) > 1000
        assert sorted(reads) == sorted(stateful)


class TestStateHosts:
    @pytest.mark.parametrize("mode", ["remote_fixed", "remote_migrate"])
    @pytest.mark.parametrize(
        "config, policy", [("two_worker_chain.json", "least_loaded"), ("edge_mesh.json", "min_latency_estimate")]
    )
    def test_final_hosts_replay_the_log(self, config, policy, mode, monkeypatch):
        # A state item stays at its first dispatch's worker under
        # remote_fixed and follows each dispatch under remote_migrate.
        raw = load_json(CONFIGS / config)
        raw["policy"], raw["state_mode"] = policy, mode
        sc = build(raw)
        runs = keep_runs(monkeypatch)
        log = engine.run(sc)
        stages = stateful_stages(sc, log)
        # replayed in dispatch order, which needs distinct times per state item
        assert len({(t, key) for t, _id, key, _w in stages}) == len(stages) > 100
        first, last, seen = {}, {}, set()
        for _t, _id, key, w in stages:
            first.setdefault(key, w)
            last[key] = w
            seen.add((key, w))
        assert len(seen) > len(first)  # some item runs on more than one worker
        (run,) = runs
        assert run.hosts == (first if mode == "remote_fixed" else last)


class TestLazyArrivals:
    """Only the next arrival waits on the heap; events pop as from a heap of every arrival."""

    @staticmethod
    def record_pops(monkeypatch) -> list:
        """Stand in for the ``heapq`` the engine imported, as the benchmark's tracer does.

        Each entry is the popped event and the number of arrivals on the heap before the pop.
        """
        pops = []
        real = engine.heapq

        class RecordingHeapq:
            heappush = staticmethod(real.heappush)

            @staticmethod
            def heappop(heap):
                waiting = sum(item[2] == engine.ARRIVAL for item in heap)
                item = real.heappop(heap)
                pops.append((item, waiting))
                return item

        monkeypatch.setattr(engine, "heapq", RecordingHeapq)
        return pops

    @staticmethod
    def eager_push(run, inv_id):
        """Every arrival on the heap at the start, each with ``seq = inv_id``."""
        if inv_id == 0:
            for i, inv in enumerate(run.invocations):
                engine.heapq.heappush(run.heap, (inv.arrival, i, engine.ARRIVAL, inv))

    @pytest.mark.parametrize("explicit", [None, {"alerts": [0.0, 0.5, 0.5, 1.0, 2.0], "fanout": [0.0, 0.5, 1.0, 1.0]}])
    def test_one_arrival_waits_and_order_is_unchanged(self, explicit, monkeypatch):
        sc = build(load_json(CONFIGS / "multi_app.json"), explicit)
        pops = self.record_pops(monkeypatch)
        log = engine.run(sc)
        n = log.injected
        assert n > 0 and len({inv.app for inv in log.invocations}) == 2
        assert max(waiting for _item, waiting in pops) <= 1
        keys = [item[:2] for item, _waiting in pops]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        arrivals = [item for item, _waiting in pops if item[2] == engine.ARRIVAL]
        assert arrivals == [(inv.arrival, i, engine.ARRIVAL, inv) for i, inv in enumerate(log.invocations)]
        if explicit is not None:
            times = [inv.arrival for inv in log.invocations]
            assert len(set(times)) < n  # equal times, broken by app order
            assert [inv.app for inv in log.invocations][:2] == ["alerts", "fanout"]

        lazy = [item for item, _waiting in pops]
        pops.clear()
        monkeypatch.setattr(engine._Run, "_push_arrival", self.eager_push)
        assert engine.run(sc) == log
        assert [item for item, _waiting in pops] == lazy

    @pytest.mark.parametrize("late", [False, True])
    def test_nan_arrival_raises_before_any_event(self, late, monkeypatch):
        explicit = {"alerts": [0.0, 1.0], "fanout": [0.5, 2.0]}
        explicit["fanout" if late else "alerts"][-1 if late else 0] = math.nan
        sc = build(load_json(CONFIGS / "multi_app.json"), explicit)
        pops = self.record_pops(monkeypatch)
        with pytest.raises(engine.EngineError, match="non-finite event time nan"):
            engine.run(sc)
        assert pops == []


class TestEngineErrors:
    @pytest.mark.parametrize("kind", [engine.EXEC_START, engine.EXEC_DONE, engine.DELIVERED])
    def test_overflowed_event_time_raises(self, kind):
        with pytest.raises(engine.EngineError) as err:
            engine.run(build(overflowing_event_raw(kind)))
        assert str(err.value) == f"non-finite event time inf for kind {kind}"

    def test_invalid_delay_aborts(self):
        raw = chain_scenario_raw()
        sc = build(raw, explicit={"app": [0.0]})
        # corrupt a route to force a non-finite transfer delay
        route = sc.routes.route(0, 1)
        object.__setattr__(route, "hops", ((float("inf"), 1.0),))
        with pytest.raises(engine.EngineError):
            engine.run(sc)
