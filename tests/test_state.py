import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim.dispatch import _fill_hops, _fill_state
from chainsim.state import (
    StateAccess,
    StateMode,
    remote_state_access,
    stage_transfer_bytes,
)
from chainsim.topology import Route, build_routes, transfer_delay
from chainsim.workflow import FunctionSpec

from helpers import candidate_context, make_topology


@pytest.fixture
def net():
    t = make_topology(
        [(0, "client"), (1, "worker", 1, 1e6), (2, "worker", 1, 1e6)],
        [(0, 1, 0.001, 1e6), (1, 2, 0.001, 1e6)],
    )
    return build_routes(t)


def stateful(size=1000.0):
    return FunctionSpec("f", fixed_ops=100.0, state_size=size)


class TestEmbeddedOverhead:
    def test_stateless_is_free(self):
        f = stateful(0.0)
        assert stage_transfer_bytes(0.0, f, None, StateMode.EMBEDDED) == 0.0
        assert stage_transfer_bytes(0.0, None, f, StateMode.EMBEDDED) == 0.0

    def test_embedded_carries_state_size(self):
        f = stateful(4096.0)
        assert stage_transfer_bytes(0.0, f, None, StateMode.EMBEDDED) == 4096.0
        assert stage_transfer_bytes(0.0, None, f, StateMode.EMBEDDED) == 4096.0

    def test_remote_modes_add_nothing(self):
        f = stateful(4096.0)
        for mode in (StateMode.REMOTE_FIXED, StateMode.REMOTE_MIGRATE):
            assert stage_transfer_bytes(0.0, f, None, mode) == 0.0
            assert stage_transfer_bytes(0.0, None, f, mode) == 0.0

    def test_stage_transfer_bytes_adds_both_sides(self):
        p = FunctionSpec("p", fixed_ops=1.0, state_size=100.0)
        q = FunctionSpec("q", fixed_ops=1.0, state_size=30.0)
        for producer, consumer, mode, wire, state in (
            (p, q, StateMode.EMBEDDED, 1130.0, 130.0),
            (None, q, StateMode.EMBEDDED, 1030.0, 30.0),
            (p, None, StateMode.EMBEDDED, 1100.0, 100.0),
            (p, q, StateMode.REMOTE_FIXED, 1000.0, 0.0),
        ):
            assert stage_transfer_bytes(1000.0, producer, consumer, mode) == wire
            assert stage_transfer_bytes(0.0, producer, consumer, mode) == state


# Sizes at the edges of the float line: signed zeros, subnormals, and
# magnitudes far enough apart that the add order decides the rounding.
_SIZES = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-308, 1e-300, 0.1, 1.0, 3.3, 1e16, 1e300]) | st.floats(
    min_value=0.0, max_value=1e300, allow_subnormal=True
)


class TestHopIdentity:
    """The engine sizes a hop as ``data + producer + consumer`` from its two
    embedded parts, and its state part as ``producer + consumer``: both must
    be the rule's own sums, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=_SIZES,
        p_size=_SIZES,
        c_size=_SIZES,
        ends=st.sampled_from(["both", "producer", "consumer"]),
        mode=st.sampled_from(list(StateMode)),
    )
    def test_wire_and_state_part_are_sums_of_the_parts(self, data, p_size, c_size, ends, mode):
        p = FunctionSpec("p", fixed_ops=1.0, state_size=p_size) if ends != "consumer" else None
        c = FunctionSpec("c", fixed_ops=1.0, state_size=c_size) if ends != "producer" else None
        producer = stage_transfer_bytes(0.0, p, None, mode)
        consumer = stage_transfer_bytes(0.0, None, c, mode)
        assert stage_transfer_bytes(data, p, c, mode).hex() == (data + producer + consumer).hex()
        assert stage_transfer_bytes(0.0, p, c, mode).hex() == (producer + consumer).hex()


class TestRemoteStateAccess:
    def test_colocated_is_free(self, net):
        access = remote_state_access(StateMode.REMOTE_FIXED, 1, stateful(), 1, net)
        assert access == StateAccess(0.0, 0.0)

    def test_fixed_pays_fetch_and_writeback(self, net):
        # one hop (1 ms, 1e6 B/s), 1000 B each way: 2 * (0.001 + 0.001)
        access = remote_state_access(StateMode.REMOTE_FIXED, 1, stateful(), 2, net)
        assert access.delay == pytest.approx(0.004, abs=1e-15)
        assert access.bytes_moved == 2000.0
        assert not access.migration

    def test_migrate_pays_single_transfer(self, net):
        access = remote_state_access(StateMode.REMOTE_MIGRATE, 1, stateful(), 2, net)
        assert access.delay == pytest.approx(0.002, abs=1e-15)
        assert access.bytes_moved == 1000.0
        assert access.migration

    def test_fixed_bytes_double_migrate_bytes(self, net):
        fixed = remote_state_access(StateMode.REMOTE_FIXED, 1, stateful(777.0), 2, net)
        migrate = remote_state_access(StateMode.REMOTE_MIGRATE, 1, stateful(777.0), 2, net)
        assert fixed.bytes_moved == 2 * migrate.bytes_moved

    def test_missing_entry_is_cold_start(self, net):
        # State not yet placed is placed at the executor by the first dispatch.
        access = remote_state_access(StateMode.REMOTE_MIGRATE, None, stateful(), 2, net)
        assert access == StateAccess(0.0, 0.0)

    def test_stateless_has_no_cost(self, net):
        access = remote_state_access(StateMode.REMOTE_FIXED, 2, stateful(0.0), 1, net)
        assert access == StateAccess(0.0, 0.0)

    def test_embedded_mode_has_no_cost(self, net):
        access = remote_state_access(StateMode.EMBEDDED, 1, stateful(), 2, net)
        assert access == StateAccess(0.0, 0.0)


class TestStateAccessLegs:
    @pytest.mark.parametrize("mode", list(StateMode))
    @pytest.mark.parametrize("case", ["away", "colocated", "unplaced", "stateless"])
    def test_legs_in_every_mode(self, net, mode, case):
        f = stateful(0.0 if case == "stateless" else 1000.0)
        host = None if case == "unplaced" else 1
        access = remote_state_access(mode, host, f, 1 if case == "colocated" else 2, net)
        crossings = {StateMode.REMOTE_FIXED: ((1, 2), (2, 1)), StateMode.REMOTE_MIGRATE: ((1, 2),)}
        legs = crossings.get(mode, ()) if case == "away" else ()
        assert access.links == tuple(key for src, dst in legs for key in net.route(src, dst).links)
        assert access.bytes_moved == len(legs) * f.state_size
        assert access.delay == sum(transfer_delay(net, src, dst, f.state_size) for src, dst in legs)
        assert access.migration == (mode is StateMode.REMOTE_MIGRATE and bool(legs))


def random_mesh(rng: random.Random):
    """Workers behind brokers over two link kinds, so many routes share hop sequences."""
    n_brokers, n_workers = rng.randint(1, 3), rng.randint(2, 8)
    brokers = list(range(1, 1 + n_brokers))
    workers = list(range(1 + n_brokers, 1 + n_brokers + n_workers))
    kinds = [(0.001, 1e6), (0.002, 1e7)]
    links = {(0, 1): kinds[0]}
    for b in brokers[1:]:
        links[(b - 1, b)] = rng.choice(kinds)
    for w in workers:
        links[(rng.choice(brokers), w)] = rng.choice(kinds)
    for _ in range(rng.randint(0, 2)):
        a, b = sorted(rng.sample(workers, 2))
        links.setdefault((a, b), rng.choice(kinds))
    topo = make_topology(
        [(0, "client")] + [(b, "broker") for b in brokers] + [(w, "worker", 1, 1e6) for w in workers],
        [(a, b, prop, rate) for (a, b), (prop, rate) in links.items()],
    )
    return topo, tuple(workers)


def reference_access(mode, host, f, exec_node, rt) -> StateAccess:
    """The access priced from scratch: one ``transfer_delay`` per leg, added in leg order."""
    size = f.state_size
    if host is None or host == exec_node or size == 0 or mode is StateMode.EMBEDDED:
        return StateAccess(0.0, 0.0)
    legs = ((host, exec_node), (exec_node, host)) if mode is StateMode.REMOTE_FIXED else ((host, exec_node),)
    delay = 0.0
    links = ()
    for src, dst in legs:
        delay += transfer_delay(rt, src, dst, size)
        links += rt.route(src, dst).links
    return StateAccess(delay, len(legs) * size, mode is StateMode.REMOTE_MIGRATE, links)


SIZES = (0.0, 1000.0, 20000.0)
MESH_SEEDS = range(12)


class TestMemoizedStateAccess:
    @pytest.mark.parametrize("seed", MESH_SEEDS)
    def test_memo_equals_reference_on_a_shared_table(self, seed):
        # One table serves every call, so a memo key that leaves out the
        # mode, host, executor or size returns an access priced for another.
        topo, workers = random_mesh(random.Random(seed))
        rt = build_routes(topo)
        for size in SIZES:
            f = stateful(size)
            for mode in StateMode:
                for host in (None,) + workers:
                    for w in workers:
                        got = remote_state_access(mode, host, f, w, rt)
                        want = reference_access(mode, host, f, w, rt)
                        assert got == want and got.delay.hex() == want.delay.hex()
                        assert remote_state_access(mode, host, f, w, rt) is got

    @pytest.mark.parametrize("seed", MESH_SEEDS)
    def test_state_delays_equal_per_target_delays(self, seed):
        rng = random.Random(seed)
        topo, workers = random_mesh(rng)
        rt = build_routes(topo)
        subset = tuple(rng.sample(workers, rng.randint(1, len(workers))))
        for size in SIZES:
            f = stateful(size)
            for mode in StateMode:
                for host in workers:
                    for targets in (workers, subset):
                        got = _fill_state(candidate_context(topo, rt, targets, mode), host, f)
                        want = [remote_state_access(mode, host, f, w, rt).delay for w in targets]
                        assert [d.hex() for d in got] == [d.hex() for d in want]
                        assert want == [reference_access(mode, host, f, w, rt).delay for w in targets]

    def test_one_route_delay_per_hop_class_and_leg(self, monkeypatch):
        calls = []
        delay = Route.delay

        def counting_delay(route, nbytes):
            calls.append(route.path)
            return delay(route, nbytes)

        monkeypatch.setattr(Route, "delay", counting_delay)
        shared = 0
        for seed in MESH_SEEDS:
            topo, workers = random_mesh(random.Random(seed))
            for mode in (StateMode.REMOTE_FIXED, StateMode.REMOTE_MIGRATE):
                for host in workers:
                    rt = build_routes(topo)
                    ctx = candidate_context(topo, rt, workers, mode)
                    classes, _ = _fill_hops(ctx, host)
                    legs = 2 if mode is StateMode.REMOTE_FIXED else 1
                    calls.clear()
                    _fill_state(ctx, host, stateful())
                    assert len(calls) == legs * sum(route.path[-1] != host for route in classes)
                    shared += len(classes) < len(workers)
        assert shared > 0  # some fills price fewer classes than targets
