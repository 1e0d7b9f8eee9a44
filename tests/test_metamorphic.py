"""Metamorphic relations: two ``engine.run`` logs of related scenarios, compared field by field.

- **Time scale by k = 2**j.** Propagation is multiplied by k; link rate,
  core speed and arrival rate are divided by k; the horizon is multiplied by
  k. Every time of the second run is exactly k times the first run's, and
  workers, bytes, migrations and utilization are equal.
- **Byte scale by k = 2**j.** Link rate, entry payload, payload ``lo``,
  ``hi`` and ``mean`` and state size are multiplied by k, and
  ``ops_per_byte`` is divided by k. Every time is equal, and every byte
  count is exactly k times the first run's.
- **Candidate order reversed.** ``least_loaded``, ``state_local`` and
  ``min_latency_estimate`` break ties by the lowest worker id, not by list
  position, so they give equal runs.

Why equality is exact: multiplying a float by a power of two changes only
its exponent, so ``k * x`` is exact and commutes with IEEE rounding.
``round(k*x + k*y) == k * round(x + y)``, ``round((k*x) * y) == k *
round(x * y)``, ``round(x / (y/k)) == k * round(x / y)``, and so on for
every sum, difference, product and quotient, unless a value overflows or
becomes subnormal, where the spacing of floats stops following the
exponent. The uniform draws do not change, so neither does any ``log(u)``.
A run's times are built from propagations, transfer sizes over link rates,
operations over core speeds and exponential gaps over arrival rates with
exactly these operations, so under the time relation each is k times the
first run's and every comparison the engine and the policies make (event
order, least backlog, least estimate) reads the same; under the byte
relation each size is k times and every time equal.

The input bounds that rule out overflow and subnormals: every nonzero
input of the bundled configs and of ``tests/helpers``' generators lies
between 1e-4 and 1e15 (propagations, link rates, core speeds, operation
counts, sizes, arrival rates and horizons). The fine clock below and
k = 2**j with |j| <= 3 move them by at most 2**23 either way, to between
1e-11 and 1e22, and the shortened runs end within 1e9 simulated seconds. A
run's values are a few dozen sums, products and quotients of these, and a
nonzero difference of two of them is at least an ulp of the smaller, so
every nonzero value stays far inside the normal range (about 2.2e-308 to
1.8e308).

The bundled configs run at their own seeds and the random scenarios are
drawn with a derandomized Hypothesis, so every case is fixed.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import engine
from chainsim.config import load_json, scenario_from_raw

from helpers import random_chain_scenario_raw, random_dag_scenario_raw

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ALL_POLICIES = ["random", "round_robin", "least_loaded", "state_local", "min_latency_estimate"]
ALL_MODES = ["embedded", "remote_fixed", "remote_migrate"]
ORDER_POLICIES = ["least_loaded", "state_local", "min_latency_estimate"]
JS = (-3, -2, -1, 1, 2, 3)  # k = 2**j; j = 0 would compare a run with itself

# Each valid bundled config at its own seed, its horizon shortened to about
# 40 expected arrivals at its total arrival rate.
HORIZONS = {
    "baseline_single_worker": 8.0,
    "diamond_dag": 4.0,
    "edge_mesh": 0.4,
    "mm1": 80.0,
    "multi_app": 2.0,
    "two_worker_chain": 2.0,
}
CASES = list(itertools.product(HORIZONS, ALL_POLICIES, ALL_MODES))
CASE_IDS = ["-".join(c) for c in CASES]
# The time relation starts from each scenario in seconds and in a clock 2**20
# times finer (about microseconds). In seconds a stage's ops dwarf its service
# time; on the fine clock the two are of one magnitude, so a sum that mixes
# ops with seconds changes decisions when the clock is scaled.
CLOCKS = {"s": 1.0, "us": 2.0**20}
TIME_CASES = [(*c, clock) for c in CASES for clock in CLOCKS]

TIME, BYTES, SAME = "time", "bytes", "same"
# How each field of MetricsLog, InvocationRecord and StageRecord scales; a
# field missing here fails the comparison until it is classified.
KINDS = {
    "invocations": SAME,
    "link_bytes": BYTES,
    "worker_busy": TIME,
    "utilization": SAME,
    "injected": SAME,
    "completed": SAME,
    "in_flight_at_end": SAME,
    "end_time": TIME,
    "horizon": TIME,
    "inv_id": SAME,
    "app": SAME,
    "arrival": TIME,
    "payload": BYTES,
    "compute_factor": SAME,
    "stages": SAME,
    "outputs": BYTES,
    "completion": TIME,
    "worker": SAME,
    "dispatch_time": TIME,
    "state_delay_s": TIME,
    "state_bytes": BYTES,
    "migration": SAME,
    "transfer_s": TIME,
    "queue_wait_s": TIME,
    "compute_s": TIME,
}


def time_scaled(raw: dict, k: float) -> dict:
    out = copy.deepcopy(raw)
    for link in out["topology"]["links"]:
        link["propagation"] *= k
        link["rate"] /= k
    for node in out["topology"]["nodes"]:
        if "core_speed" in node:
            node["core_speed"] /= k
    workload = out["workload"]
    workload["rates"] = {app: rate / k for app, rate in workload["rates"].items()}
    workload["horizon"] *= k
    return out


def byte_scaled(raw: dict, k: float) -> dict:
    out = copy.deepcopy(raw)
    for link in out["topology"]["links"]:
        link["rate"] *= k
    for wd in out["workflows"]:
        wd["entry_payload"] *= k
        for fd in wd["functions"]:
            if "state_size" in fd:
                fd["state_size"] *= k
            if "ops_per_byte" in fd:
                fd["ops_per_byte"] /= k
    payload = out["workload"].get("payload") or {}
    for key in ("lo", "hi", "mean"):
        if key in payload:
            payload[key] *= k
    return out


def order_reversed(raw: dict) -> dict:
    out = copy.deepcopy(raw)
    workers = [n["id"] for n in raw["topology"]["nodes"] if n["role"] == "worker"]
    out["candidates"] = list(reversed(raw.get("candidates") or sorted(workers)))
    return out


def run(raw: dict) -> engine.MetricsLog:
    sc, errs = scenario_from_raw(raw)
    assert errs == [], errs
    return engine.run(sc)


def mismatches(first, second, kt: float, kb: float, path: str = "log", kind: str = SAME):
    """Each place where ``second`` is not ``first`` with its times times ``kt`` and its bytes times ``kb``."""
    if dataclasses.is_dataclass(first):
        for f in dataclasses.fields(first):
            yield from mismatches(
                getattr(first, f.name), getattr(second, f.name), kt, kb, f"{path}.{f.name}", KINDS[f.name]
            )
    elif isinstance(first, (dict, list)):
        keys = list(first) if isinstance(first, dict) else range(len(first))
        if (list(second) if isinstance(second, dict) else range(len(second))) != keys:
            yield f"{path}: keys differ"
            return
        for key in keys:
            yield from mismatches(first[key], second[key], kt, kb, f"{path}[{key!r}]", kind)
    else:
        want = first if kind == SAME or first is None else first * (kt if kind == TIME else kb)
        if want != second or type(want) is not type(second):
            yield f"{path}: want {want!r}, got {second!r}"


def assert_scaled(first, second, *, kt: float = 1.0, kb: float = 1.0) -> None:
    assert first.invocations, "a run with no invocation shows nothing"
    bad = list(itertools.islice(mismatches(first, second, kt, kb), 5))
    assert not bad, bad


def config_raw(name: str, policy: str, mode: str) -> dict:
    raw = load_json(CONFIGS / f"{name}.json")
    raw["workload"]["horizon"] = HORIZONS[name]
    raw.update(policy=policy, state_mode=mode)
    return raw


@functools.lru_cache(maxsize=None)
def config_log(name: str, policy: str, mode: str) -> engine.MetricsLog:
    return run(config_raw(name, policy, mode))


@pytest.mark.parametrize("i", range(len(TIME_CASES)), ids=["-".join(c) for c in TIME_CASES])
def test_time_scale_on_bundled_configs(i):
    name, policy, mode, clock = TIME_CASES[i]
    k = 2.0 ** JS[i % len(JS)]
    raw = time_scaled(config_raw(name, policy, mode), CLOCKS[clock])
    first = config_log(name, policy, mode) if clock == "s" else run(raw)
    assert_scaled(first, run(time_scaled(raw, k)), kt=k)


@pytest.mark.parametrize("i", range(len(CASES)), ids=CASE_IDS)
def test_byte_scale_on_bundled_configs(i):
    name, policy, mode = CASES[i]
    k = 2.0 ** JS[(i + 3) % len(JS)]
    assert_scaled(config_log(name, policy, mode), run(byte_scaled(config_raw(name, policy, mode), k)), kb=k)


@pytest.mark.parametrize("i", [i for i, c in enumerate(CASES) if c[1] in ORDER_POLICIES],
                         ids=[cid for cid, c in zip(CASE_IDS, CASES) if c[1] in ORDER_POLICIES])
def test_candidate_order_on_bundled_configs(i):
    name, policy, mode = CASES[i]
    assert_scaled(config_log(name, policy, mode), run(order_reversed(config_raw(name, policy, mode))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([random_chain_scenario_raw, random_dag_scenario_raw]),
    st.sampled_from(ALL_POLICIES),
    st.sampled_from(ALL_MODES),
    st.sampled_from(list(CLOCKS.values())),
    st.sampled_from(JS),
    st.sampled_from(JS),
)
def test_relations_on_random_scenarios(seed, make, policy, mode, clock, jt, jb):
    raw = time_scaled(make(random.Random(seed), seed=seed, policy=policy, state_mode=mode), clock)
    first = run(raw)
    assert_scaled(first, run(time_scaled(raw, 2.0**jt)), kt=2.0**jt)
    assert_scaled(first, run(byte_scaled(raw, 2.0**jb)), kb=2.0**jb)
    if policy in ORDER_POLICIES:
        assert_scaled(first, run(order_reversed(raw)))
