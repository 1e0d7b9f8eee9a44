"""Per-stage destination selection: completion-time estimator and policies.

All policies are pure given their arguments, the context's round-robin
cursors and its rng stream; the engine serializes calls within a run.
Every tie breaks toward the lowest worker id so runs replay identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import state as state_mod
from .state import StateMode
from .topology import Route, RouteTable
from .workflow import FunctionSpec, stage_io

if TYPE_CHECKING:
    from .engine import WorkerRuntime


class PolicyKind(enum.Enum):
    RANDOM = "random"
    ROUND_ROBIN = "round_robin"
    LEAST_LOADED = "least_loaded"
    STATE_LOCAL = "state_local"
    MIN_LATENCY_ESTIMATE = "min_latency_estimate"


# ``choose_worker`` tests the policy against these module globals: on CPython
# 3.11 each ``PolicyKind.X`` read is a Python-level ``EnumType.__getattr__`` call.
_RANDOM, _ROUND_ROBIN, _LEAST_LOADED, _STATE_LOCAL, _MIN_LATENCY_ESTIMATE = PolicyKind


# (worker id, runtime, cores * core_speed, core_speed) of one candidate
LoadRow = tuple[int, "WorkerRuntime", float, float]


@dataclass
class DispatchContext:
    """The run's dispatch tables; a decision's time, payload node and state host are arguments.

    ``policy``, ``mode``, ``candidate_workers``, ``routes``, ``rng`` and
    ``loads`` are fixed once the context is built. ``loads`` maps worker ids
    to their live ``WorkerRuntime``s, each candidate must be one of its
    keys, and a runtime's ``node`` is its worker's spec. The policies that
    weigh load (``least_loaded``, ``state_local`` when the state host is
    not a candidate, and ``min_latency_estimate``) compute each candidate's
    backlog at the decision time inside their one pass over ``load_rows``:
    the runtime's ``queued_ops``, then ``(until - now) * core_speed`` for
    each busy core in core order, the sum ``WorkerRuntime.backlog_ops``
    returns. The rng stream is private. ``cursors`` holds round robin's next
    candidate index per stage key ``(app_id, function id)``.

    The context is the one cache of the candidates' routing facts, so no
    decision hashes the candidate tuple. ``hop_memo`` holds, per payload
    node or state host, the candidates' routes from that node grouped by
    equal hops, built once per node per run; ``state_memo`` holds the state
    delays from a host, priced once per hop group and ``(host, state
    size)``. The runtimes change as the run goes on, so a policy must not
    keep the context or its rows past the call.
    """

    candidate_workers: tuple[int, ...]
    routes: RouteTable
    rng: np.random.Generator
    loads: Mapping[int, WorkerRuntime]
    policy: PolicyKind
    mode: StateMode
    # derived once from the candidates: one row each, in candidate order
    load_rows: tuple[LoadRow, ...] = field(init=False, repr=False, compare=False)
    cursors: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    hop_memo: dict[int, tuple] = field(init=False, repr=False, compare=False)
    state_memo: dict[tuple[int | None, float], tuple[float, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.candidate_workers:
            raise ValueError("empty candidate list")
        rows = []
        for w in self.candidate_workers:
            wr = self.loads.get(w)
            if wr is None:
                raise ValueError(f"candidate {w} has no runtime in loads")
            rows.append((w, wr, wr.node.cores * wr.node.core_speed, wr.node.core_speed))
        self.load_rows = tuple(rows)
        self.cursors = {}
        self.hop_memo = {}
        self.state_memo = {}


def _fill_hops(ctx: DispatchContext, node: int) -> tuple[tuple[Route, ...], tuple[int, ...]]:
    """Group the candidates' routes from ``node`` by equal hops into ``ctx.hop_memo``; once per node per run.

    Keeps one route per distinct hop sequence, in order of first appearance,
    and each candidate's index into them. Routes with equal hops have
    bit-equal delays for any size, so a caller prices each group once.
    """
    index: dict[tuple[tuple[float, float], ...], int] = {}
    groups: list[Route] = []
    group_of: list[int] = []
    for w in ctx.candidate_workers:
        route = ctx.routes.route(node, w)
        if route.hops not in index:
            index[route.hops] = len(groups)
            groups.append(route)
        group_of.append(index[route.hops])
    hops = ctx.hop_memo[node] = tuple(groups), tuple(group_of)
    return hops


def _fill_state(ctx: DispatchContext, host: int | None, f: FunctionSpec) -> tuple[float, ...]:
    """Price the candidates' state delays from ``host`` into ``ctx.state_memo``; zeros while unplaced.

    Candidates whose routes from ``host`` have equal hops have equal reverse
    hops too, so bit-equal delays for both legs: each hop group is priced
    once, by ``remote_state_access`` at its first candidate.
    """
    if host is None:
        delays = (0.0,) * len(ctx.candidate_workers)
    else:
        groups, group_of = ctx.hop_memo.get(host) or _fill_hops(ctx, host)
        priced = [state_mod.remote_state_access(ctx.mode, host, f, route.path[-1], ctx.routes).delay
                  for route in groups]
        delays = tuple(priced[g] for g in group_of)
    ctx.state_memo[(host, f.state_size)] = delays
    return delays


def estimate_completion(
    ctx: DispatchContext, f: FunctionSpec, w: int, input_bytes: float, now: float, payload_node: int, host: int | None
) -> float:
    """Predicted completion time at ``now`` of this stage on worker ``w``.

    Input transfer from ``payload_node`` (with embedded state overhead) +
    state access from ``host`` (None: unplaced or not remote; no migration
    applied, the estimate is a prediction, not a commitment) + backlog drain
    + stage compute. In-flight network transfers toward ``w`` are not
    visible to the dispatcher and are ignored. Scored by
    ``min_latency_estimate``'s own pass on a one-candidate copy of ``ctx``,
    so the caller's caches and cursors are left as they were.
    """
    return _least_estimate(replace(ctx, candidate_workers=(w,)), f, input_bytes, now, payload_node, host)[0]


def _least_estimate(
    ctx: DispatchContext, f: FunctionSpec, input_bytes: float, now: float, payload_node: int, host: int | None
) -> tuple[float, int]:
    """The least ``estimate_completion`` over the candidates and its worker, in one pass.

    The wire size and compute demand are found once; the input transfer is
    priced once per distinct hop sequence from ``payload_node``. Each
    estimate adds its terms in the order
    ``xfer + state + backlog / (cores * speed) + ops / speed``, the backlog
    summed as ``WorkerRuntime.backlog_ops`` sums it. Ties go to the lowest
    worker id, as ``min`` over ``(estimate, worker)`` pairs would pick.
    """
    compute_ops, _ = stage_io(f, input_bytes)
    nbytes = state_mod.stage_transfer_bytes(input_bytes, None, f, ctx.mode)
    # each cached value is a non-empty tuple, so a hit is truthy
    groups, group_of = ctx.hop_memo.get(payload_node) or _fill_hops(ctx, payload_node)
    state = ctx.state_memo.get((host, f.state_size)) or _fill_state(ctx, host, f)
    group_xfer = [route.delay(nbytes) for route in groups]
    best = best_w = None
    for (w, wr, capacity, speed), g, state_delay in zip(ctx.load_rows, group_of, state):
        pending = wr.queued_ops
        for until in wr.busy_until:
            if until > now:
                pending += (until - now) * speed
        est = group_xfer[g] + state_delay + pending / capacity + compute_ops / speed
        if best_w is None or est < best or (est == best and w < best_w):
            best, best_w = est, w
    return best, best_w


def _least_backlog(now: float, rows: tuple[LoadRow, ...]) -> tuple[float, int]:
    """The least backlog at ``now`` over ``rows`` and its worker, by ``_least_estimate``'s rules."""
    best = best_w = None
    for w, wr, _capacity, speed in rows:
        pending = wr.queued_ops
        for until in wr.busy_until:
            if until > now:
                pending += (until - now) * speed
        if best_w is None or pending < best or (pending == best and w < best_w):
            best, best_w = pending, w
    return best, best_w


def choose_worker(
    ctx: DispatchContext,
    f: FunctionSpec,
    key: tuple[str, str],
    input_bytes: float,
    now: float,
    payload_node: int,
    host: int | None,
) -> int:
    """Select the execution worker at ``now`` for one stage by ``ctx.policy``. Ties go to the lowest id.

    ``key`` is the stage's ``(app_id, function id)``, which keys round
    robin's cursor. The stage's input waits at ``payload_node``, and
    ``host`` is the worker that holds its function's state: None in
    embedded mode, for a stateless function and while the state is
    unplaced.
    """
    policy = ctx.policy
    candidates = ctx.candidate_workers

    if policy is _RANDOM:
        return candidates[int(ctx.rng.integers(0, len(candidates)))]

    if policy is _ROUND_ROBIN:
        cur = ctx.cursors.get(key, 0)
        ctx.cursors[key] = (cur + 1) % len(candidates)
        return candidates[cur]

    if policy is _LEAST_LOADED:
        return _least_backlog(now, ctx.load_rows)[1]

    if policy is _STATE_LOCAL:
        if host in candidates:
            return host
        return _least_backlog(now, ctx.load_rows)[1]

    if policy is _MIN_LATENCY_ESTIMATE:
        return _least_estimate(ctx, f, input_bytes, now, payload_node, host)[1]

    raise ValueError(f"unknown policy {policy}")
