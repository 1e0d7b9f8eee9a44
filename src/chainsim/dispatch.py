"""Per-stage destination selection: completion-time estimator and policies.

All policies are pure given the context, its round-robin cursors and its
rng stream; the engine serializes calls within a run. Every tie breaks
toward the lowest worker id so runs replay identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import state as state_mod
from .state import StateMode
from .topology import RouteTable
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
    """Dispatcher-local knowledge at one decision instant.

    ``loads`` maps worker ids to their live ``WorkerRuntime``s. The policies
    that weigh load (``least_loaded``, ``state_local`` when the state host
    is not a candidate, and ``min_latency_estimate``) compute each
    candidate's backlog at ``now`` inside their one pass over ``load_rows``:
    the runtime's ``queued_ops``, then ``(until - now) * core_speed`` for
    each busy core in core order, the sum ``WorkerRuntime.backlog_ops``
    returns. ``state_host`` is where the engine's registry holds the
    function's state, or None in embedded mode, for a stateless function
    and while unplaced. The rng stream is private.

    The engine builds one context per run and mutates it between decisions
    (``app_id``, ``now``, ``state_host`` and ``payload_location``), so a
    policy must not keep the context past the call. ``policy``, ``mode``,
    ``candidate_workers``, ``routes``, ``rng`` and ``loads`` are fixed once
    the context is built, and each candidate must be a key of ``loads``; a
    runtime's ``node`` is its worker's spec. ``cursors`` holds round robin's
    next candidate index per ``(app_id, function id)``.
    """

    app_id: str
    candidate_workers: tuple[int, ...]
    now: float
    state_host: int | None
    routes: RouteTable
    payload_location: int
    rng: np.random.Generator
    loads: Mapping[int, WorkerRuntime]
    policy: PolicyKind
    mode: StateMode
    # one row per candidate, in candidate order, derived once
    load_rows: tuple[LoadRow, ...] = field(init=False, repr=False, compare=False)
    cursors: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    # The candidates' distinct core speeds and each row's index into them;
    # their hop classes per payload node and state delays per (state host,
    # state size), each read from the route table's memo once, so that no
    # decision hashes the candidate tuple.
    speed_classes: tuple[tuple[float, ...], tuple[int, ...]] = field(init=False, repr=False, compare=False)
    hop_memo: dict[int, tuple] = field(init=False, repr=False, compare=False)
    state_memo: dict[tuple[int | None, float], tuple[float, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.candidate_workers:
            raise ValueError("empty candidate list")
        self.load_rows = tuple(_load_row(self, w) for w in self.candidate_workers)
        self.cursors = {}
        self.speed_classes = _speed_classes(self.load_rows)
        self.hop_memo = {}
        self.state_memo = {}


def _load_row(ctx: DispatchContext, w: int) -> LoadRow:
    wr = ctx.loads[w]
    spec = wr.node
    return (w, wr, spec.cores * spec.core_speed, spec.core_speed)


def _speed_classes(rows: tuple[LoadRow, ...]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The distinct core speeds of ``rows``, in order of first appearance, and each row's index into them."""
    speeds = tuple(dict.fromkeys(row[3] for row in rows))
    return speeds, tuple(speeds.index(row[3]) for row in rows)


def estimate_completion(ctx: DispatchContext, f: FunctionSpec, w: int, input_bytes: float) -> float:
    """Predicted completion time of this stage on worker ``w``.

    Input transfer (with embedded state overhead) + state access from
    ``ctx.state_host`` (no migration applied; the estimate is a prediction,
    not a commitment) + backlog drain + stage compute. In-flight network
    transfers toward ``w`` are not visible to the dispatcher and are ignored.
    Scored by ``min_latency_estimate``'s own pass, over the one worker.
    """
    return _least_estimate(ctx, f, (w,), (_load_row(ctx, w),), input_bytes)[0]


def _least_estimate(
    ctx: DispatchContext,
    f: FunctionSpec,
    targets: tuple[int, ...],
    rows: tuple[LoadRow, ...],
    input_bytes: float,
) -> tuple[float, int]:
    """The least ``estimate_completion`` over ``targets`` and its worker, in one pass.

    ``rows`` are the targets' load rows, in the same order. The wire size,
    compute demand and state host are found once; the input transfer is
    priced once per distinct hop sequence from the payload's location. Each
    estimate adds its terms in the order
    ``xfer + state + backlog / (cores * speed) + ops / speed``, the backlog
    summed as ``WorkerRuntime.backlog_ops`` sums it. ``ops / speed`` is
    divided once per distinct speed: equal operands give a bit-equal
    quotient. Ties go to the lowest worker id, as ``min`` over
    ``(estimate, worker)`` pairs would pick.
    """
    compute_ops, _ = stage_io(f, input_bytes)
    nbytes = state_mod.stage_transfer_bytes(input_bytes, None, f, ctx.mode)
    src, host = ctx.payload_location, ctx.state_host
    if targets is ctx.candidate_workers:  # each table is non-empty, so a hit is truthy
        hops = ctx.hop_memo.get(src) or ctx.hop_memo.setdefault(src, ctx.routes.hop_classes(src, targets))
        key = (host, f.state_size)
        state = ctx.state_memo.get(key) or ctx.state_memo.setdefault(
            key, state_mod.state_delays(ctx.mode, host, f, targets, ctx.routes))
        speeds, speed_of = ctx.speed_classes
    else:
        hops = ctx.routes.hop_classes(src, targets)
        state = state_mod.state_delays(ctx.mode, host, f, targets, ctx.routes)
        speeds, speed_of = _speed_classes(rows)
    classes, class_of = hops
    class_xfer = [route.delay(nbytes) for route in classes]
    compute = [compute_ops / speed for speed in speeds]
    now = ctx.now
    best = best_w = None
    for (w, wr, capacity, speed), c, state_delay, k in zip(rows, class_of, state, speed_of):
        pending = wr.queued_ops
        for until in wr.busy_until:
            if until > now:
                pending += (until - now) * speed
        est = class_xfer[c] + state_delay + pending / capacity + compute[k]
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


def choose_worker(ctx: DispatchContext, f: FunctionSpec, input_bytes: float) -> int:
    """Select the execution worker for one stage by ``ctx.policy``. Ties go to the lowest id."""
    policy = ctx.policy
    candidates = ctx.candidate_workers

    if policy is _RANDOM:
        return candidates[int(ctx.rng.integers(0, len(candidates)))]

    if policy is _ROUND_ROBIN:
        key = (ctx.app_id, f.id)
        cur = ctx.cursors.get(key, 0)
        ctx.cursors[key] = (cur + 1) % len(candidates)
        return candidates[cur]

    if policy is _LEAST_LOADED:
        return _least_backlog(ctx.now, ctx.load_rows)[1]

    if policy is _STATE_LOCAL:
        if ctx.state_host in candidates:
            return ctx.state_host
        return _least_backlog(ctx.now, ctx.load_rows)[1]

    if policy is _MIN_LATENCY_ESTIMATE:
        return _least_estimate(ctx, f, candidates, ctx.load_rows, input_bytes)[1]

    raise ValueError(f"unknown policy {policy}")
