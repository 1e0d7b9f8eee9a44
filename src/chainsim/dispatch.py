"""Per-stage destination selection: completion-time estimator and policies.

All policies are pure given (context, round-robin state, rng stream); the
engine serializes calls within a run. Every tie breaks toward the lowest
worker id so runs replay identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import state as state_mod
from .state import StateMode
from .topology import NodeSpec, RouteTable
from .workflow import FunctionSpec, stage_io

if TYPE_CHECKING:
    from .engine import WorkerRuntime


class PolicyKind(enum.Enum):
    RANDOM = "random"
    ROUND_ROBIN = "round_robin"
    LEAST_LOADED = "least_loaded"
    STATE_LOCAL = "state_local"
    MIN_LATENCY_ESTIMATE = "min_latency_estimate"


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
    policy must not keep the context past the call. ``candidate_workers``,
    ``workers`` and ``loads`` are fixed once the context is built, and each
    candidate must be a key of both mappings.
    """

    app_id: str
    candidate_workers: tuple[int, ...]
    now: float
    state_host: int | None
    routes: RouteTable
    payload_location: int
    rng: np.random.Generator
    workers: Mapping[int, NodeSpec]
    loads: Mapping[int, WorkerRuntime]
    # one row per candidate, in candidate order, derived once
    load_rows: tuple[LoadRow, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.load_rows = tuple(_load_row(self, w) for w in self.candidate_workers)


def _load_row(ctx: DispatchContext, w: int) -> LoadRow:
    spec = ctx.workers[w]
    return (w, ctx.loads[w], spec.cores * spec.core_speed, spec.core_speed)


@dataclass
class RrState:
    """Per-(app, function) cursor into the candidate list."""

    cursors: dict[tuple[str, str], int] = field(default_factory=dict)

    def take(self, app_id: str, function_id: str, n_candidates: int) -> int:
        key = (app_id, function_id)
        cur = self.cursors.get(key, 0) % n_candidates
        self.cursors[key] = (cur + 1) % n_candidates
        return cur


def estimate_completion(
    ctx: DispatchContext,
    f: FunctionSpec,
    w: int,
    input_bytes: float,
    mode: StateMode,
) -> float:
    """Predicted completion time of this stage on worker ``w``.

    Input transfer (with embedded state overhead) + state access from
    ``ctx.state_host`` (no migration applied; the estimate is a prediction,
    not a commitment) + backlog drain + stage compute. In-flight network
    transfers toward ``w`` are not visible to the dispatcher and are ignored.
    Scored by ``min_latency_estimate``'s own pass, over the one worker.
    """
    return _least_estimate(ctx, f, (w,), (_load_row(ctx, w),), input_bytes, mode)[0]


def _least_estimate(
    ctx: DispatchContext,
    f: FunctionSpec,
    targets: tuple[int, ...],
    rows: tuple[LoadRow, ...],
    input_bytes: float,
    mode: StateMode,
) -> tuple[float, int]:
    """The least ``estimate_completion`` over ``targets`` and its worker, in one pass.

    ``rows`` are the targets' load rows, in the same order. The wire size,
    compute demand and state host are found once; the input transfer is
    priced once per distinct hop sequence from the payload's location. Each
    estimate adds its terms in the order
    ``xfer + state + backlog / (cores * speed) + ops / speed``, the backlog
    summed as ``WorkerRuntime.backlog_ops`` sums it. Ties go to the lowest
    worker id, as ``min`` over ``(estimate, worker)`` pairs would pick.
    """
    compute_ops, _ = stage_io(f, input_bytes)
    nbytes = state_mod.stage_transfer_bytes(input_bytes, None, f, mode)
    classes, class_of = ctx.routes.hop_classes(ctx.payload_location, targets)
    class_xfer = [route.delay(nbytes) for route in classes]
    state = state_mod.state_delays(mode, ctx.state_host, f, targets, ctx.routes)
    now = ctx.now
    best = best_w = None
    for (w, wr, capacity, speed), c, state_delay in zip(rows, class_of, state):
        pending = wr.queued_ops
        for until in wr.busy_until:
            if until > now:
                pending += (until - now) * speed
        est = class_xfer[c] + state_delay + pending / capacity + compute_ops / speed
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
    policy: PolicyKind,
    ctx: DispatchContext,
    rr: RrState,
    f: FunctionSpec,
    input_bytes: float,
    mode: StateMode,
) -> int:
    """Select the execution worker for one stage. Ties go to the lowest id."""
    candidates = ctx.candidate_workers
    if not candidates:
        raise ValueError("empty candidate list")

    if policy is PolicyKind.RANDOM:
        return candidates[int(ctx.rng.integers(0, len(candidates)))]

    if policy is PolicyKind.ROUND_ROBIN:
        return candidates[rr.take(ctx.app_id, f.id, len(candidates))]

    if policy is PolicyKind.LEAST_LOADED:
        return _least_backlog(ctx.now, ctx.load_rows)[1]

    if policy is PolicyKind.STATE_LOCAL:
        if ctx.state_host in candidates:
            return ctx.state_host
        return _least_backlog(ctx.now, ctx.load_rows)[1]

    if policy is PolicyKind.MIN_LATENCY_ESTIMATE:
        return _least_estimate(ctx, f, candidates, ctx.load_rows, input_bytes, mode)[1]

    raise ValueError(f"unknown policy {policy}")
