"""Per-stage destination selection: completion-time estimator and policies.

All policies are pure given (context, round-robin state, rng stream); the
engine serializes calls within a run. Every tie breaks toward the lowest
worker id so runs replay identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import state as state_mod
from .state import StateMode
from .topology import NodeSpec, RouteTable
from .workflow import FunctionSpec, stage_io


class PolicyKind(enum.Enum):
    RANDOM = "random"
    ROUND_ROBIN = "round_robin"
    LEAST_LOADED = "least_loaded"
    STATE_LOCAL = "state_local"
    MIN_LATENCY_ESTIMATE = "min_latency_estimate"


# The policies that read ``DispatchContext.backlog``; the others get an empty
# mapping, so the engine need not compute any backlog for them.
BACKLOG_POLICIES = frozenset(
    {PolicyKind.LEAST_LOADED, PolicyKind.STATE_LOCAL, PolicyKind.MIN_LATENCY_ESTIMATE}
)


@dataclass
class DispatchContext:
    """Dispatcher-local knowledge at one decision instant.

    ``backlog`` maps candidate workers to pending operations: the exact,
    correctly rounded total of the worker's queued ops plus the remaining ops
    of each busy core. Policies outside ``BACKLOG_POLICIES`` (``random`` and
    ``round_robin``) receive an empty mapping. ``state_host`` is where the
    engine's registry holds the function's state, or None in embedded mode,
    for a stateless function and while unplaced. The rng stream is private.

    The engine builds one context per run and mutates it between decisions
    (``app_id``, ``state_host``, ``payload_location`` and the values of
    ``backlog``), so a policy must not keep the context or its ``backlog``
    mapping past the call. ``workers`` is fixed once the context is built.
    """

    app_id: str
    candidate_workers: tuple[int, ...]
    backlog: Mapping[int, float]
    state_host: int | None
    routes: RouteTable
    payload_location: int
    rng: np.random.Generator
    workers: Mapping[int, NodeSpec]
    # worker id -> (cores * core_speed, core_speed), derived once from ``workers``
    speeds: dict[int, tuple[float, float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.speeds = {w: (spec.cores * spec.core_speed, spec.core_speed) for w, spec in self.workers.items()}


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
    """
    return _estimates(ctx, f, (w,), input_bytes, mode)[0]


def _estimates(
    ctx: DispatchContext,
    f: FunctionSpec,
    targets: tuple[int, ...],
    input_bytes: float,
    mode: StateMode,
) -> list[float]:
    """``estimate_completion`` at each of ``targets``, in one pass.

    The wire size, compute demand and state host are found once; the input
    transfer is priced once per distinct hop sequence from the payload's
    location. Each estimate adds its terms in the order
    ``xfer + state + backlog / (cores * speed) + ops / speed``.
    """
    compute_ops, _ = stage_io(f, input_bytes)
    nbytes = state_mod.stage_transfer_bytes(input_bytes, None, f, mode)
    classes, class_of = ctx.routes.hop_classes(ctx.payload_location, targets)
    class_xfer = [route.delay(nbytes) for route in classes]
    state = state_mod.state_delays(mode, ctx.state_host, f, targets, ctx.routes)
    backlog, speeds = ctx.backlog, ctx.speeds
    estimates = []
    for w, c, state_delay in zip(targets, class_of, state):
        capacity, speed = speeds[w]
        estimates.append(class_xfer[c] + state_delay + backlog.get(w, 0.0) / capacity + compute_ops / speed)
    return estimates


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
        return _least_loaded(ctx)

    if policy is PolicyKind.STATE_LOCAL:
        if ctx.state_host in candidates:
            return ctx.state_host
        return _least_loaded(ctx)

    if policy is PolicyKind.MIN_LATENCY_ESTIMATE:
        return min(zip(_estimates(ctx, f, candidates, input_bytes, mode), candidates))[1]

    raise ValueError(f"unknown policy {policy}")


def _least_loaded(ctx: DispatchContext) -> int:
    return min(ctx.candidate_workers, key=lambda w: (ctx.backlog.get(w, 0.0), w))
