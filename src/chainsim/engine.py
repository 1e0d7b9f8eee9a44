"""Deterministic discrete-event simulator for chain/DAG invocations.

Events are ``(time, seq, kind, data)`` tuples processed in (time, seq)
order, which totally orders simultaneous events. Arrivals are drawn and
numbered up front in [0, horizon), arrival ``i`` taking ``seq = i``, but
only the next one is on the heap: handling arrival ``i`` pushes ``i + 1``.
Every other event takes the next seq after the arrivals, in creation order,
so the pop order is that of a heap holding every arrival from the start.
Arrival times are checked when drawn; every other event time is checked
once, where ``execute`` pops it, so an overflowed time (``inf``, which pops
last) still fails the run with ``EngineError``. In-flight work drains, so
a run terminates exactly when the heap is empty. Given a scenario
(including seed) the produced metrics are a pure function of the inputs.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import NamedTuple

from . import state as state_mod
from . import workload as wl
from .config import Scenario
from .dispatch import DispatchContext, choose_worker
from .state import StateMode, remote_state_access, stage_transfer_bytes
from .topology import NodeSpec
from .workflow import FunctionSpec, _kahn, stage_io, vertex_input_bytes

# Event kinds; each event's data is what its handler reads.
ARRIVAL = 0  # InvocationRecord
STAGE_READY = 1  # (InvocationRecord, _StagePlan, node the stage's payload waits at)
EXEC_START = 2  # Job
EXEC_DONE = 3  # Job
DELIVERED = 4  # InvocationRecord

# One stage's job: the data of its EXEC_START and EXEC_DONE events.
# (invocation, stage plan, worker, out_bytes, ops, stage record)
Job = tuple["InvocationRecord", "_StagePlan", int, float, float, "StageRecord"]


class EngineError(RuntimeError):
    """Model-level failure (non-finite delay, inconsistent event order)."""


@dataclass(slots=True)
class StageRecord:
    """Measurements for one executed stage of one invocation.

    The first six fields are known at dispatch, where the engine passes them
    by position (a keyword call costs about three times as much); the rest
    are set as the stage's inputs move and it runs.
    """

    worker: int
    dispatch_time: float
    state_delay_s: float = 0.0
    state_bytes: float = 0.0
    migration: bool = False
    link_bytes: float = 0.0  # bytes x link-crossings attributed to this stage
    transfer_s: float = 0.0
    queue_wait_s: float = 0.0
    compute_s: float = 0.0


@dataclass(slots=True)
class InvocationRecord:
    inv_id: int
    app: str
    arrival: float
    payload: float
    compute_factor: float
    stages: dict[str, StageRecord] = field(default_factory=dict)
    outputs: dict[str, float] = field(default_factory=dict)
    completion: float | None = None

    @property
    def latency(self) -> float | None:
        return None if self.completion is None else self.completion - self.arrival


@dataclass
class MetricsLog:
    """Everything measured by one simulation run."""

    invocations: list[InvocationRecord]
    link_bytes: dict[tuple[int, int], float]
    worker_busy: dict[int, float]
    utilization: dict[int, float]
    injected: int
    completed: int
    in_flight_at_end: int
    end_time: float
    horizon: float


class _StagePlan(NamedTuple):
    """What the handlers read of one stage of one app; fixed for the run.

    ``succs`` holds the successors' own plans, so an event carries the plan
    of the stage it serves. A hop's two sizes are the producer's embedded
    state and the consumer's, each ``stage_transfer_bytes`` at 0.0 data; a
    missing endpoint's is 0.0.
    """

    f: FunctionSpec
    key: tuple[str, str]  # (app_id, function id): keys the state host and round robin's cursor
    preds: tuple[str, ...]
    succs: tuple[_StagePlan, ...] | None  # None for the sink
    stateful: bool  # remote mode and state_size > 0
    inputs: tuple[tuple[str | None, float, float], ...]  # (pred, *sizes) per pred; (None, *sizes) at the source
    delivery: tuple[int, float, float] | None  # the sink's (client, *sizes)


def _entries(scenario: Scenario) -> dict[str, tuple[_StagePlan, int]]:
    """Each app's source plan and client, with one plan per vertex of its DAG, built sink first.

    A listed function outside the DAG has no plan and never runs.
    """
    mode = scenario.state_mode

    def hop(producer: FunctionSpec | None, consumer: FunctionSpec | None) -> tuple[float, float]:
        return stage_transfer_bytes(0.0, producer, None, mode), stage_transfer_bytes(0.0, None, consumer, mode)

    entries: dict[str, tuple[_StagePlan, int]] = {}
    for app_id, app in scenario.apps.items():
        fns, dag = app.functions, app.dag
        plans: dict[str, _StagePlan] = {}
        for fid in reversed(_kahn(dag)):
            f = fns[fid]
            preds = dag.preds[fid]
            plans[fid] = _StagePlan(
                f=f,
                key=(app_id, fid),
                preds=preds,
                succs=tuple(plans[q] for q in dag.succs[fid]) if fid != dag.sink else None,
                stateful=mode is not StateMode.EMBEDDED and f.state_size > 0,
                inputs=tuple((p, *hop(fns[p], f)) for p in preds) or ((None, *hop(None, f)),),
                delivery=(app.client, *hop(f, None)) if fid == dag.sink else None,
            )
        entries[app_id] = (plans[dag.source], app.client)
    return entries


class WorkerRuntime:
    """Per-core busy-until times plus a FIFO queue of ``(job, t_enq)`` items.

    The queue changes only through ``enqueue`` and ``dequeue``, which keep
    the exact total of its ops in ``queued_units``, counted in units of
    ``1 / divisor``: ``divisor`` is ``2**scale``, the largest denominator of
    the ops queued since the queue was last empty, so each op is a whole
    number of units and the integer sum is exact in any order. ``queued_ops``
    is that total correctly rounded, and exactly 0.0 when the queue is empty.
    """

    __slots__ = ("node", "busy_until", "queue", "busy_seconds", "queued_units", "scale", "divisor", "queued_ops")

    def __init__(self, node: NodeSpec):
        self.node = node
        self.busy_until = [0.0] * node.cores
        self.queue: deque[tuple[Job, float]] = deque()
        self.busy_seconds = 0.0
        self.queued_units = self.scale = 0
        self.divisor = 1
        self.queued_ops = 0.0

    def enqueue(self, job: Job, t_enq: float) -> None:
        self.queue.append((job, t_enq))
        num, den = job[4].as_integer_ratio()  # den is 2**e, e at most 1074
        e = den.bit_length() - 1
        k = self.scale
        if e > k:
            self.queued_units = (self.queued_units << (e - k)) + num
            self.scale, self.divisor = e, den
        else:
            self.queued_units += num << (k - e)
        try:
            self.queued_ops = self.queued_units / self.divisor
        except OverflowError:
            raise EngineError(f"queued ops on worker {self.node.id} exceed the float range") from None

    def dequeue(self) -> tuple[Job, float]:
        item = self.queue.popleft()
        if self.queue:
            num, den = item[0][4].as_integer_ratio()
            self.queued_units -= num << (self.scale + 1 - den.bit_length())
            self.queued_ops = self.queued_units / self.divisor
        else:
            self.queued_units, self.scale, self.divisor, self.queued_ops = 0, 0, 1, 0.0
        return item

    def free_core(self, now: float) -> int | None:
        for i, until in enumerate(self.busy_until):
            if until <= now:
                return i
        return None

    def backlog_ops(self, now: float) -> float:
        """Queued ops plus the remaining ops of every busy core, in core order.

        Dispatch computes the same sum, in the same order, inside each policy's
        pass over its candidates, and a test pins the two bit-equal. The
        engine does not call this method; it stays because the benchmark's
        tracer wraps it by name.
        """
        pending = self.queued_ops
        speed = self.node.core_speed
        for until in self.busy_until:
            if until > now:
                pending += (until - now) * speed
        return pending


def run(scenario: Scenario, seed: int | None = None) -> MetricsLog:
    """Execute one replication and return its metrics."""
    return _Run(scenario, scenario.seed if seed is None else seed).execute()


class _Run:
    def __init__(self, scenario: Scenario, seed: int):
        self.sc = scenario
        self.seed = seed
        self.apps = scenario.apps
        self.routes = scenario.routes
        self.entries = _entries(scenario)
        self.workers = {n.id: WorkerRuntime(n) for n in scenario.topology.workers()}
        self.hosts: dict[tuple[str, str], int] = {}  # each placed state item's worker, by stage key
        # One context serves every decision of the run and holds its tables;
        # each decision passes its time, payload node and state host.
        self.ctx = DispatchContext(
            candidate_workers=scenario.candidates,
            routes=self.routes,
            rng=wl.substream(seed, wl.STREAM_POLICY),
            loads=self.workers,
            policy=scenario.policy,
            mode=scenario.state_mode,
        )
        self.heap: list[tuple[float, int, int, object]] = []  # (time, seq, kind, data)
        self.seq = count()  # restarted after the arrivals, which take seq 0..n-1
        self.invocations: list[InvocationRecord] = []  # indexed by inv_id
        self.link_bytes = [0.0] * len(scenario.topology.links)  # indexed like Topology.links
        self.completed = 0

    # -- event plumbing ----------------------------------------------------

    def _inject_arrivals(self) -> None:
        merged: list[tuple[float, int, str, float, float]] = []
        for app_idx, app_id in enumerate(sorted(self.apps)):
            app = self.apps[app_id]
            if self.sc.explicit_arrivals is not None:
                times = list(self.sc.explicit_arrivals.get(app_id, []))
            else:
                times = wl.gen_arrivals(
                    self.sc.rates[app_id],
                    self.sc.horizon,
                    wl.substream(self.seed, wl.STREAM_ARRIVALS, app_idx),
                )
            payloads = wl.draw_payloads(
                self.sc.payload,
                len(times),
                app.dag.entry_payload,
                wl.substream(self.seed, wl.STREAM_PAYLOAD, app_idx),
            )
            factors = wl.draw_compute_factors(
                len(times),
                self.sc.compute_randomization,
                wl.substream(self.seed, wl.STREAM_COMPUTE, app_idx),
            )
            for t, payload, factor in zip(times, payloads, factors):
                merged.append((t, app_idx, app_id, payload, factor))
        merged.sort(key=lambda item: (item[0], item[1]))
        for inv_id, (t, _idx, app_id, payload, factor) in enumerate(merged):
            if not math.isfinite(t):
                raise EngineError(f"non-finite event time {t} for kind {ARRIVAL}")
            self.invocations.append(
                InvocationRecord(inv_id=inv_id, app=app_id, arrival=t, payload=payload, compute_factor=factor)
            )
        self.seq = count(len(merged))
        self._push_arrival(0)

    def _push_arrival(self, inv_id: int) -> None:
        """Put arrival ``inv_id``, if there is one, on the heap with ``seq = inv_id``."""
        if inv_id < len(self.invocations):
            inv = self.invocations[inv_id]
            heapq.heappush(self.heap, (inv.arrival, inv_id, ARRIVAL, inv))

    # -- transfers ---------------------------------------------------------

    def _hop(self, src: int, dst: int, data: float, producer: float, consumer: float, rec: StageRecord) -> float:
        """Delay of one stage transfer, charged to links and ``rec`` in path order.

        The wire size is ``data + producer + consumer``, the hop's embedded
        state sizes added in that order; the state part ``producer + consumer``
        is state traffic only when the hop crosses the network.
        """
        nbytes = data + producer + consumer
        route = self.routes.route(src, dst)
        link_bytes = self.link_bytes
        charged = rec.link_bytes
        for i in route.links:
            link_bytes[i] += nbytes
            charged += nbytes
        rec.link_bytes = charged
        if src != dst:
            rec.state_bytes += producer + consumer
        delay = route.delay(nbytes)
        if not math.isfinite(delay):
            raise EngineError(f"non-finite transfer delay {src}->{dst} for {nbytes} bytes")
        return delay

    # -- handlers ------------------------------------------------------------

    def _on_arrival(self, now: float, inv: InvocationRecord) -> None:
        source, client = self.entries[inv.app]
        heapq.heappush(self.heap, (now, next(self.seq), STAGE_READY, (inv, source, client)))
        self._push_arrival(inv.inv_id + 1)

    def _on_stage_ready(self, now: float, data: tuple) -> None:
        inv, plan, at_node = data
        f = plan.f
        fid = f.id
        outputs = inv.outputs
        input_bytes = vertex_input_bytes(plan.preds, outputs, inv.payload)

        # State is resolved at dispatch time from one host read, which the
        # policy sees too: first touch seeds the host at the chosen worker for
        # free, later touches pay the mode's cost and a migration moves the
        # host to the executor at once.
        key = plan.key
        host = self.hosts.get(key) if plan.stateful else None
        ctx = self.ctx
        w = choose_worker(ctx, f, key, input_bytes, now, at_node, host)

        access = state_mod.ZERO_ACCESS
        charged = 0.0
        if host is not None:
            access = remote_state_access(ctx.mode, host, f, w, self.routes)
            size = f.state_size
            link_bytes = self.link_bytes
            for i in access.links:
                link_bytes[i] += size
                charged += size
            if access.migration:
                self.hosts[key] = w
        elif plan.stateful:
            self.hosts[key] = w
        rec = StageRecord(w, now, access.delay, access.bytes_moved, access.migration, charged)
        inv.stages[fid] = rec

        # The entry payload waits at the client and each predecessor output at
        # its producer; all move in parallel once the executor is known: the
        # slowest transfer gates the stage, the first of equals as with ``max``.
        stages = inv.stages
        d_in = -math.inf
        for p, producer, consumer in plan.inputs:
            if p is None:
                d = self._hop(at_node, w, inv.payload, producer, consumer, rec)
            else:
                d = self._hop(stages[p].worker, w, outputs[p], producer, consumer, rec)
            if d > d_in:
                d_in = d
        rec.transfer_s = d_in

        ops, out_bytes = stage_io(f, input_bytes, inv.compute_factor)
        if not math.isfinite(ops):
            raise EngineError(f"non-finite compute demand for {fid}")
        job = (inv, plan, w, out_bytes, ops, rec)
        heapq.heappush(self.heap, (now + d_in + access.delay, next(self.seq), EXEC_START, job))

    def _on_exec_start(self, now: float, job: Job) -> None:
        wr = self.workers[job[2]]
        # A core freed at this instant belongs to the queue's head (its
        # EXEC_DONE may not have been popped yet), so join the queue if any.
        core = None if wr.queue else wr.free_core(now)
        if core is None:
            wr.enqueue(job, now)
            return
        self._start_on_core(wr, core, job, now, now)

    def _start_on_core(self, wr: WorkerRuntime, core: int, job: Job, t_enq: float, now: float) -> None:
        duration = job[4] / wr.node.core_speed
        if not math.isfinite(duration):
            raise EngineError(f"non-finite service time on worker {job[2]}")
        rec = job[5]
        rec.queue_wait_s = now - t_enq
        rec.compute_s = duration
        wr.busy_until[core] = now + duration
        wr.busy_seconds += duration
        heapq.heappush(self.heap, (now + duration, next(self.seq), EXEC_DONE, job))

    def _on_exec_done(self, now: float, job: Job) -> None:
        inv, plan, w, out_bytes, _ops, rec = job
        outputs = inv.outputs
        outputs[plan.f.id] = out_bytes

        if plan.succs is None:
            client, producer, consumer = plan.delivery
            d_out = self._hop(w, client, out_bytes, producer, consumer, rec)
            heapq.heappush(self.heap, (now + d_out, next(self.seq), DELIVERED, inv))
        else:
            # A successor is ready once every predecessor has an output, which
            # happens exactly once: on its last predecessor's EXEC_DONE.
            for succ in plan.succs:
                for p in succ.preds:
                    if p not in outputs:
                        break
                else:
                    heapq.heappush(self.heap, (now, next(self.seq), STAGE_READY, (inv, succ, w)))

        wr = self.workers[w]
        if wr.queue:
            core = wr.free_core(now)
            if core is not None:
                self._start_on_core(wr, core, *wr.dequeue(), now)

    def _on_delivered(self, now: float, inv: InvocationRecord) -> None:
        inv.completion = now
        self.completed += 1

    # -- main loop -----------------------------------------------------------

    def execute(self) -> MetricsLog:
        self._inject_arrivals()
        injected = len(self.invocations)
        # indexed by event kind
        handlers = (self._on_arrival, self._on_stage_ready, self._on_exec_start, self._on_exec_done, self._on_delivered)
        heap = self.heap
        heappop = heapq.heappop  # bound per run, so a replaced ``heapq`` is seen
        inf = math.inf
        now = 0.0
        while heap:
            time, _, kind, data = heappop(heap)
            if not now <= time < inf:
                if not math.isfinite(time):
                    raise EngineError(f"non-finite event time {time} for kind {kind}")
                raise EngineError(f"event time went backwards: {time} < {now}")
            now = time
            handlers[kind](now, data)

        end_time = now
        utilization = {}
        for wid, wr in sorted(self.workers.items()):
            denom = wr.node.cores * end_time
            utilization[wid] = wr.busy_seconds / denom if denom > 0 else 0.0
        return MetricsLog(
            invocations=self.invocations,
            link_bytes={link.pair: total for link, total in zip(self.sc.topology.links, self.link_bytes)},
            worker_busy={wid: wr.busy_seconds for wid, wr in sorted(self.workers.items())},
            utilization=utilization,
            injected=injected,
            completed=self.completed,
            in_flight_at_end=injected - self.completed,
            end_time=end_time,
            horizon=self.sc.horizon,
        )
