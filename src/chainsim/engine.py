"""Deterministic discrete-event simulator for chain/DAG invocations.

Events are ``(time, seq, kind, data)`` tuples processed in (time, seq)
order, seq being creation order, which totally orders simultaneous events.
Arrivals are injected in [0, horizon); in-flight work drains, so a run
terminates exactly when the event queue is empty. Given a scenario
(including seed) the produced metrics are a pure function of the inputs.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import count

from . import state as state_mod
from . import workload as wl
from .config import AppWorkflow, Scenario
from .dispatch import DispatchContext, PolicyKind, RrState, choose_worker
from .state import StateRegistry, remote_state_access
from .topology import NodeSpec, Route
from .workflow import stage_io, vertex_input_bytes

ARRIVAL = 0
STAGE_READY = 1
EXEC_START = 2
EXEC_DONE = 3
DELIVERED = 4

# One stage's job: the data of its EXEC_START and EXEC_DONE events.
Job = tuple[int, str, int, float, float]  # inv_id, fid, worker, out_bytes, ops


class EngineError(RuntimeError):
    """Model-level failure (non-finite delay, inconsistent event order)."""


@dataclass
class StageRecord:
    """Measurements for one executed stage of one invocation."""

    worker: int
    dispatch_time: float
    transfer_s: float = 0.0
    state_delay_s: float = 0.0
    state_bytes: float = 0.0
    migration: bool = False
    queue_wait_s: float = 0.0
    compute_s: float = 0.0
    link_bytes: float = 0.0  # bytes x link-crossings attributed to this stage


@dataclass
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


# Every finite float is an integer multiple of 2**-1074, the least subnormal,
# so queued ops summed in these units are exact in any order.
_ULP_SCALE = 1 << 1074


def _exact_units(x: float) -> int:
    num, den = x.as_integer_ratio()  # den is a power of two, at most 2**1074
    return num << (1075 - den.bit_length())


class WorkerRuntime:
    """Per-core busy-until times plus a FIFO queue of ``(job, t_enq)`` items.

    The queue changes only through ``enqueue`` and ``dequeue``, which keep
    the exact total of its ops: ``queued_ops`` is that total correctly
    rounded, and exactly 0.0 when the queue is empty.
    """

    __slots__ = ("node", "busy_until", "queue", "busy_seconds", "queued_units", "queued_ops")

    def __init__(self, node: NodeSpec):
        self.node = node
        self.busy_until = [0.0] * node.cores
        self.queue: deque[tuple[Job, float]] = deque()
        self.busy_seconds = 0.0
        self.queued_units = 0
        self.queued_ops = 0.0

    def enqueue(self, job: Job, t_enq: float) -> None:
        self.queue.append((job, t_enq))
        self.queued_units += _exact_units(job[4])
        try:
            self.queued_ops = self.queued_units / _ULP_SCALE
        except OverflowError:
            raise EngineError(f"queued ops on worker {self.node.id} exceed the float range") from None

    def dequeue(self) -> tuple[Job, float]:
        item = self.queue.popleft()
        self.queued_units -= _exact_units(item[0][4])
        self.queued_ops = self.queued_units / _ULP_SCALE
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
        self.mode = scenario.state_mode
        self.remote = scenario.state_mode.is_remote
        self.policy = scenario.policy
        worker_specs = {n.id: n for n in scenario.topology.workers()}
        self.workers = {wid: WorkerRuntime(spec) for wid, spec in sorted(worker_specs.items())}
        self.registry = StateRegistry()
        self.rr = RrState()
        # One context serves every decision of the run: each dispatch sets the
        # app, time, state host and payload node; policies read worker load
        # from the live runtimes.
        self.ctx = DispatchContext(
            app_id="",
            candidate_workers=scenario.candidates,
            now=0.0,
            state_host=None,
            routes=self.routes,
            payload_location=-1,
            rng=wl.substream(seed, wl.STREAM_POLICY),
            workers=worker_specs,
            loads=self.workers,
        )
        self.heap: list[tuple[float, int, int, tuple]] = []  # (time, seq, kind, data)
        self.seq = count()
        self.invocations: list[InvocationRecord] = []  # indexed by inv_id
        self.link_bytes: dict[tuple[int, int], float] = {
            link.pair: 0.0 for link in scenario.topology.links
        }
        self.completed = 0

    # -- event plumbing ----------------------------------------------------

    def schedule(self, time: float, kind: int, data: tuple) -> None:
        if not math.isfinite(time):
            raise EngineError(f"non-finite event time {time} for kind {kind}")
        heapq.heappush(self.heap, (time, next(self.seq), kind, data))

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
            self.invocations.append(
                InvocationRecord(inv_id=inv_id, app=app_id, arrival=t, payload=payload, compute_factor=factor)
            )
            self.schedule(t, ARRIVAL, (inv_id,))

    # -- transfers ---------------------------------------------------------

    def _charge_links(self, src: int, dst: int, nbytes: float, rec: StageRecord) -> Route:
        """Charge ``nbytes`` to every link from ``src`` to ``dst``, in path order, and to the stage."""
        route = self.routes.route(src, dst)
        link_bytes = self.link_bytes
        charged = rec.link_bytes
        for key in route.links:
            link_bytes[key] += nbytes
            charged += nbytes
        rec.link_bytes = charged
        return route

    def _hop(self, src: int, dst: int, data_bytes: float, producer, consumer, rec: StageRecord) -> float:
        """Delay of one stage transfer (entry, join input or delivery), charged to links and ``rec``.

        Embedded state rides in the wire size; it is state traffic only when the hop crosses the network.
        """
        nbytes, state_bytes = state_mod.stage_transfer_sizes(data_bytes, producer, consumer, self.mode)
        delay = self._charge_links(src, dst, nbytes, rec).delay(nbytes)
        if not math.isfinite(delay):
            raise EngineError(f"non-finite transfer delay {src}->{dst} for {nbytes} bytes")
        if src != dst:
            rec.state_bytes += state_bytes
        return delay

    # -- handlers ------------------------------------------------------------

    def _on_arrival(self, now: float, data: tuple) -> None:
        (inv_id,) = data
        app = self.apps[self.invocations[inv_id].app]
        self.schedule(now, STAGE_READY, (inv_id, app.dag.source, app.client))

    def _on_stage_ready(self, now: float, data: tuple) -> None:
        inv_id, fid, at_node = data
        inv = self.invocations[inv_id]
        app = self.apps[inv.app]
        f = app.functions[fid]
        preds = app.dag.preds[fid]
        input_bytes = vertex_input_bytes(preds, inv.outputs, inv.payload)

        # State is resolved at dispatch time from one registry read, which the
        # policy sees too: first touch seeds the host at the chosen worker for
        # free, later touches pay the mode's cost and a migration moves the
        # host to the executor at once.
        stateful = self.remote and f.state_size > 0
        host = self.registry.get(inv.app, fid) if stateful else None
        ctx = self.ctx
        ctx.app_id = inv.app
        ctx.now = now
        ctx.state_host = host
        ctx.payload_location = at_node
        w = choose_worker(self.policy, ctx, self.rr, f, input_bytes, self.mode)
        rec = StageRecord(worker=w, dispatch_time=now)
        inv.stages[fid] = rec

        access = state_mod.ZERO_ACCESS
        if host is not None:
            access = remote_state_access(self.mode, host, f, w, self.routes)
            for src, dst in access.legs:
                self._charge_links(src, dst, f.state_size, rec)
            if access.migration:
                self.registry.move(inv.app, fid, w)
        elif stateful:
            self.registry.seed(inv.app, fid, w)
        rec.state_delay_s = access.delay
        rec.state_bytes = access.bytes_moved
        rec.migration = access.migration

        if not preds:
            d_in = self._hop(at_node, w, inv.payload, None, f, rec)
        else:
            # Predecessor outputs are retained at their producers and move in
            # parallel once the join executor is known: the slowest transfer
            # gates the stage.
            d_in = max(
                self._hop(inv.stages[p].worker, w, inv.outputs[p], app.functions[p], f, rec)
                for p in preds
            )
        rec.transfer_s = d_in

        ops, out_bytes = stage_io(f, input_bytes, inv.compute_factor)
        if not math.isfinite(ops):
            raise EngineError(f"non-finite compute demand for {fid}")
        t_enq = now + d_in + access.delay
        self.schedule(t_enq, EXEC_START, (inv_id, fid, w, out_bytes, ops))

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
        inv_id, fid, w, _out_bytes, ops = job
        duration = ops / wr.node.core_speed
        if not math.isfinite(duration):
            raise EngineError(f"non-finite service time on worker {w}")
        rec = self.invocations[inv_id].stages[fid]
        rec.queue_wait_s = now - t_enq
        rec.compute_s = duration
        wr.busy_until[core] = now + duration
        wr.busy_seconds += duration
        self.schedule(now + duration, EXEC_DONE, job)

    def _on_exec_done(self, now: float, job: Job) -> None:
        inv_id, fid, w, out_bytes, _ops = job
        inv = self.invocations[inv_id]
        app = self.apps[inv.app]
        dag = app.dag
        outputs = inv.outputs
        outputs[fid] = out_bytes

        if fid == dag.sink:
            d_out = self._hop(w, app.client, out_bytes, app.functions[fid], None, inv.stages[fid])
            self.schedule(now + d_out, DELIVERED, (inv_id,))
        else:
            # A successor is ready once every predecessor has an output, which
            # happens exactly once: on its last predecessor's EXEC_DONE.
            for q in dag.succs[fid]:
                for p in dag.preds[q]:
                    if p not in outputs:
                        break
                else:
                    self.schedule(now, STAGE_READY, (inv_id, q, w))

        wr = self.workers[w]
        if wr.queue:
            core = wr.free_core(now)
            if core is not None:
                self._start_on_core(wr, core, *wr.dequeue(), now)

    def _on_delivered(self, now: float, data: tuple) -> None:
        (inv_id,) = data
        self.invocations[inv_id].completion = now
        self.completed += 1

    # -- main loop -----------------------------------------------------------

    def execute(self) -> MetricsLog:
        self._inject_arrivals()
        injected = len(self.invocations)
        handlers = {
            ARRIVAL: self._on_arrival,
            STAGE_READY: self._on_stage_ready,
            EXEC_START: self._on_exec_start,
            EXEC_DONE: self._on_exec_done,
            DELIVERED: self._on_delivered,
        }
        heap = self.heap
        heappop = heapq.heappop  # bound per run, so a replaced ``heapq`` is seen
        now = 0.0
        while heap:
            time, _, kind, data = heappop(heap)
            if time < now:
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
            link_bytes=self.link_bytes,
            worker_busy={wid: wr.busy_seconds for wid, wr in sorted(self.workers.items())},
            utilization=utilization,
            injected=injected,
            completed=self.completed,
            in_flight_at_end=injected - self.completed,
            end_time=end_time,
            horizon=self.sc.horizon,
        )
