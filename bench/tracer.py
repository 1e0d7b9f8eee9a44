"""Outside-in per-layer tracing of chainsim, from the benchmark's own files.

The tracer replaces, for the length of one traced repeat, the callables
through which chainsim's layers call each other: names that
``chainsim.engine``, ``chainsim.runner`` and ``chainsim.config`` import, the
module attributes they call through (``wl.gen_arrivals``,
``metrics.invocations_csv``), and a few methods of public classes
(``Route.delay``, ``WorkerRuntime.backlog_ops``). Nothing under ``src/`` is
edited, and ``uninstall`` puts every original back.

Each wrapped call is a span in the Dapper sense (Sigelman et al., 2010): a
name, a start, an end and the span that was open when it began. A span's
self time is its duration minus the durations of the spans it directly
encloses. Hot leaf calls are aggregated in memory into count, total and
self time; coarse spans (set-up, scenario build, route build, one engine
run, one runner call) are also kept one by one and written out at the end.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import resource
import time
from pathlib import Path

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20

UNITS = {  # unit of each per-layer metric, in report order
    "config.scenario_builds": "count",
    "config.build_s": "s",
    "topology.route_tables_built": "count",
    "topology.build_routes_s": "s",
    "topology.route_delay_calls": "count",
    "topology.route_delay_s": "s",
    "workload.arrivals": "count",
    "workload.inject_s": "s",
    "dispatch.decisions": "count",
    "dispatch.choose_self_s": "s",
    "dispatch.estimates": "count",
    "dispatch.estimate_self_s": "s",
    "state.accesses": "count",
    "state.access_s": "s",
    "state.migrations": "count",
    "state.bytes_moved": "bytes",
    "engine.backlog_calls": "count",
    "engine.backlog_entries_scanned": "count",
    "engine.backlog_s": "s",
    "engine.events": "count",
    "engine.loop_self_s": "s",
    "engine.host_us_per_event": "us",
    "engine.peak_queue_len": "count",
    "engine.rss_growth_mb": "MB",
    "metrics.rows": "count",
    "metrics.emit_s": "s",
    "runner.write_s": "s",
    "runner.output_bytes": "bytes",
    "python.gc_collections": "count",
}


def rss_mb() -> float:
    """Current resident set of this process (Linux)."""
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class Tracer:
    def __init__(self, trace_id: int, rss_baseline_mb: float):
        """``rss_baseline_mb``: resident set before the process ran any simulation."""
        self.trace_id = trace_id
        self.rss_baseline_mb = rss_baseline_mb
        self.stack: list[list] = [[0.0, 0.0, None]]  # [start, child time, span id]
        self.agg: dict[str, list[float]] = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = collections.defaultdict(float)
        self.spans: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def timed(self, name: str, fn, record: bool = False, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, result)`` runs outside it."""
        clock, stack, agg, spans = time.perf_counter, self.stack, self.agg, self.spans

        def wrapper(*args, **kwargs):
            span_id = None
            if record:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1]
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                parent[1] += dur
                a = agg[name]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
                if record:
                    spans.append({
                        "trace": self.trace_id, "id": span_id, "parent": parent[2],
                        "name": name, "start": frame[0], "end": end,
                        "self": dur - frame[1],
                    })
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one recorded span."""
        return self.timed(name, fn, record=True)(*args)

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, **opts) -> None:
        self.patch(owner, attr, self.timed(name, getattr(owner, attr), **opts))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap chainsim's layer boundaries until ``uninstall``."""
        from chainsim import config, dispatch, engine, metrics, runner, topology, workload

        counters = self.counters

        # config and topology: scenario builds and route tables. runner and
        # config each hold their own binding of scenario_from_raw.
        self.wrap(config, "scenario_from_raw", "config.build", record=True)
        self.wrap(runner, "scenario_from_raw", "config.build", record=True)
        self.wrap(config, "build_routes", "topology.build_routes", record=True)
        self.wrap(topology.Route, "delay", "topology.route_delay")

        # workload: the engine calls these through its ``wl`` module alias.
        def count_arrivals(args, result):
            counters["workload.arrivals"] += len(result)

        self.wrap(workload, "gen_arrivals", "workload.inject", after=count_arrivals)
        for attr in ("draw_payloads", "draw_compute_factors", "substream"):
            self.wrap(workload, attr, "workload.inject")

        # dispatch: decisions by the engine, estimates inside a decision.
        self.wrap(engine, "choose_worker", "dispatch.choose")
        self.wrap(dispatch, "estimate_completion", "dispatch.estimate")

        # state: accesses the engine commits at dispatch.
        def count_access(args, access):
            counters["state.migrations"] += bool(access.migration)
            counters["state.bytes_moved"] += access.bytes_moved

        self.wrap(engine, "remote_state_access", "state.access", after=count_access)

        # engine: backlog scans, events popped, queue lengths, one run.
        def count_scan(args, result):
            wr = args[0]
            counters["engine.backlog_entries_scanned"] += len(wr.queue) + len(wr.busy_until)

        self.wrap(engine.WorkerRuntime, "backlog_ops", "engine.backlog", after=count_scan)
        self.patch(engine, "heapq", _CountingHeapq(engine.heapq, counters))
        self.patch(engine.WorkerRuntime, "__init__", _peak_queue_init(engine.WorkerRuntime.__init__, counters))

        # Freed logs stay in the allocator's heap, so growth is taken from the
        # process peak over the resident set before any run, not per call.
        def rss_growth(args, result):
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            counters["engine.rss_growth_mb"] = max(counters["engine.rss_growth_mb"], peak - self.rss_baseline_mb)

        self.wrap(engine, "run", "engine.run", record=True, after=rss_growth)

        # metrics and runner: emission and file writes.
        def count_rows(args, text):
            counters["metrics.rows"] += text.count("\n") - 1

        for attr in ("invocations_csv", "links_csv", "workers_csv"):
            self.wrap(metrics, attr, "metrics.emit", after=count_rows)
        self.wrap(metrics, "summary_record", "metrics.emit")
        self.patch(runner, "Path", self._traced_path(runner.Path))
        self.wrap(runner, "run_experiment", "runner.run", record=True)
        self.wrap(runner, "run_sweep", "runner.run", record=True)

        gc.callbacks.append(self._on_gc)

    def _traced_path(self, path_type):
        counters = self.counters
        base = type(path_type())

        def count_bytes(args, result):
            counters["runner.output_bytes"] += len(args[1].encode("utf-8"))

        class TracedPath(base):
            write_text = self.timed("runner.write", base.write_text, after=count_bytes)

        return TracedPath

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.counters["python.gc_collections"] += 1

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far; every *_s is self time."""
        agg, c = self.agg, self.counters

        def count(name):
            return agg[name][0] if name in agg else 0

        def self_s(name):
            return agg[name][2] if name in agg else 0.0

        events = c["engine.events"]
        run_total = agg["engine.run"][1] if "engine.run" in agg else 0.0
        layers = {
            "config.scenario_builds": count("config.build"),
            "config.build_s": self_s("config.build"),
            "topology.route_tables_built": count("topology.build_routes"),
            "topology.build_routes_s": self_s("topology.build_routes"),
            "topology.route_delay_calls": count("topology.route_delay"),
            "topology.route_delay_s": self_s("topology.route_delay"),
            "workload.arrivals": c["workload.arrivals"],
            "workload.inject_s": self_s("workload.inject"),
            "dispatch.decisions": count("dispatch.choose"),
            "dispatch.choose_self_s": self_s("dispatch.choose"),
            "dispatch.estimates": count("dispatch.estimate"),
            "dispatch.estimate_self_s": self_s("dispatch.estimate"),
            "state.accesses": count("state.access"),
            "state.access_s": self_s("state.access"),
            "state.migrations": c["state.migrations"],
            "state.bytes_moved": c["state.bytes_moved"],
            "engine.backlog_calls": count("engine.backlog"),
            "engine.backlog_entries_scanned": c["engine.backlog_entries_scanned"],
            "engine.backlog_s": self_s("engine.backlog"),
            "engine.events": events,
            "engine.loop_self_s": self_s("engine.run"),
            "engine.host_us_per_event": run_total / events * 1e6 if events else 0.0,
            "engine.peak_queue_len": c["engine.peak_queue_len"],
            "engine.rss_growth_mb": c["engine.rss_growth_mb"],
            "metrics.rows": c["metrics.rows"],
            "metrics.emit_s": self_s("metrics.emit"),
            "runner.write_s": self_s("runner.write"),
            "runner.output_bytes": c["runner.output_bytes"],
            "python.gc_collections": c["python.gc_collections"],
        }
        return {k: int(v) if UNITS[k] == "count" else v for k, v in layers.items()}


class _CountingHeapq:
    """Stands in for the ``heapq`` module the engine imported; counts pops."""

    def __init__(self, heapq_module, counters):
        self.heappush = heapq_module.heappush
        pop = heapq_module.heappop

        def heappop(heap):
            counters["engine.events"] += 1
            return pop(heap)

        self.heappop = heappop


class _PeakDeque(collections.deque):
    __slots__ = ("counters",)

    def append(self, item) -> None:
        super().append(item)
        if len(self) > self.counters["engine.peak_queue_len"]:
            self.counters["engine.peak_queue_len"] = len(self)


def _peak_queue_init(init, counters):
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        queue = _PeakDeque(self.queue)
        queue.counters = counters
        self.queue = queue

    return __init__


def write_trace(path: Path, spans: list[dict], layers: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"spans": spans, "layers": layers}, indent=1) + "\n", encoding="utf-8")
