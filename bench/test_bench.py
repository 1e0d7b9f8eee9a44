"""Each output check passes a clean log and rejects a deliberately corrupted one.

The file checks likewise pass the files the runner wrote and reject each
file corrupted on disk.

Logs come from short runs (about one simulated second) of the benchmark's
own chain and DAG scenarios. The tracer is also run here: it must leave
output files unchanged and put every wrapped name back.
"""

from __future__ import annotations

import copy
import json
import math
import shutil

import pytest

import checks
import workloads
from chainsim import config, engine, runner
from common import hash_tree
from tracer import Tracer, rss_mb


def _short(doc: dict, horizon: float) -> dict:
    doc = copy.deepcopy(doc)
    doc["workload"]["horizon"] = horizon
    return doc


DOCS = {
    "chain": _short(workloads.chain32_mle_migrate(5), 0.5),
    "dag": _short(
        workloads.point_docs(
            workloads.WORKLOADS["dag-sweep-rr-embedded"], workloads.dag_sweep_rr_embedded(5)
        )[2],
        1.0,
    ),
}


@pytest.fixture(scope="module", params=sorted(DOCS))
def clean(request):
    doc = DOCS[request.param]
    scenario, errs = config.scenario_from_raw(doc)
    assert scenario is not None, errs
    return checks.Model(doc), engine.run(scenario)


@pytest.fixture
def run(clean):
    model, log = clean
    return model, copy.deepcopy(log)


def test_clean_log_passes(clean):
    model, log = clean
    rep = checks.check_log(model, log)
    assert rep.invocations == log.injected > 100
    assert rep.failed == 0
    assert rep.violations == []


def test_missing_stage_fails_the_invocation(run):
    model, log = run
    inv = log.invocations[10]
    del inv.stages[sorted(inv.stages)[0]]
    assert checks.check_log(model, log).failed == 1


def test_unfinished_invocation_fails(run):
    model, log = run
    log.invocations[3].completion = None
    assert checks.check_log(model, log).failed == 1


def test_completed_count_must_match(run):
    model, log = run
    log.completed -= 1
    rep = checks.check_log(model, log)
    assert any(v.startswith("drain") for v in rep.violations)


def test_busy_seconds_must_match_the_stages(run):
    model, log = run
    w = next(w for w, busy in log.worker_busy.items() if busy > 0)
    log.worker_busy[w] *= 1.000001
    rep = checks.check_log(model, log)
    assert [v for v in rep.violations if v.startswith("work conservation")] != []


def test_stage_moved_to_another_worker_breaks_conservation(run):
    model, log = run
    rec = next(iter(log.invocations[5].stages.values()))
    rec.worker = next(w for w in sorted(model.speed) if w != rec.worker)
    rep = checks.check_log(model, log)
    assert any(v.startswith("work conservation") for v in rep.violations)


def test_latency_below_the_zero_load_floor_fails(run):
    model, log = run
    inv = log.invocations[7]
    # The client is at least two links from any worker, so 1 us is too fast.
    inv.completion = inv.arrival + 1e-6
    assert checks.check_log(model, log).failed == 1


def test_arrival_count_far_from_the_rate_fails(run):
    model, log = run
    n = len(log.invocations)
    keep = n - math.ceil(6 * math.sqrt(n))
    del log.invocations[keep:]
    log.injected = log.completed = keep
    rep = checks.check_log(model, log)
    assert any(v.startswith("poisson") for v in rep.violations)


def test_identical_outputs_pass_and_different_ones_fail():
    ref = {"a.csv": "00", "b.csv": "11"}
    assert checks.check_identical(ref, dict(ref), "x") == []
    assert checks.check_identical(ref, {"a.csv": "00", "b.csv": "12"}, "x") != []
    assert checks.check_identical(ref, {"a.csv": "00"}, "x") != []


SWEEP_WL = workloads.WORKLOADS["dag-sweep-rr-embedded"]
SWEEP_DOC = workloads.dag_sweep_rr_embedded(5)
SWEEP_DOC["base"]["workload"]["horizon"] = 0.5


@pytest.fixture(scope="module", params=["chain", "sweep"])
def written(request, tmp_path_factory):
    """A clean output tree, with what check_files needs to check it."""
    out = tmp_path_factory.mktemp(request.param)
    if request.param == "chain":
        doc = DOCS["chain"]
        scenario, _ = config.scenario_from_raw(doc)
        results = runner.run_experiment(scenario, out)
        return out, [checks.Model(doc)], results, doc["seed"], None
    spec, _ = config.sweep_from_raw(SWEEP_DOC)
    results = runner.run_sweep(spec, out)
    models = [checks.Model(d) for d in workloads.point_docs(SWEEP_WL, SWEEP_DOC)]
    return out, models, results, SWEEP_DOC["base"]["seed"], (SWEEP_DOC["field"], SWEEP_DOC["values"])


@pytest.fixture
def files(written, tmp_path):
    """A copy of the clean tree to corrupt, and a function that checks it."""
    out, models, results, seed, sweep = written
    copy_dir = tmp_path / "out"
    shutil.copytree(out, copy_dir)
    return copy_dir, lambda: checks.check_files(copy_dir, models, results, seed, sweep)


def _rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_written_files_pass(files):
    _, check = files
    assert check() == []


def test_dropped_invocation_row_fails(files):
    out, check = files
    path = next(out.rglob("invocations.csv"))
    _rewrite(path, lambda lines: lines[:5] + lines[6:])
    assert any("data rows" in v for v in check())


def test_changed_latency_fails(files):
    out, check = files
    path = next(out.rglob("invocations.csv"))

    def edit(lines):
        cells = lines[3].split(",")
        cells[4] = repr(float(cells[4]) * 1.001)
        lines[3] = ",".join(cells)
        return lines

    _rewrite(path, edit)
    assert any("disagree" in v for v in check())


def test_dropped_column_fails(files):
    out, check = files
    path = next(out.rglob("invocations.csv"))
    _rewrite(path, lambda lines: [line.rsplit(",", 1)[0] + "\n" for line in lines])
    assert any("header" in v for v in check())


def test_changed_busy_seconds_fail(files):
    out, check = files
    path = next(out.rglob("workers.csv"))

    def edit(lines):
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 0.5)
        lines[1] = ",".join(cells)
        return lines

    _rewrite(path, edit)
    assert any("workers.csv" in v for v in check())


def test_summary_count_must_match_the_log(files):
    out, check = files
    path = out / "summary.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["records"][-1]["injected"] -= 1
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    assert any("summary.json record" in v for v in check())


def test_missing_file_fails(files):
    out, check = files
    next(out.rglob("links.csv")).unlink()
    assert any("output tree" in v for v in check())


def test_tracing_keeps_outputs_and_restores_names(tmp_path):
    scenario, _ = config.scenario_from_raw(DOCS["dag"])
    originals = (engine.run, engine.choose_worker, runner.Path, engine.WorkerRuntime.backlog_ops)
    runner.run_experiment(scenario, tmp_path / "plain")
    tracer = Tracer(0, rss_mb())
    tracer.install()
    try:
        runner.run_experiment(scenario, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert hash_tree(tmp_path / "plain") == hash_tree(tmp_path / "traced")
    assert (engine.run, engine.choose_worker, runner.Path, engine.WorkerRuntime.backlog_ops) == originals
    layers = tracer.layer_metrics()
    assert layers["dispatch.decisions"] == 5 * layers["workload.arrivals"] > 0
    assert layers["engine.events"] == 17 * layers["workload.arrivals"]
    assert layers["dispatch.estimates"] == 0
    assert layers["runner.output_bytes"] > 0
