import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainsim.cli import main
from chainsim.config import load_json, scenario_from_raw, sweep_from_raw

from helpers import chain_scenario_raw, overflowing_event_raw, summary_from_rows

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

VALID = [
    "baseline_single_worker.json",
    "two_worker_chain.json",
    "diamond_dag.json",
    "mm1.json",
    "multi_app.json",
    "edge_mesh.json",
]
INVALID = [
    "invalid_disconnected.json",
    "invalid_cycle.json",
    "invalid_rate.json",
    "invalid_policy.json",
    "invalid_duplicate_node.json",
]


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


class TestValidate:
    @pytest.mark.parametrize("name", VALID)
    def test_valid_configs_exit_zero(self, name, capsys):
        assert main(["validate", str(CONFIGS / name)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("name", INVALID)
    def test_invalid_configs_exit_one(self, name, capsys):
        assert main(["validate", str(CONFIGS / name)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        assert main(["validate", "/nonexistent/nope.json"]) == 1

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(bad)]) == 1

    def test_top_level_array_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot load {bad}: {bad}: top-level JSON value must be an object\n"

    def test_deeply_nested_json_exit_one(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert main(["validate", str(deep)]) == 1
        assert main(["describe", str(deep)]) == 1
        assert main(["run", str(deep), "--out", str(tmp_path / "out")]) == 1
        sweep = write_config(tmp_path, {"base": "deep.json", "field": "policy", "values": ["random"]}, "sweep.json")
        assert main(["sweep", str(sweep), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("JSON nesting is too deep") == 4
        assert "cannot load base config 'deep.json'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cores", [10**30, 4097])
    def test_too_many_cores_exit_one(self, cores, tmp_path, capsys):
        raw = chain_scenario_raw()
        raw["topology"]["nodes"][1]["cores"] = cores
        cfg = write_config(tmp_path, raw)
        assert main(["validate", str(cfg)]) == 1
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.count("worker 1 must have cores <= 4096") == 2
        assert not (tmp_path / "out").exists()

    def test_edge_from_unknown_vertex_is_a_config_error(self, tmp_path, capsys):
        raw = load_json(CONFIGS / "diamond_dag.json")
        raw["workflows"][0]["dag"]["edges"].append(["ghost", "merge"])
        assert main(["validate", str(write_config(tmp_path, raw))]) == 1
        err = capsys.readouterr().err
        assert "error: workflow diamond: edge (ghost,merge) references unknown vertex ghost" in err
        assert "Traceback" not in err

    def test_duplicate_app_id_is_a_config_error(self, tmp_path, capsys):
        raw = load_json(CONFIGS / "multi_app.json")
        first = raw["workflows"][0]["app_id"]
        raw["workflows"][1]["app_id"] = first
        assert main(["validate", str(write_config(tmp_path, raw))]) == 1
        assert f"error: duplicate app_id {first}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "chain, errors",
        [
            ([], ["chain has no functions"]),
            ("f0", ["chain must be a list of function ids"]),
            (["f0", "fx"], ["chain references unknown function fx"]),
            (["f0", "f1", "f0"], ["duplicate function f0 in chain"]),
            (["f0", "f0", "fx"], ["duplicate function f0 in chain", "chain references unknown function fx"]),
        ],
    )
    def test_chain_errors(self, chain, errors, tmp_path, capsys):
        raw = chain_scenario_raw()
        raw["workflows"][0]["chain"] = chain
        assert main(["validate", str(write_config(tmp_path, raw))]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: workflow app: {e}" for e in errors]


def as_dag(raw):
    """The workflow's dag object, after turning its chain into the same DAG."""
    wd = raw["workflows"][0]
    chain = wd.pop("chain")
    wd["dag"] = {"vertices": chain, "edges": [list(e) for e in zip(chain, chain[1:])]}
    return wd["dag"]


BAD_VALUES = {
    "cores string": (lambda raw: raw["topology"]["nodes"][1], "cores", "abc"),
    "cores fraction": (lambda raw: raw["topology"]["nodes"][1], "cores", 1.5),
    "cores bool": (lambda raw: raw["topology"]["nodes"][1], "cores", True),
    "core_speed string": (lambda raw: raw["topology"]["nodes"][1], "core_speed", "fast"),
    "link rate list": (lambda raw: raw["topology"]["links"][0], "rate", [1]),
    "link propagation NaN": (lambda raw: raw["topology"]["links"][0], "propagation", math.nan),
    "link rate huge int": (lambda raw: raw["topology"]["links"][0], "rate", 10**400),
    "fixed_ops string": (lambda raw: raw["workflows"][0]["functions"][0], "fixed_ops", "1000"),
    "state_size Infinity": (lambda raw: raw["workflows"][0]["functions"][0], "state_size", math.inf),
    "entry_payload NaN": (lambda raw: raw["workflows"][0], "entry_payload", math.nan),
    "entry_payload 0": (lambda raw: raw["workflows"][0], "entry_payload", 0),
    "entry_payload -1.5": (lambda raw: raw["workflows"][0], "entry_payload", -1.5),
    "horizon Infinity": (lambda raw: raw["workload"], "horizon", math.inf),
    "arrival rate Infinity": (lambda raw: raw["workload"]["rates"], "app", math.inf),
    "functions number": (lambda raw: raw["workflows"][0], "functions", 5),
    "nodes number": (lambda raw: raw["topology"], "nodes", 5),
    "links null": (lambda raw: raw["topology"], "links", None),
    "dag vertices number": (as_dag, "vertices", 5),
    "dag edges number": (as_dag, "edges", 5),
    "compute_randomization string": (lambda raw: raw["workload"], "compute_randomization", "no"),
    "node id bool": (lambda raw: raw["topology"]["nodes"][1], "id", True),
    "link endpoint bool": (lambda raw: raw["topology"]["links"][0], "endpoint_b", True),
    "client true": (lambda raw: raw["workflows"][0], "client", True),
    "client false": (lambda raw: raw["workflows"][0], "client", False),
    "candidate bool": (lambda raw: raw, "candidates", [True, 2]),
}


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_number_is_a_config_error(case, tmp_path, capsys):
    owner, key, value = BAD_VALUES[case]
    raw = chain_scenario_raw()
    owner(raw)[key] = value
    assert main(["validate", str(write_config(tmp_path, raw))]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def workflow(raw):
    return raw["workflows"][0]


def sweep_doc():
    return {"base": chain_scenario_raw(), "field": "policy", "values": ["random"]}


def first_function(raw):
    return workflow(raw)["functions"][0]


def add_node(raw, node):
    """Append ``node`` to the topology, linked to worker 1 so the graph stays connected."""
    raw["topology"]["nodes"].append(node)
    raw["topology"]["links"].append({"endpoint_a": node["id"], "endpoint_b": 1, "propagation": 0.001, "rate": 1e7})


# Each message the config and sweep readers can give: the document, its edit
# and every error line it prints.
CONFIG_MESSAGES = {
    "topology not an object": (
        chain_scenario_raw,
        lambda raw: raw.update(topology=[]),
        ["topology must be an object with nodes and links", "workflow app: client must be the id of a client node"],
    ),
    "workflow entry not an object": (
        chain_scenario_raw,
        lambda raw: raw.update(workflows=[5]),
        ["workflow entries must be objects"],
    ),
    "empty app_id": (
        chain_scenario_raw,
        lambda raw: workflow(raw).update(app_id=""),
        ["workflow needs a non-empty app_id string"],
    ),
    "function without string id": (
        chain_scenario_raw,
        lambda raw: workflow(raw)["functions"].append({"id": 5}),
        ["workflow app: each function needs a string id"],
    ),
    "duplicate function id": (
        chain_scenario_raw,
        lambda raw: workflow(raw)["functions"].append(dict(workflow(raw)["functions"][0])),
        ["workflow app: duplicate function id f0"],
    ),
    "chain and dag": (
        chain_scenario_raw,
        lambda raw: workflow(raw).update(dag={"vertices": ["f0"], "edges": []}),
        ["workflow app: exactly one of 'chain' or 'dag' is required"],
    ),
    "dag not an object": (
        chain_scenario_raw,
        lambda raw: workflow(raw).update(dag=5, chain=None) or workflow(raw).pop("chain"),
        ["workflow app: dag must be an object with vertices and edges"],
    ),
    "dag edge not a pair": (
        chain_scenario_raw,
        lambda raw: as_dag(raw).update(edges=[["f0", "f1", "f0"]]),
        ["workflow app: dag edges must be [producer, consumer] pairs"],
    ),
    "negative fixed_ops": (
        chain_scenario_raw,
        lambda raw: first_function(raw).update(fixed_ops=-0.25),  # ops_per_byte 0.5 keeps the sum positive
        ["workflow app: function f0 fixed_ops must be >= 0"],
    ),
    "negative ops_per_byte": (
        chain_scenario_raw,
        lambda raw: first_function(raw).update(ops_per_byte=-0.5),
        ["workflow app: function f0 ops_per_byte must be >= 0"],
    ),
    "function without work": (
        chain_scenario_raw,
        lambda raw: first_function(raw).update(fixed_ops=0.0, ops_per_byte=0.0),
        ["workflow app: function f0 must perform work (fixed_ops + ops_per_byte > 0)"],
    ),
    "negative output_ratio": (
        chain_scenario_raw,
        lambda raw: first_function(raw).update(output_ratio=-1.0),
        ["workflow app: function f0 output_ratio must be >= 0"],
    ),
    "negative state_size": (
        chain_scenario_raw,
        lambda raw: first_function(raw).update(state_size=-1.0),
        ["workflow app: function f0 state_size must be >= 0"],
    ),
    "entry_payload NaN": (
        chain_scenario_raw,
        lambda raw: workflow(raw).update(entry_payload=math.nan),
        ["workflow app: entry_payload must be a number > 0"],
    ),
    "entry_payload 0": (
        chain_scenario_raw,
        lambda raw: workflow(raw).update(entry_payload=0),
        ["workflow app: entry_payload must be a number > 0"],
    ),
    "entry_payload -1.5": (
        chain_scenario_raw,
        lambda raw: workflow(raw).update(entry_payload=-1.5),
        ["workflow app: entry_payload must be a number > 0"],
    ),
    "negative node id": (
        chain_scenario_raw,
        lambda raw: add_node(raw, {"id": -3, "role": "client"}),
        ["node id -3 must be non-negative"],
    ),
    "unknown node role": (
        chain_scenario_raw,
        lambda raw: add_node(raw, {"id": 3, "role": "gateway"}),
        ["node 3 has unknown role 'gateway'"],
    ),
    "uniform payload lo > hi": (
        chain_scenario_raw,
        lambda raw: raw["workload"].update(payload={"kind": "uniform", "lo": 5.0, "hi": 1.0}),
        ["workload.payload uniform requires 0 <= lo <= hi"],
    ),
    "exponential payload mean 0": (
        chain_scenario_raw,
        lambda raw: raw["workload"].update(payload={"kind": "exponential", "mean": 0}),
        ["workload.payload exponential requires mean > 0"],
    ),
    "rates missing app": (
        chain_scenario_raw,
        lambda raw: raw["workload"].update(rates={}),
        ["workload.rates missing app app"],
    ),
    "negative seed": (
        chain_scenario_raw,
        lambda raw: raw.update(seed=-1),
        ["seed must be an unsigned 64-bit integer"],
    ),
    "zero replications": (
        chain_scenario_raw,
        lambda raw: raw.update(replications=0),
        ["replications must be a positive integer"],
    ),
    "sweep base a number": (
        sweep_doc,
        lambda doc: doc.update(base=5),
        ["sweep.base must be a config object or a path to one"],
    ),
    "sweep malformed link_rate": (
        sweep_doc,
        lambda doc: doc.update(field="link_rate:a-b"),
        ["malformed link_rate field 'link_rate:a-b'"],
    ),
    "sweep unknown field": (
        sweep_doc,
        lambda doc: doc.update(field="horizon"),
        ["sweep.field must be one of ['arrival_rate', 'policy', 'state_mode'] or link_rate:<a>-<b>"],
    ),
    "sweep empty values": (
        sweep_doc,
        lambda doc: doc.update(values=[]),
        ["sweep.values must be a non-empty list"],
    ),
}


@pytest.mark.parametrize("case", list(CONFIG_MESSAGES))
def test_config_message(case, tmp_path, capsys):
    make, edit, errors = CONFIG_MESSAGES[case]
    doc = make()
    edit(doc)
    path = write_config(tmp_path, doc)
    if make is sweep_doc:
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 1
    else:
        assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {e}" for e in errors]
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_duplicate_candidates_are_a_config_error(tmp_path, capsys):
    raw = chain_scenario_raw()
    raw["candidates"] = [2, 2, 1]
    assert main(["validate", str(write_config(tmp_path, raw))]) == 1
    assert capsys.readouterr().err == "error: candidates must be distinct worker ids\n"


def test_workflow_without_client_gets_the_lowest_id_client():
    raw = chain_scenario_raw()
    add_node(raw, {"id": 5, "role": "client"})
    nodes = raw["topology"]["nodes"]
    nodes.insert(0, nodes.pop())  # client 5 is listed before client 0
    del workflow(raw)["client"]
    sc, errs = scenario_from_raw(raw)
    assert errs == []
    assert sc.apps["app"].client == 0


class TestRun:
    def test_writes_expected_files(self, tmp_path):
        cfg = write_config(tmp_path, chain_scenario_raw(rate=20.0, horizon=2.0, replications=2))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        for r in range(2):
            rep = out / f"rep_{r:03d}"
            assert (rep / "invocations.csv").is_file()
            assert (rep / "links.csv").is_file()
            assert (rep / "workers.csv").is_file()
        doc = json.loads((out / "summary.json").read_text())
        assert len(doc["records"]) == 2
        assert doc["records"][0]["seed"] + 1 == doc["records"][1]["seed"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, chain_scenario_raw(rate=20.0, horizon=2.0))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        for name in ("invocations.csv", "links.csv", "workers.csv"):
            assert (out1 / "rep_000" / name).read_bytes() == (out2 / "rep_000" / name).read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    @pytest.mark.parametrize("name", VALID)
    def test_a_function_outside_the_workflow_never_runs(self, name, tmp_path, capsys):
        # A listed function that is no stage of its workflow passes validation,
        # runs under every state mode and changes no output byte.
        raw = load_json(CONFIGS / name)
        raw["workload"]["horizon"] = 5.0
        raw["replications"] = 1
        extra = json.loads(json.dumps(raw))
        for wd in extra["workflows"]:
            wd["functions"].append({"id": "zz_unused", "fixed_ops": 1.0, "state_size": 5})
        assert main(["validate", str(write_config(tmp_path, extra, "extra.json"))]) == 0
        assert main(["describe", str(tmp_path / "extra.json")]) == 0
        assert "    zz_unused: fixed_ops=1.0" in capsys.readouterr().out
        for mode in ("embedded", "remote_fixed", "remote_migrate"):
            for policy in ("min_latency_estimate", "round_robin"):
                trees = []
                for doc, label in ((raw, "plain"), (extra, "extra")):
                    doc.update(state_mode=mode, policy=policy)
                    out = tmp_path / f"{label}-{mode}-{policy}"
                    assert main(["run", str(write_config(tmp_path, doc, f"{label}.json")), "--out", str(out)]) == 0
                    trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
                assert trees[0] == trees[1] and len(trees[0]) == 4

    def test_unwritable_out_dir_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, chain_scenario_raw())
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory must go", encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(blocker / "sub")]) == 2

    def test_queued_ops_beyond_the_float_range_exit_two(self, tmp_path, capsys):
        raw = load_json(CONFIGS / "baseline_single_worker.json")
        raw["workflows"][0]["functions"][0]["fixed_ops"] = 1e308
        raw["workload"]["horizon"] = 20
        cfg = write_config(tmp_path, raw)
        assert main(["validate", str(cfg)]) == 0
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "runtime error: queued ops on worker 1 exceed the float range\n"
        assert "Traceback" not in err

    def test_non_finite_total_exit_two(self, tmp_path, capsys):
        # 1e308 bytes of embedded state ride every hop: the link and summary totals overflow
        raw = load_json(CONFIGS / "two_worker_chain.json")
        raw["workload"]["horizon"] = 2
        raw["state_mode"] = "embedded"
        raw["workflows"][0]["functions"][0]["state_size"] = 1e308
        cfg = write_config(tmp_path, raw)
        assert main(["validate", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "runtime error: non-finite total_state_bytes at point 0, replication 0\n"
        written = [path.read_text(encoding="utf-8") for path in out.rglob("*") if path.is_file()]
        assert not any("inf" in text or "Infinity" in text for text in written)

    @pytest.mark.parametrize(
        "fixed_ops, edit, message",
        [
            (1e308, lambda raw: raw["workload"].update(compute_randomization=True),
             "non-finite compute demand for f1"),
            (1e10, lambda raw: raw["topology"]["nodes"][1].update(core_speed=1e-300),
             "non-finite service time on worker 1"),
        ],
    )
    def test_non_finite_stage_exit_two(self, fixed_ops, edit, message, tmp_path, capsys):
        raw = load_json(CONFIGS / "baseline_single_worker.json")
        raw["workflows"][0]["functions"][0]["fixed_ops"] = fixed_ops
        raw["workload"]["horizon"] = 20
        edit(raw)
        cfg = write_config(tmp_path, raw)
        assert main(["validate", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"runtime error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", [2, 3, 4])  # EXEC_START, EXEC_DONE, DELIVERED
    def test_overflowed_event_time_exit_two(self, kind, tmp_path, capsys):
        cfg = write_config(tmp_path, overflowing_event_raw(kind))
        assert main(["validate", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"runtime error: non-finite event time inf for kind {kind}\n"
        assert "Traceback" not in err
        assert not out.exists()

    def test_nothing_completes_exit_zero(self, tmp_path):
        # no arrival falls in [0, 1e-9): every latency statistic is null and every plot cell empty
        cfg = write_config(tmp_path, chain_scenario_raw(horizon=1e-9))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--emit-plotdata"]) == 0
        (record,) = json.loads((out / "summary.json").read_text())["records"]
        assert (record["injected"], record["completed"], record["throughput_per_s"]) == (0, 0, 0.0)
        for key in ("mean_latency_s", "p50_latency_s", "p95_latency_s", "p99_latency_s"):
            assert record[key] is None
        assert (out / "plotdata.csv").read_text().splitlines() == [
            "point,swept_value,seed,mean_latency_s,p50_latency_s,p95_latency_s,p99_latency_s",
            "0,,1,,,,",
        ]
        assert (out / "rep_000" / "invocations.csv").read_text().splitlines() == [
            "inv_id,app,arrival_s,completion_s,latency_s,stages,state_bytes,migrations",
        ]

    def test_bad_config_exit_one(self, tmp_path):
        raw = chain_scenario_raw()
        raw["policy"] = "bogus"
        cfg = write_config(tmp_path, raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1

    def test_seed_env_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, chain_scenario_raw(rate=20.0, horizon=2.0))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        monkeypatch.setenv("CHAINSIM_SEED", "987654")
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "rep_000" / "invocations.csv").read_text() != (
            out2 / "rep_000" / "invocations.csv"
        ).read_text()
        doc = json.loads((out2 / "summary.json").read_text())
        assert doc["records"][0]["seed"] == 987654

    def test_bad_seed_env_exit_one(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, chain_scenario_raw())
        monkeypatch.setenv("CHAINSIM_SEED", "not-a-number")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1


class TestSweep:
    def test_bundled_sweep_emits_six_records(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", str(CONFIGS / "sweep_rates.json"), "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert len(doc["records"]) == 6
        keys = {(r["point"], r["seed"]) for r in doc["records"]}
        assert len(keys) == 6  # keyed by (point, seed)
        for p in range(3):
            for r in range(2):
                assert (out / f"point_{p:03d}" / f"rep_{r:03d}" / "invocations.csv").is_file()

    def test_emit_plotdata(self, tmp_path):
        out = tmp_path / "sw"
        assert main(
            ["sweep", str(CONFIGS / "sweep_rates.json"), "--out", str(out), "--emit-plotdata"]
        ) == 0
        lines = (out / "plotdata.csv").read_text().strip().splitlines()
        assert lines[0].startswith("point,swept_value,seed,mean_latency_s")
        assert len(lines) == 7

    def test_state_mode_sweep(self, tmp_path):
        sweep = {
            "base": chain_scenario_raw(rate=10.0, horizon=2.0, state_size=1000.0),
            "field": "state_mode",
            "values": ["embedded", "remote_fixed", "remote_migrate"],
        }
        path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert [r["swept_value"] for r in doc["records"]] == [
            "embedded", "remote_fixed", "remote_migrate",
        ]

    def test_failed_point_writes_nothing(self, tmp_path, capsys):
        # point 0 (remote_migrate) passes; point 1 (embedded) overflows its state total
        base = load_json(CONFIGS / "two_worker_chain.json")
        base["workload"]["horizon"] = 2
        base["workflows"][0]["functions"][0]["state_size"] = 1e308
        sweep = {"base": base, "field": "state_mode", "values": ["remote_migrate", "embedded"]}
        path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "runtime error: non-finite total_state_bytes at point 1, replication 0\n"
        assert list(out.glob("point_*")) == []
        assert not (out / "summary.json").exists()

    def test_link_rate_sweep(self, tmp_path):
        sweep = {
            "base": chain_scenario_raw(rate=10.0, horizon=2.0),
            "field": "link_rate:0-1",
            "values": [1e6, 1e8],
        }
        path = write_config(tmp_path, sweep, "sweep.json")
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_unresolvable_field_exit_one(self, tmp_path):
        sweep = {
            "base": chain_scenario_raw(),
            "field": "link_rate:5-6",
            "values": [1e6],
        }
        path = write_config(tmp_path, sweep, "sweep.json")
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize(
        "field, owner, key, value",
        [
            ("link_rate:0-1", lambda raw: raw["topology"], "links", None),
            ("link_rate:0-1", lambda raw: raw["topology"]["links"], 0, 5),
            ("arrival_rate", lambda raw: raw, "workload", [1]),
            ("arrival_rate", lambda raw: raw["workload"], "rates", [1]),
        ],
    )
    def test_bad_base_shape_exit_one(self, field, owner, key, value, tmp_path, capsys):
        base = chain_scenario_raw()
        owner(base)[key] = value
        path = write_config(tmp_path, {"base": base, "field": field, "values": [1e6]}, "sweep.json")
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["arrival_rate", "policy", "link_rate:0-1"])
    def test_leaves_the_callers_base_unchanged(self, field):
        base = chain_scenario_raw()
        value = "random" if field == "policy" else 2e6
        _, errs = sweep_from_raw({"base": base, "field": field, "values": [value]})
        assert errs == []
        assert base == chain_scenario_raw()

    def test_deeply_nested_base_field(self, tmp_path, capsys):
        base = load_json(CONFIGS / "two_worker_chain.json")
        for _ in range(700):
            base["deep"] = [base.get("deep", [])]
        path = write_config(tmp_path, {"base": base, "field": "policy", "values": ["random"]}, "sweep.json")
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_invalid_sweep_value_exit_one(self, tmp_path):
        sweep = {
            "base": chain_scenario_raw(),
            "field": "policy",
            "values": ["random", "bogus"],
        }
        path = write_config(tmp_path, sweep, "sweep.json")
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_each_point_builds_its_routes_once(self, tmp_path, monkeypatch):
        import chainsim.config

        built = []
        build_routes = chainsim.config.build_routes

        def counting(topo):
            built.append(topo)
            return build_routes(topo)

        monkeypatch.setattr(chainsim.config, "build_routes", counting)
        sweep = {"base": chain_scenario_raw(horizon=1.0), "field": "arrival_rate", "values": [2.0, 4.0, 6.0]}
        path = write_config(tmp_path, sweep, "sweep.json")
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(built) == len(sweep["values"])

    def test_seed_env_override(self, tmp_path, monkeypatch):
        sweep = {
            "base": chain_scenario_raw(horizon=1.0, replications=2),
            "field": "arrival_rate",
            "values": [2.0, 4.0],
        }
        path = write_config(tmp_path, sweep, "sweep.json")
        monkeypatch.setenv("CHAINSIM_SEED", "4242")
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [(r["point"], r["seed"]) for r in doc["records"]] == [
            (0, 4242), (0, 4243), (1, 4242), (1, 4243),
        ]

    @pytest.mark.parametrize("value", ["not-a-number", "-1", str(2**64)])
    def test_bad_seed_env_exit_one(self, value, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, {"base": chain_scenario_raw(), "field": "arrival_rate", "values": [2.0]})
        monkeypatch.setenv("CHAINSIM_SEED", value)
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_baseline_sweep_script(self, tmp_path):
        # no PYTHONPATH: the script finds chainsim in a plain checkout by itself
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "baseline_sweep.py"), "--replications", "1", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads((out / "summary.json").read_text())["records"]) == 3


class TestDescribe:
    def test_prints_routes_and_workflows(self, capsys):
        assert main(["describe", str(CONFIGS / "diamond_dag.json")]) == 0
        out = capsys.readouterr().out
        assert "routes:" in out
        assert "0 -> 1" in out
        assert "diamond" in out
        assert "edge split -> left" in out

    def test_invalid_config_exit_one(self):
        assert main(["describe", str(CONFIGS / "invalid_cycle.json")]) == 1


class TestConsoleScript:
    def test_installed_entry_point(self):
        # The console script runs cli.entrypoint, as `python -m chainsim` does;
        # this runs it without installing the package.
        pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert 'chainsim = "chainsim.cli:entrypoint"' in scripts.splitlines()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "chainsim", "validate", str(CONFIGS / "baseline_single_worker.json")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout


def summary_mismatches(out: Path, horizons: dict[int, float]) -> tuple[list, int]:
    """Every (point, replication, key) whose summary.json value is not exactly the fold of its rows.

    ``horizons`` maps each point to its horizon; also returns the number of records.
    """
    records = json.loads((out / "summary.json").read_text())["records"]
    bad = []
    for record in records:
        p, r = record["point"], record["replication"]
        point_dir = out if record["swept_field"] is None else out / f"point_{p:03d}"
        with open(point_dir / f"rep_{r:03d}" / "invocations.csv", newline="") as fh:
            recomputed = summary_from_rows(csv.DictReader(fh), horizon=horizons[p])
        bad += [(p, r, key) for key, value in recomputed.items() if record[key] != value]
    return bad, len(records)


class TestSummaryRecompute:
    """summary.json totals and latency statistics are exactly the fold of invocations.csv."""

    def test_offline_recompute_matches(self, tmp_path, monkeypatch):
        from chainsim import metrics

        derived = []
        invocation_rows = metrics.invocation_rows

        def counting(log):
            derived.append(log)
            return invocation_rows(log)

        monkeypatch.setattr(metrics, "invocation_rows", counting)
        cfg_raw = chain_scenario_raw(rate=30.0, horizon=3.0, replications=2, state_size=2000.0,
                                     policy="round_robin", state_mode="remote_migrate")
        cfg = write_config(tmp_path, cfg_raw)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert len(derived) == 2  # one row derivation per replication
        assert summary_mismatches(out, {0: cfg_raw["workload"]["horizon"]}) == ([], 2)

    @pytest.mark.parametrize("name", [*VALID, "sweep_rates.json"])
    def test_bundled_summaries_are_row_folds(self, name, tmp_path):
        path = CONFIGS / name
        out = tmp_path / "out"
        if name == "sweep_rates.json":
            sweep, errs = sweep_from_raw(load_json(path), base_dir=CONFIGS)
            assert not errs and main(["sweep", str(path), "--out", str(out)]) == 0
            scenarios = sweep.scenarios
        else:
            scenario, errs = scenario_from_raw(load_json(path))
            assert not errs and main(["run", str(path), "--out", str(out)]) == 0
            scenarios = [scenario]
        bad, n_records = summary_mismatches(out, {p: sc.horizon for p, sc in enumerate(scenarios)})
        assert bad == []
        assert n_records == sum(sc.replications for sc in scenarios)


class TestQueueingMonotonicity:
    def test_mean_latency_nondecreasing_in_rate(self, tmp_path):
        # bundled single-worker baseline, 3 rates x 10 seeds, pooled means
        base = load_json(CONFIGS / "baseline_single_worker.json")
        base["replications"] = 10
        base["workload"]["horizon"] = 60.0
        sweep_doc = {"base": base, "field": "arrival_rate", "values": [2.0, 5.0, 8.0]}
        sweep, errs = sweep_from_raw(sweep_doc)
        assert not errs
        from chainsim.runner import run_sweep

        results = run_sweep(sweep, tmp_path / "out")
        means = []
        for p in range(3):
            lats = []
            for res in results:
                if res.point == p:
                    lats.extend(i.latency for i in res.log.invocations if i.latency is not None)
            means.append(sum(lats) / len(lats))
        assert means[0] <= means[1] <= means[2]
