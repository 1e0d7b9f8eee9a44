"""Command-line experiment harness.

Subcommands: ``validate <config>``, ``run <config> --out <dir>``,
``sweep <sweepfile> --out <dir>``, ``describe <config>``. Exit codes:
0 ok, 1 config error, 2 runtime error. The ``CHAINSIM_SEED`` environment
variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import runner
from .config import MAX_SEED, SweepSpec, load_json, scenario_from_raw, sweep_from_raw
from .engine import EngineError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _load(path: str, build) -> tuple:
    """Load a document, build it with ``build`` and apply ``CHAINSIM_SEED``.

    Returns (scenario or sweep, []) or (None, violations).
    """
    try:
        raw = load_json(path)
    except (OSError, ValueError) as exc:
        return None, [f"cannot load {path}: {exc}"]
    built, errs = build(raw)
    value = os.environ.get("CHAINSIM_SEED")
    if built is None or value is None:
        return built, errs
    try:
        seed = int(value)
    except ValueError:
        return None, [f"CHAINSIM_SEED must be an integer, got {value!r}"]
    if not 0 <= seed <= MAX_SEED:
        return None, ["seed must be an unsigned 64-bit integer"]
    if isinstance(built, SweepSpec):
        scenarios = [dataclasses.replace(sc, seed=seed) for sc in built.scenarios]
        return dataclasses.replace(built, scenarios=scenarios), []
    return dataclasses.replace(built, seed=seed), []


def _config_error(errs: list[str]) -> int:
    for e in errs:
        print(f"error: {e}", file=sys.stderr)
    return EXIT_CONFIG


def _write(run, spec, args: argparse.Namespace, what: str) -> int:
    try:
        results = run(spec, args.out, emit_plotdata=args.emit_plotdata)
    except (OSError, EngineError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(results)} {what} to {args.out}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario, errs = _load(args.config, scenario_from_raw)
    if scenario is None:
        return _config_error(errs)
    print("OK")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    scenario, errs = _load(args.config, scenario_from_raw)
    if scenario is None:
        return _config_error(errs)
    return _write(runner.run_experiment, scenario, args, "replication(s)")


def _cmd_sweep(args: argparse.Namespace) -> int:
    base_dir = Path(args.sweepfile).resolve().parent
    sweep, errs = _load(args.sweepfile, lambda raw: sweep_from_raw(raw, base_dir=base_dir))
    if sweep is None:
        return _config_error(errs)
    return _write(runner.run_sweep, sweep, args, "point-replication(s)")


def _cmd_describe(args: argparse.Namespace) -> int:
    scenario, errs = _load(args.config, scenario_from_raw)
    if scenario is None:
        return _config_error(errs)
    topo = scenario.topology
    print(f"nodes: {len(topo.nodes)} ({len(topo.clients())} clients, {len(topo.workers())} workers)")
    print(f"links: {len(topo.links)}")
    print("routes:")
    for src, dst in scenario.routes.pairs():
        if src == dst:
            continue
        route = scenario.routes.route(src, dst)
        prop = 0.0
        for link_prop, _rate in route.hops:
            prop += link_prop
        print(
            f"  {src} -> {dst}: path={list(route.path)} prop={prop!r}"
            f" bottleneck={min(rate for _prop, rate in route.hops)!r} hops={len(route.hops)}"
        )
    print("workflows:")
    for app_id in sorted(scenario.apps):
        app = scenario.apps[app_id]
        dag = app.dag
        kind = "chain" if len(dag.edges) == len(dag.vertices) - 1 and all(
            len(ps) <= 1 for ps in dag.preds.values()
        ) else "dag"
        print(
            f"  {app_id}: {kind} with {len(dag.vertices)} function(s),"
            f" source={dag.source} sink={dag.sink}"
            f" client={app.client} entry_payload={dag.entry_payload!r}"
        )
        for fid in sorted(app.functions):
            f = app.functions[fid]
            print(
                f"    {fid}: fixed_ops={f.fixed_ops!r} ops_per_byte={f.ops_per_byte!r}"
                f" output_ratio={f.output_ratio!r} state_size={f.state_size!r}"
            )
        for p, q in sorted(dag.edges):
            print(f"    edge {p} -> {q}")
    print(
        f"policy={scenario.policy.value} state_mode={scenario.state_mode.value}"
        f" seed={scenario.seed} replications={scenario.replications}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsim",
        description="Deterministic simulator for stateful function chains and DAGs on edge networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario config; exit 0 iff valid")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run all replications of one scenario")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--emit-plotdata", action="store_true", help="also write plotdata.csv")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a sweep over one scenario field")
    p.add_argument("sweepfile")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--emit-plotdata", action="store_true", help="also write plotdata.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("describe", help="print route table and workflow summaries")
    p.add_argument("config")
    p.set_defaults(func=_cmd_describe)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
