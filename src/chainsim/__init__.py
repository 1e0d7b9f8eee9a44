"""Deterministic simulator and dispatch library for stateful function
chains and DAGs on edge networks."""

from .config import PayloadSpec, Scenario, scenario_from_raw
from .dispatch import DispatchContext, PolicyKind, choose_worker, estimate_completion
from .engine import EngineError, MetricsLog, run
from .metrics import percentile
from .state import StateAccess, StateMode, remote_state_access
from .topology import (
    LinkSpec,
    NodeSpec,
    RouteTable,
    Topology,
    build_routes,
    transfer_delay,
    validate_topology,
)
from .workflow import (
    DagSpec,
    FunctionSpec,
    critical_path_time,
    stage_io,
    validate_dag,
)
from .workload import gen_arrivals

__version__ = "0.1.0"

__all__ = [
    "DagSpec",
    "DispatchContext",
    "EngineError",
    "FunctionSpec",
    "LinkSpec",
    "MetricsLog",
    "NodeSpec",
    "PayloadSpec",
    "PolicyKind",
    "RouteTable",
    "Scenario",
    "StateAccess",
    "StateMode",
    "Topology",
    "build_routes",
    "choose_worker",
    "critical_path_time",
    "estimate_completion",
    "gen_arrivals",
    "percentile",
    "remote_state_access",
    "run",
    "scenario_from_raw",
    "stage_io",
    "transfer_delay",
    "validate_dag",
    "validate_topology",
]
