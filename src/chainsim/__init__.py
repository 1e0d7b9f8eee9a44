"""Deterministic simulator and dispatch library for stateful function
chains and DAGs on edge networks."""

from .config import PayloadSpec, Scenario, scenario_from_raw
from .dispatch import DispatchContext, PolicyKind, RrState, choose_worker, estimate_completion
from .engine import EngineError, MetricsLog, run
from .metrics import percentile
from .state import (
    StateAccess,
    StateMode,
    StateRegistry,
    embedded_payload_overhead,
    remote_state_access,
)
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
    ChainSpec,
    DagSpec,
    FunctionSpec,
    chain_to_dag,
    critical_path_time,
    join_payload,
    stage_io,
    validate_dag,
)
from .workload import gen_arrivals

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
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
    "RrState",
    "Scenario",
    "StateAccess",
    "StateMode",
    "StateRegistry",
    "Topology",
    "build_routes",
    "chain_to_dag",
    "choose_worker",
    "critical_path_time",
    "embedded_payload_overhead",
    "estimate_completion",
    "gen_arrivals",
    "join_payload",
    "percentile",
    "remote_state_access",
    "run",
    "scenario_from_raw",
    "stage_io",
    "transfer_delay",
    "validate_dag",
    "validate_topology",
]
