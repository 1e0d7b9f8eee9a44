"""State placement modes and the cost of making state available at a node.

Three scenario-wide modes:

* ``embedded``: state travels inside the invocation payload, adding the
  function's state size to the stage hop into its executor and the hop out.
* ``remote_fixed``: state lives at a fixed host worker; every execution at a
  different node pays a fetch plus a write-back (read-modify-write state).
* ``remote_migrate``: state moves to the executing worker and stays there,
  paying a single transfer and changing the registry host.

The registry starts empty; the first dispatch of a stateful function seeds
its host at the chosen worker at zero cost (cold-start placement).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .topology import RouteTable, transfer_delay

if TYPE_CHECKING:
    from .workflow import FunctionSpec


class StateMode(enum.Enum):
    EMBEDDED = "embedded"
    REMOTE_FIXED = "remote_fixed"
    REMOTE_MIGRATE = "remote_migrate"

    @property
    def is_remote(self) -> bool:
        return self is not StateMode.EMBEDDED


@dataclass(frozen=True)
class StateEntry:
    host: int  # worker node id
    state_size: float  # bytes


@dataclass
class StateRegistry:
    """Where each (app, function) state item currently lives.

    Mutable, owned exclusively by one simulation run; never shared across
    replications.
    """

    _entries: dict[tuple[str, str], StateEntry] = field(default_factory=dict)

    def get(self, app_id: str, function_id: str) -> StateEntry | None:
        return self._entries.get((app_id, function_id))

    def seed(self, app_id: str, function_id: str, host: int, state_size: float) -> None:
        """Create the entry for a first dispatch; no-op cost, errors on re-seed."""
        key = (app_id, function_id)
        if key in self._entries:
            raise ValueError(f"state for {key} already placed")
        self._entries[key] = StateEntry(host=host, state_size=state_size)

    def move(self, app_id: str, function_id: str, host: int) -> None:
        """Record a migration: the placed state now lives at ``host``."""
        key = (app_id, function_id)
        self._entries[key] = StateEntry(host=host, state_size=self._entries[key].state_size)


@dataclass(frozen=True)
class StateAccess:
    """Outcome of making one function's state available at its executor."""

    delay: float  # seconds
    bytes_moved: float  # bytes over the network
    migration: bool = False  # the state moves to the executor


ZERO_ACCESS = StateAccess(delay=0.0, bytes_moved=0.0)


def stage_transfer_bytes(
    data_bytes: float,
    producer: "FunctionSpec | None",
    consumer: "FunctionSpec | None",
    mode: StateMode,
) -> float:
    """Wire size of one stage transfer.

    The producer's embedded state rides the hop out of its executor and the
    consumer's rides the hop in; entry and delivery transfers have only one
    function-side endpoint.
    """
    embedded = mode is StateMode.EMBEDDED
    nbytes = data_bytes
    if producer is not None:
        nbytes += producer.state_size if embedded else 0.0
    if consumer is not None:
        nbytes += consumer.state_size if embedded else 0.0
    return nbytes


def remote_state_access(
    mode: StateMode,
    reg: StateRegistry,
    app_id: str,
    f: "FunctionSpec",
    exec_node: int,
    rt: RouteTable,
) -> StateAccess:
    """Cost of making f's state available at ``exec_node``, as decided at dispatch.

    Free in embedded mode, for stateless functions, for state not yet placed
    (the first dispatch places it at the executor) and for co-located
    execution. Otherwise remote_fixed pays fetch plus write-back against the
    host and remote_migrate pays a single transfer to the executor. Pure:
    the caller records a migration with ``StateRegistry.move``.
    """
    host = _priced_host(mode, reg, app_id, f)
    if host is None or host == exec_node:
        return ZERO_ACCESS
    size = f.state_size
    delay = _access_delay(mode, host, exec_node, size, rt)
    if mode is StateMode.REMOTE_FIXED:
        return StateAccess(delay=delay, bytes_moved=2 * size)
    return StateAccess(delay=delay, bytes_moved=size, migration=True)


def state_delays(
    mode: StateMode,
    reg: StateRegistry,
    app_id: str,
    f: "FunctionSpec",
    targets: tuple[int, ...],
    rt: RouteTable,
) -> tuple[float, ...]:
    """``remote_state_access(...).delay`` at each of ``targets``, bit for bit.

    Routes and state sizes are static, so the vector is memoized on ``rt``
    per ``(host, targets, state_size, mode)``.
    """
    host = _priced_host(mode, reg, app_id, f)
    if host is None:
        return (0.0,) * len(targets)
    size = f.state_size
    return rt.memo(
        ("state", host, targets, size, mode),
        lambda: tuple(0.0 if w == host else _access_delay(mode, host, w, size, rt) for w in targets),
    )


def _priced_host(mode: StateMode, reg: StateRegistry, app_id: str, f: "FunctionSpec") -> int | None:
    """Host of f's state when an access away from it has a cost, else None."""
    if not mode.is_remote or f.state_size == 0:
        return None
    entry = reg.get(app_id, f.id)
    return None if entry is None else entry.host


def _access_delay(mode: StateMode, host: int, exec_node: int, size: float, rt: RouteTable) -> float:
    delay = transfer_delay(rt, host, exec_node, size)
    if mode is StateMode.REMOTE_FIXED:
        delay += transfer_delay(rt, exec_node, host, size)
    return delay
