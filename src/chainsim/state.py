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


@dataclass
class StateRegistry:
    """The worker node id that holds each (app, function) state item.

    Mutable, owned exclusively by one simulation run; never shared across
    replications. State sizes live on the ``FunctionSpec``.
    """

    _hosts: dict[tuple[str, str], int] = field(default_factory=dict)

    def get(self, app_id: str, function_id: str) -> int | None:
        return self._hosts.get((app_id, function_id))

    def seed(self, app_id: str, function_id: str, host: int) -> None:
        """Place the state for a first dispatch; no-op cost, errors on re-seed."""
        key = (app_id, function_id)
        if key in self._hosts:
            raise ValueError(f"state for {key} already placed")
        self._hosts[key] = host

    def move(self, app_id: str, function_id: str, host: int) -> None:
        """Record a migration: the placed state now lives at ``host``."""
        key = (app_id, function_id)
        if key not in self._hosts:
            raise KeyError(f"state for {key} was never placed")
        self._hosts[key] = host


@dataclass(frozen=True)
class StateAccess:
    """Outcome of making one function's state available at its executor."""

    delay: float  # seconds
    bytes_moved: float  # bytes over the network: len(legs) x state size
    migration: bool = False  # the state moves to the executor
    legs: tuple[tuple[int, int], ...] = ()  # (src, dst) of each network crossing, in order


ZERO_ACCESS = StateAccess(delay=0.0, bytes_moved=0.0)


def stage_transfer_sizes(
    data_bytes: float,
    producer: "FunctionSpec | None",
    consumer: "FunctionSpec | None",
    mode: StateMode,
) -> tuple[float, float]:
    """Wire size of one stage transfer and the embedded state within it.

    The producer's embedded state rides the hop out of its executor and the
    consumer's rides the hop in; entry and delivery transfers have only one
    function-side endpoint. The wire size is ``data + producer + consumer``
    and the state part ``0.0 + producer + consumer``, each added in that order.
    """
    embedded = mode is StateMode.EMBEDDED
    nbytes = data_bytes
    carried = 0.0
    if producer is not None:
        size = producer.state_size if embedded else 0.0
        nbytes += size
        carried += size
    if consumer is not None:
        size = consumer.state_size if embedded else 0.0
        nbytes += size
        carried += size
    return nbytes, carried


def stage_transfer_bytes(
    data_bytes: float,
    producer: "FunctionSpec | None",
    consumer: "FunctionSpec | None",
    mode: StateMode,
) -> float:
    """Wire size of one stage transfer: ``stage_transfer_sizes(...)[0]``."""
    return stage_transfer_sizes(data_bytes, producer, consumer, mode)[0]


def remote_state_access(
    mode: StateMode,
    host: int | None,
    f: "FunctionSpec",
    exec_node: int,
    rt: RouteTable,
) -> StateAccess:
    """Cost of making f's state, held at ``host`` (None: unplaced), available at ``exec_node``.

    Free in embedded mode, for stateless functions, for state not yet placed
    (the first dispatch places it at the executor) and for co-located
    execution. Otherwise remote_fixed pays fetch plus write-back against the
    host and remote_migrate pays a single transfer to the executor. Pure:
    the caller records a migration with ``StateRegistry.move``.
    """
    size = f.state_size
    if host is None or host == exec_node or size == 0 or not mode.is_remote:
        return ZERO_ACCESS
    if mode is StateMode.REMOTE_FIXED:
        legs = ((host, exec_node), (exec_node, host))
    else:
        legs = ((host, exec_node),)
    delay = 0.0
    for src, dst in legs:
        delay += transfer_delay(rt, src, dst, size)
    return StateAccess(
        delay=delay,
        bytes_moved=len(legs) * size,
        migration=mode is StateMode.REMOTE_MIGRATE,
        legs=legs,
    )


def state_delays(
    mode: StateMode,
    host: int | None,
    f: "FunctionSpec",
    targets: tuple[int, ...],
    rt: RouteTable,
) -> tuple[float, ...]:
    """``remote_state_access(...).delay`` at each of ``targets``.

    Routes and state sizes are static, so the vector is memoized on ``rt``
    per ``(host, targets, state_size, mode)``.
    """
    return rt.memo(
        ("state", host, targets, f.state_size, mode),
        lambda: tuple(remote_state_access(mode, host, f, w, rt).delay for w in targets),
    )
