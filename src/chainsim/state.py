"""State placement modes and the cost of making state available at a node.

Three scenario-wide modes:

* ``embedded``: state travels inside the invocation payload, adding the
  function's state size to the stage hop into its executor and the hop out.
* ``remote_fixed``: state lives at a fixed host worker; every execution at a
  different node pays a fetch plus a write-back (read-modify-write state).
* ``remote_migrate``: state moves to the executing worker and stays there,
  paying a single transfer and moving the state's host.

Each run keeps the host of each ``(app, function id)`` state item in a plain
dict, which starts empty; the first dispatch of a stateful function seeds
its host at the chosen worker at zero cost (cold-start placement).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .topology import RouteTable

if TYPE_CHECKING:
    from .workflow import FunctionSpec


class StateMode(enum.Enum):
    __hash__ = object.__hash__  # members are singletons; Enum's own hash is a Python call per access key

    EMBEDDED = "embedded"
    REMOTE_FIXED = "remote_fixed"
    REMOTE_MIGRATE = "remote_migrate"


_EMBEDDED = StateMode.EMBEDDED  # read per access; a ``StateMode.X`` read is an ``EnumType.__getattr__`` call


@dataclass(frozen=True)
class StateAccess:
    """Outcome of making one function's state available at its executor."""

    delay: float  # seconds
    bytes_moved: float  # bytes over the network: network crossings x state size
    migration: bool = False  # the state moves to the executor
    links: tuple[int, ...] = ()  # the Topology.links index of each hop of each crossing, in order


ZERO_ACCESS = StateAccess(delay=0.0, bytes_moved=0.0)


def stage_transfer_bytes(
    data_bytes: float,
    producer: "FunctionSpec | None",
    consumer: "FunctionSpec | None",
    mode: StateMode,
) -> float:
    """Wire size of one stage transfer: ``data + producer + consumer``, added in that order.

    The producer's embedded state rides the hop out of its executor and the
    consumer's rides the hop in; entry and delivery transfers have only one
    function-side endpoint. An endpoint adds ``0.0 + state_size`` in
    embedded mode and 0.0 otherwise, so a state size of -0.0 counts as 0.0.
    The embedded state within a hop is this size at ``data_bytes = 0.0``.
    """
    embedded = mode is _EMBEDDED
    nbytes = data_bytes
    if producer is not None:
        nbytes += (0.0 + producer.state_size) if embedded else 0.0
    if consumer is not None:
        nbytes += (0.0 + consumer.state_size) if embedded else 0.0
    return nbytes


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
    the caller records a migration by moving the host. Routes are
    static, so each priced access is kept in ``rt.accesses`` per
    ``(mode, host, exec_node, state_size)`` and the frozen result is shared.
    """
    size = f.state_size
    if host is None or host == exec_node or size == 0 or mode is _EMBEDDED:
        return ZERO_ACCESS
    key = (mode, host, exec_node, size)
    access = rt.accesses.get(key)
    if access is None:
        access = rt.accesses[key] = _price_access(mode, host, exec_node, size, rt)
    return access


def _price_access(mode: StateMode, host: int, exec_node: int, size: float, rt: RouteTable) -> StateAccess:
    if mode is StateMode.REMOTE_FIXED:
        legs = ((host, exec_node), (exec_node, host))
    else:
        legs = ((host, exec_node),)
    delay = 0.0
    links: tuple[int, ...] = ()
    for src, dst in legs:
        route = rt.route(src, dst)
        delay += route.delay(size)
        links += route.links
    return StateAccess(
        delay=delay,
        bytes_moved=len(legs) * size,
        migration=mode is StateMode.REMOTE_MIGRATE,
        links=links,
    )

