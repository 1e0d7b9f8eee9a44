"""Workload generation: Poisson arrivals, payload sizes, compute factors.

Every random quantity of a run comes from its own substream derived from
the run seed and a fixed stream label, so swept scenario points share
common random numbers and replications stay independent.
"""

from __future__ import annotations

import math

import numpy as np

from .config import PayloadSpec

# Stream labels; the third seed word is the app index for per-app streams.
STREAM_ARRIVALS = 1
STREAM_PAYLOAD = 2
STREAM_COMPUTE = 3
STREAM_POLICY = 4


def substream(run_seed: int, label: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([run_seed, label, index]))


def gen_arrivals(rate: float, horizon: float, stream: np.random.Generator) -> list[float]:
    """Poisson arrival times in [0, horizon), strictly increasing.

    Inter-arrivals are exponential(rate) via inverse transform
    t += -ln(u)/rate with u uniform on (0, 1]. A gap too small to change
    ``t`` (zero, from u == 1.0, or about half an ulp of ``t`` or less) is
    redrawn to keep times strictly increasing.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    times: list[float] = []
    t = 0.0
    while True:
        u = 1.0 - stream.random()  # in (0, 1]
        nxt = t + -math.log(u) / rate
        if nxt == t:
            continue
        t = nxt
        if t >= horizon:
            return times
        times.append(t)


def draw_payloads(
    spec: PayloadSpec, n: int, entry_payload: float, stream: np.random.Generator
) -> list[float]:
    """Per-invocation entry payload sizes in bytes."""
    if spec.kind == "constant":
        return [entry_payload] * n
    if spec.kind == "uniform":
        return [float(x) for x in stream.uniform(spec.lo, spec.hi, size=n)]
    if spec.kind == "exponential":
        return [float(x) for x in stream.exponential(spec.mean, size=n)]
    raise ValueError(f"unknown payload kind {spec.kind!r}")


def draw_compute_factors(n: int, enabled: bool, stream: np.random.Generator) -> list[float]:
    """Multiplicative factors on fixed_ops; exponential(mean 1) when enabled."""
    if not enabled:
        return [1.0] * n
    return [float(x) for x in stream.exponential(1.0, size=n)]
