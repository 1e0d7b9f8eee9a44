"""The first draws of every random stream a run uses, pinned bit for bit.

Every output file depends on these draws. numpy keeps its bit generators
stable across releases but may change a ``Generator`` method's algorithm,
and then every golden hash fails at once. This test fails first and names
the installed numpy, so the cause is plain. The pins were made with numpy
2.4.6.
"""

import numpy as np
import pytest

from chainsim import workload as wl
from chainsim.config import PayloadSpec

PINNED_WITH = "2.4.6"

# seed -> first three draws of each stream, as float.hex; the policy stream's
# scalar integers draws over 2, 5, 32 and 32 candidates
PINS = {
    0: {
        "gen_arrivals": ["0x1.82b1fda326985p-3", "0x1.bec74ef43405ep-3", "0x1.f38fe5729481cp-3"],
        "draw_payloads exponential": ["0x1.62148b3ea60b2p+7", "0x1.cac0ac47e1be3p+10", "0x1.32f64564482c9p+11"],
        "draw_payloads uniform": ["0x1.22697a1d99bb4p+9", "0x1.c33809916b743p+9", "0x1.1352825ae1404p+10"],
        "draw_compute_factors": ["0x1.5a86f830456d6p+0", "0x1.72af9253681e8p+0", "0x1.d48412443850dp-1"],
        "integers": [0, 4, 14, 7],
    },
    1: {
        "gen_arrivals": ["0x1.3e9aee453a8b2p-3", "0x1.ebb205a74be2fp-3", "0x1.51cad04f42f9ap-2"],
        "draw_payloads exponential": ["0x1.607a924e68710p+9", "0x1.89ba86da97466p+7", "0x1.746506d63d373p+7"],
        "draw_payloads uniform": ["0x1.da35236aada16p+9", "0x1.d170e4f7c5346p+9", "0x1.cbffe378cff80p+9"],
        "draw_compute_factors": ["0x1.be6999f412254p-5", "0x1.e0b340e6e8741p-5", "0x1.201087a6bd7b3p+0"],
        "integers": [1, 1, 12, 27],
    },
    2024: {
        "gen_arrivals": ["0x1.6038125db9fd6p-3", "0x1.9d6489be1e3bbp-3", "0x1.2540d31fd3639p-2"],
        "draw_payloads exponential": ["0x1.3069455695801p+7", "0x1.3141f43c27c3fp+7", "0x1.a298df298c9e2p+8"],
        "draw_payloads uniform": ["0x1.cf883a56b456ep+9", "0x1.09050891b2ff8p+10", "0x1.3f36ffa8eda14p+9"],
        "draw_compute_factors": ["0x1.804e242ee5f22p+1", "0x1.38af80f8bdb3ep+1", "0x1.c7d0ddf2a01c9p-2"],
        "integers": [0, 3, 21, 12],
    },
}


def first_draws(seed: int) -> dict:
    arrivals = wl.gen_arrivals(10.0, 100.0, wl.substream(seed, wl.STREAM_ARRIVALS, 1))[:3]
    exponential = wl.draw_payloads(
        PayloadSpec("exponential", mean=1000.0), 3, 0.0, wl.substream(seed, wl.STREAM_PAYLOAD, 0)
    )
    uniform = wl.draw_payloads(
        PayloadSpec("uniform", lo=500.0, hi=1500.0), 3, 0.0, wl.substream(seed, wl.STREAM_PAYLOAD, 0)
    )
    factors = wl.draw_compute_factors(3, True, wl.substream(seed, wl.STREAM_COMPUTE, 0))
    policy = wl.substream(seed, wl.STREAM_POLICY)
    return {
        "gen_arrivals": [x.hex() for x in arrivals],
        "draw_payloads exponential": [x.hex() for x in exponential],
        "draw_payloads uniform": [x.hex() for x in uniform],
        "draw_compute_factors": [x.hex() for x in factors],
        "integers": [int(policy.integers(0, n)) for n in (2, 5, 32, 32)],
    }


@pytest.mark.parametrize("seed", sorted(PINS))
def test_first_draws_are_pinned(seed):
    got = first_draws(seed)
    changed = [name for name in PINS[seed] if got[name] != PINS[seed][name]]
    assert not changed, (
        f"seed {seed}: the first draws of {', '.join(changed)} differ from the pins made with numpy "
        f"{PINNED_WITH}; this run has numpy {np.__version__}. Every golden output hash will differ too."
    )
