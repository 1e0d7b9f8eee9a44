import csv
import io
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import engine, metrics
from chainsim.config import PayloadSpec, scenario_from_raw
from chainsim.workload import (
    STREAM_ARRIVALS,
    draw_compute_factors,
    draw_payloads,
    gen_arrivals,
    substream,
)
from helpers import chain_scenario_raw


class TestGenArrivals:
    def test_within_bounds_and_strictly_increasing(self):
        times = gen_arrivals(50.0, 10.0, substream(1, STREAM_ARRIVALS))
        assert all(0.0 <= t < 10.0 for t in times)
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_empty_when_horizon_tiny(self):
        # horizon smaller than any plausible first gap
        times = gen_arrivals(0.001, 1e-9, substream(3, STREAM_ARRIVALS))
        assert times == []

    def test_deterministic_per_seed(self):
        a = gen_arrivals(100.0, 5.0, substream(7, STREAM_ARRIVALS))
        b = gen_arrivals(100.0, 5.0, substream(7, STREAM_ARRIVALS))
        assert a == b
        c = gen_arrivals(100.0, 5.0, substream(8, STREAM_ARRIVALS))
        assert a != c

    def test_mean_interarrival_close_to_rate_inverse(self):
        rate, horizon = 100.0, 1000.0
        times = gen_arrivals(rate, horizon, substream(11, STREAM_ARRIVALS))
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        assert abs(mean - 1.0 / rate) / (1.0 / rate) < 0.02

    def test_a_gap_below_half_an_ulp_is_redrawn(self):
        # u = 1 - 0.632... = 1/e gives a gap of exactly 1.0; u = 1 - 2**-53
        # gives about 1.1e-16, which 50.0 + gap rounds away, and u = 1.0 a zero gap.
        draws = [0.6321205588285577] * 50 + [2**-53, 0.0, 0.6321205588285577]
        times = gen_arrivals(1.0, 50.5, SimpleNamespace(random=iter(draws).__next__))
        assert times == [float(i) for i in range(1, 51)]

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            gen_arrivals(0.0, 1.0, substream(0, STREAM_ARRIVALS))

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.5, max_value=500.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    def test_bounds_property(self, seed, rate, horizon):
        times = gen_arrivals(rate, horizon, substream(seed, STREAM_ARRIVALS))
        assert all(0.0 <= t < horizon for t in times)
        assert all(a < b for a, b in zip(times, times[1:]))


class TestDraws:
    def test_constant_payload_uses_entry(self):
        assert draw_payloads(PayloadSpec("constant"), 3, 42.0, substream(0, 2)) == [42.0, 42.0, 42.0]

    def test_uniform_within_bounds(self):
        vals = draw_payloads(PayloadSpec("uniform", lo=10.0, hi=20.0), 500, 0.0, substream(1, 2))
        assert all(10.0 <= v <= 20.0 for v in vals)

    def test_exponential_mean(self):
        vals = draw_payloads(PayloadSpec("exponential", mean=100.0), 50_000, 0.0, substream(2, 2))
        assert sum(vals) / len(vals) == pytest.approx(100.0, rel=0.05)

    def test_factors_default_to_one(self):
        assert draw_compute_factors(4, False, substream(0, 3)) == [1.0] * 4

    def test_factors_exponential_mean_one(self):
        vals = draw_compute_factors(50_000, True, substream(5, 3))
        assert sum(vals) / len(vals) == pytest.approx(1.0, rel=0.05)


class TestPercentile:
    def test_singleton(self):
        assert metrics.percentile([5.0], 0.01) == 5.0
        assert metrics.percentile([5.0], 1.0) == 5.0

    def test_median_of_four(self):
        assert metrics.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_p99_of_hundred(self):
        values = [float(i) for i in range(1, 101)]
        assert metrics.percentile(values, 0.99) == 99.0

    def test_unsorted_input(self):
        assert metrics.percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.percentile([], 0.5)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            metrics.percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            metrics.percentile([1.0], 1.5)

    @settings(max_examples=80)
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200))
    def test_percentiles_ordered(self, values):
        p50 = metrics.percentile(values, 0.50)
        p95 = metrics.percentile(values, 0.95)
        p99 = metrics.percentile(values, 0.99)
        assert p50 <= p95 <= p99

    @settings(max_examples=80)
    @given(
        st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_nearest_rank_definition(self, values, p):
        got = metrics.percentile(values, p)
        ordered = sorted(values)
        assert got == ordered[math.ceil(p * len(values)) - 1]


class TestCsvCells:
    """The CSV writer formats every cell itself: a float by ``repr``, None as an empty field, anything else by ``str``."""

    CELLS = [None, -0.0, math.inf, -math.inf, math.nan, 1e-320, 5e300, True, False, 0.1, 7, "app,with,commas", 'say "hi"']

    @staticmethod
    def reference(header, rows) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if x is None else repr(x) if isinstance(x, float) else str(x) for x in row])
        return buf.getvalue()

    def test_every_cell_kind_in_every_column(self):
        width = len(metrics.INVOCATIONS_HEADER)
        cells = self.CELLS
        rows = [[cells[(i + k) % len(cells)] for k in range(width)] for i in range(len(cells))]
        text = metrics.invocations_csv(rows)
        assert text == self.reference(metrics.INVOCATIONS_HEADER, rows)
        assert '"app,with,commas"' in text and ",-0.0," in text and ",1e-320," in text and ",," in text

    def test_invocation_rows_of_a_run(self):
        # a comma in the app id is quoted; an unfinished invocation leaves completion and latency empty
        raw = chain_scenario_raw(state_mode="embedded", state_size=300.0)
        raw["workflows"][0]["app_id"] = "edge,app"
        raw["workload"]["rates"] = {"edge,app": 5.0}
        sc, errs = scenario_from_raw(raw)
        assert not errs, errs
        log = engine.run(sc)
        log.invocations[1].completion = None
        rows = metrics.invocation_rows(log)
        assert rows[1][3:5] == [None, None] and {row[1] for row in rows} == {"edge,app"}
        assert metrics.invocations_csv(rows) == self.reference(metrics.INVOCATIONS_HEADER, rows)
