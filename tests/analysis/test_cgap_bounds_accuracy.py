"""Tests for the c_gap catalogue, bound formulas and accuracy fits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.accuracy import (
    ErrorSummary,
    fit_log_law,
    fit_power_law,
    summarize_errors,
)
from repro.analysis.bounds import (
    central_tree_error_bound,
    hoeffding_radius,
    theorem41_error_bound,
)
from repro.analysis.cgap import (
    cgap_constant_series,
    cgap_future_rand,
    cgap_simple,
)
from repro.core.params import ProtocolParams
from repro.protocols import get_protocol


class TestCGapCatalogue:
    def test_basic_is_tanh(self):
        """Unsplit randomized response runs the basic randomizer at the
        full budget, so its gap is ``tanh(eps / 2)``."""
        params = ProtocolParams(n=10, d=8, k=1, epsilon=1.0)
        assert get_protocol("naive_unsplit").c_gap(params) == pytest.approx(
            math.tanh(0.5), rel=1e-12
        )

    def test_simple_formula(self):
        assert cgap_simple(4, 1.0) == pytest.approx(math.tanh(0.125), rel=1e-12)

    def test_erlingsson_formula(self):
        params = ProtocolParams(n=10, d=8, k=2, epsilon=1.0)
        assert get_protocol("erlingsson").c_gap(params) == pytest.approx(
            math.tanh(0.25), rel=1e-12
        )

    def test_future_rand_positive_and_scaling(self):
        values = {k: cgap_future_rand(k, 1.0) for k in (4, 16, 64, 256)}
        assert all(value > 0 for value in values.values())
        # Quadrupling k should roughly halve the gap (sqrt scaling).
        for k in (4, 16, 64):
            ratio = values[k] / values[4 * k]
            assert 1.5 < ratio < 2.6

    def test_bun_below_future_rand_at_large_k(self):
        for k in (16, 64, 256):
            params = ProtocolParams(n=10, d=256, k=k, epsilon=1.0)
            assert get_protocol("bun_composed").c_gap(params) < cgap_future_rand(
                k, 1.0
            )

    def test_constant_series_rows(self):
        rows = cgap_constant_series([1, 4, 16], 1.0)
        assert len(rows) == 3
        assert rows[1]["future_normalized"] == pytest.approx(
            cgap_future_rand(4, 1.0) * 2.0, rel=1e-12
        )
        assert all(row["simple_normalized"] <= 0.5 + 1e-9 for row in rows)

    def test_simple_rejects_bad_k(self):
        with pytest.raises(ValueError):
            cgap_simple(0, 1.0)


class TestBounds:
    @pytest.fixture
    def params(self) -> ProtocolParams:
        return ProtocolParams(n=10_000, d=256, k=4, epsilon=1.0)

    def test_hoeffding_radius_formula(self, params):
        radius = hoeffding_radius(params, c_gap=0.5, beta_prime=0.05)
        expected = 9 / 0.5 * math.sqrt(2 * 10_000 * math.log(2 / 0.05))
        assert radius == pytest.approx(expected, rel=1e-12)

    def test_hoeffding_radius_validation(self, params):
        with pytest.raises(ValueError):
            hoeffding_radius(params, c_gap=0.0, beta_prime=0.05)
        with pytest.raises(ValueError):
            hoeffding_radius(params, c_gap=0.5, beta_prime=1.5)

    def test_central_independent_of_n(self, params):
        a = central_tree_error_bound(params)
        b = central_tree_error_bound(params.with_updates(n=10 * params.n))
        assert a == b

    def test_theorem41_scalings(self, params):
        quadrupled_k = theorem41_error_bound(params.with_updates(k=16))
        assert quadrupled_k / theorem41_error_bound(params) == pytest.approx(2.0)
        halved_eps = theorem41_error_bound(params.with_updates(epsilon=0.5))
        assert halved_eps / theorem41_error_bound(params) == pytest.approx(2.0)


class TestAccuracy:
    def test_summarize_errors(self):
        summary = summarize_errors(
            np.array([1.0, 2.0, 10.0]), np.array([0.0, 0.0, 0.0])
        )
        assert summary.max_abs == 10.0
        assert summary.final_abs == 10.0
        assert summary.mean_abs == pytest.approx(13.0 / 3.0)
        assert isinstance(summary, ErrorSummary)

    def test_summarize_shape_mismatch(self):
        with pytest.raises(ValueError):
            summarize_errors(np.zeros(3), np.zeros(4))

    def test_summarize_empty(self):
        with pytest.raises(ValueError):
            summarize_errors(np.array([]), np.array([]))

    def test_fit_power_law_exact(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        ys = 3.0 * xs**0.5
        alpha, c = fit_power_law(xs, ys)
        assert alpha == pytest.approx(0.5, abs=1e-9)
        assert c == pytest.approx(3.0, rel=1e-9)

    def test_fit_power_law_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, -1.0], [2.0, 3.0])

    def test_fit_log_law_exact(self):
        xs = np.array([2.0, 4.0, 8.0, 16.0])
        ys = 5.0 * np.log2(xs) + 1.0
        slope, intercept = fit_log_law(xs, ys)
        assert slope == pytest.approx(5.0, abs=1e-9)
        assert intercept == pytest.approx(1.0, abs=1e-9)

    def test_fit_log_law_validation(self):
        with pytest.raises(ValueError):
            fit_log_law([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_log_law([0.0, 2.0], [1.0, 2.0])
