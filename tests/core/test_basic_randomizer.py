"""Tests for Warner's basic randomizer R (Equation 14)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.basic_randomizer import basic_c_gap, flip_probability
from repro.core.params import ProtocolParams
from repro.protocols import get_protocol


def _mean_report(values: np.ndarray, epsilon: float, rng) -> float:
    """Mean ``{-1, +1}`` report of unsplit randomized response over one period.

    The session runs ``R`` at the full budget on every user; its released
    estimate ``(sum / c_gap + n) / 2`` is inverted back to the report sum.
    """
    n = values.size
    params = ProtocolParams(n=n, d=1, k=1, epsilon=epsilon)
    session = get_protocol("naive_unsplit").prepare(params, rng)
    session.ingest(1, values)
    estimate = float(session.estimates()[0])
    return (2.0 * estimate - n) * session.c_gap / n


class TestProbabilities:
    def test_flip_probability_formula(self):
        assert flip_probability(1.0) == pytest.approx(1.0 / (math.e + 1.0))

    def test_flip_below_half(self):
        for eps in (0.01, 0.5, 1.0):
            assert 0.0 < flip_probability(eps) < 0.5

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            flip_probability(0.0)

    def test_c_gap_is_tanh(self):
        for eps in (0.1, 0.5, 1.0):
            expected = (math.exp(eps) - 1) / (math.exp(eps) + 1)
            assert basic_c_gap(eps) == pytest.approx(expected, rel=1e-12)

    def test_c_gap_equals_keep_minus_flip(self):
        eps = 0.7
        keep = 1.0 - flip_probability(eps)
        assert basic_c_gap(eps) == pytest.approx(keep - flip_probability(eps))

    def test_c_gap_rejects_non_positive(self):
        with pytest.raises(ValueError):
            basic_c_gap(-0.1)


class TestRandomize:
    """R as the registry's randomized-response sessions deploy it."""

    def test_empirical_keep_rate(self, rng):
        trials = 20_000
        mean = _mean_report(np.ones(trials, dtype=np.int8), 1.0, rng)
        kept = (mean + 1.0) / 2.0
        expected = 1.0 - flip_probability(1.0)
        standard_error = math.sqrt(expected * (1 - expected) / trials)
        assert abs(kept - expected) < 5 * standard_error

    def test_empirical_gap_matches_c_gap(self, rng):
        trials = 40_000
        mean = _mean_report(np.zeros(trials, dtype=np.int8), 0.5, rng)
        # Every input is -1: Pr[-1] - Pr[+1] is minus the mean report.
        assert -mean == pytest.approx(basic_c_gap(0.5), abs=0.02)
