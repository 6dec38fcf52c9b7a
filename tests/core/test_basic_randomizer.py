"""Tests for Warner's basic randomizer R (Equation 14)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.basic_randomizer import (
    BasicRandomizer,
    basic_c_gap,
    flip_probability,
    keep_probability,
)


class TestProbabilities:
    def test_eps_tilde_exposed(self):
        assert BasicRandomizer(0.7).eps_tilde == 0.7

    def test_flip_probability_formula(self):
        assert flip_probability(1.0) == pytest.approx(1.0 / (math.e + 1.0))

    def test_keep_plus_flip_is_one(self):
        for eps in (0.01, 0.5, 1.0, 3.0):
            assert flip_probability(eps) + keep_probability(eps) == pytest.approx(1.0)

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
        assert basic_c_gap(eps) == pytest.approx(
            keep_probability(eps) - flip_probability(eps)
        )

    def test_c_gap_rejects_non_positive(self):
        with pytest.raises(ValueError):
            basic_c_gap(-0.1)


class TestRandomize:
    def test_output_in_domain(self, rng):
        randomizer = BasicRandomizer(1.0)
        for zeta in (-1, 1):
            assert randomizer.randomize(zeta, rng) in (-1, 1)

    def test_rejects_bad_input(self, rng):
        with pytest.raises(ValueError):
            BasicRandomizer(1.0).randomize(0, rng)

    def test_empirical_keep_rate(self, rng):
        randomizer = BasicRandomizer(1.0)
        trials = 20_000
        kept = sum(randomizer.randomize(1, rng) == 1 for _ in range(trials))
        expected = keep_probability(1.0)
        standard_error = math.sqrt(expected * (1 - expected) / trials)
        assert abs(kept / trials - expected) < 5 * standard_error

    def test_empirical_gap_matches_c_gap(self, rng):
        randomizer = BasicRandomizer(0.5)
        trials = 40_000
        outputs = np.array([randomizer.randomize(-1, rng) for _ in range(trials)])
        empirical_gap = float((outputs == -1).mean() - (outputs == 1).mean())
        assert empirical_gap == pytest.approx(randomizer.c_gap, abs=0.02)
