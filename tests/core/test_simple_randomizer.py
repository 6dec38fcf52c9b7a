"""Tests for the Example 4.2 independent randomizer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.simple_randomizer import SimpleRandomizer, SimpleRandomizerFamily
from repro.kernels import available_kernels

KERNELS = available_kernels()


class TestScalar:
    def test_outputs_are_signs(self, rng):
        randomizer = SimpleRandomizer(length=6, k=3, epsilon=1.0, rng=rng)
        for value in (0, 1, -1):
            assert randomizer.randomize(value) in (-1, 1)

    def test_c_gap_formula(self):
        randomizer = SimpleRandomizer(length=4, k=4, epsilon=1.0, rng=None)
        expected = (math.exp(0.25) - 1) / (math.exp(0.25) + 1)
        assert randomizer.c_gap == pytest.approx(expected, rel=1e-12)

    def test_length_exhaustion(self, rng):
        randomizer = SimpleRandomizer(length=1, k=1, epsilon=1.0, rng=rng)
        randomizer.randomize(0)
        with pytest.raises(RuntimeError):
            randomizer.randomize(0)

    def test_sparsity_violation(self, rng):
        randomizer = SimpleRandomizer(length=5, k=1, epsilon=1.0, rng=rng)
        randomizer.randomize(1)
        with pytest.raises(RuntimeError):
            randomizer.randomize(1)

    def test_rejects_bad_value(self, rng):
        randomizer = SimpleRandomizer(length=5, k=2, epsilon=1.0, rng=rng)
        with pytest.raises(ValueError):
            randomizer.randomize(3)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            SimpleRandomizer(length=0, k=1, epsilon=1.0)
        with pytest.raises(ValueError):
            SimpleRandomizer(length=1, k=1, epsilon=0.0)

    def test_empirical_gap(self):
        trials = 40_000
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(trials):
            randomizer = SimpleRandomizer(length=1, k=2, epsilon=1.0, rng=rng)
            hits += randomizer.randomize(1) == 1
        gap = 2.0 * hits / trials - 1.0
        expected = math.tanh(0.25)
        assert abs(gap - expected) < 4 * (2.0 / math.sqrt(trials))


class TestFamily:
    def test_constants(self):
        family = SimpleRandomizerFamily(k=4, epsilon=1.0)
        assert family.name == "simple_rr"
        assert family.c_gap == pytest.approx(math.tanh(0.125), rel=1e-12)

    def test_spawn(self, rng):
        family = SimpleRandomizerFamily(k=2, epsilon=0.5)
        randomizer = family.spawn(8, rng)
        assert randomizer.length == 8
        assert randomizer.sparsity == 2

    def test_matrix_path_shape(self, rng):
        family = SimpleRandomizerFamily(k=2, epsilon=1.0)
        values = np.zeros((10, 6), dtype=np.int8)
        values[:, 0] = 1
        output = family.randomize_matrix(values, rng)
        assert output.shape == (10, 6)
        assert set(np.unique(output).tolist()) <= {-1, 1}

    def test_matrix_rejects_dense(self, rng):
        family = SimpleRandomizerFamily(k=1, epsilon=1.0)
        with pytest.raises(ValueError):
            family.randomize_matrix(np.ones((2, 3), dtype=np.int8), rng)

    def test_matrix_rejects_bad_values(self, rng):
        family = SimpleRandomizerFamily(k=1, epsilon=1.0)
        with pytest.raises(ValueError):
            family.randomize_matrix(np.full((2, 3), -2), rng)

    def test_matrix_gap(self):
        family = SimpleRandomizerFamily(k=2, epsilon=1.0)
        rows = 40_000
        values = np.zeros((rows, 3), dtype=np.int8)
        values[:, 1] = -1
        output = family.randomize_matrix(values, np.random.default_rng(5))
        gap = float((output[:, 1] == -1).mean() - (output[:, 1] == 1).mean())
        assert abs(gap - family.c_gap) < 4 * (2.0 / math.sqrt(rows))

    def test_matrix_zeros_uniform(self):
        family = SimpleRandomizerFamily(k=2, epsilon=1.0)
        rows = 40_000
        values = np.zeros((rows, 2), dtype=np.int8)
        output = family.randomize_matrix(values, np.random.default_rng(6))
        rate = float((output == 1).mean())
        assert abs(rate - 0.5) < 4 * (0.5 / math.sqrt(2 * rows))


@pytest.mark.parametrize("kernel", KERNELS)
class TestIndependentMatrixPerKernel:
    """The vectorized Example 4.2 law, held by every kernel backend.

    Each non-zero entry keeps its sign except with the basic randomizer's
    flip probability ``1 / (e^(eps/k) + 1)``; each zero gets a fresh
    uniform sign; the input contract is exactly ``{-1, 0, +1}``.
    """

    def test_flips_are_independent_within_a_row(self, kernel):
        """Unlike FutureRand's correlated ``R~``, two non-zeros of one row
        flip together with probability ``q^2``."""
        family = SimpleRandomizerFamily(k=2, epsilon=1.0)
        rows = 50_000
        values = np.ones((rows, 2), dtype=np.int8)
        output = family.randomize_matrix(
            values, np.random.default_rng(12), kernel=kernel
        )
        q = 1.0 / (math.exp(0.5) + 1.0)
        both = float((output == -1).all(axis=1).mean())
        standard_error = math.sqrt(q * q * (1 - q * q) / rows)
        assert abs(both - q * q) < 5 * standard_error

    @pytest.mark.parametrize("epsilon", [1.0, 4.0])
    def test_flip_rate_is_the_basic_randomizer_law(self, kernel, epsilon):
        family = SimpleRandomizerFamily(k=2, epsilon=epsilon)
        rows = 50_000
        values = np.zeros((rows, 3), dtype=np.int8)
        values[:, 0] = 1
        values[:, 2] = -1
        output = family.randomize_matrix(
            values, np.random.default_rng(11), kernel=kernel
        )
        expected = 1.0 / (math.exp(epsilon / 2) + 1.0)
        standard_error = math.sqrt(expected * (1 - expected) / rows)
        for column, sign in ((0, 1), (2, -1)):
            flip_rate = float((output[:, column] == -sign).mean())
            assert abs(flip_rate - expected) < 5 * standard_error

    def test_zeros_get_uniform_signs(self, kernel):
        family = SimpleRandomizerFamily(k=2, epsilon=1.0)
        rows = 40_000
        values = np.zeros((rows, 2), dtype=np.int8)
        output = family.randomize_matrix(
            values, np.random.default_rng(6), kernel=kernel
        )
        rate = float((output == 1).mean())
        assert abs(rate - 0.5) < 4 * (0.5 / math.sqrt(2 * rows))

    def test_rejects_non_unit_floats_and_nan(self, kernel, rng):
        family = SimpleRandomizerFamily(k=2, epsilon=1.0)
        for bad in (0.5, np.nan):
            with pytest.raises(ValueError, match="must all be in"):
                family.randomize_matrix(
                    np.array([[1.0, bad]]), rng, kernel=kernel
                )

    def test_accepts_exact_unit_floats(self, kernel, rng):
        family = SimpleRandomizerFamily(k=2, epsilon=1.0)
        output = family.randomize_matrix(
            np.array([[1.0, -1.0, 0.0]]), rng, kernel=kernel
        )
        assert set(np.unique(output).tolist()) <= {-1, 1}

    def test_rejects_complex_unit_modulus(self, kernel, rng):
        # |1j| == 1, so a modulus check alone would admit it; the entry
        # check must keep the {-1, 0, +1} input contract exact.
        family = SimpleRandomizerFamily(k=2, epsilon=1.0)
        with pytest.raises(ValueError, match="must all be in"):
            family.randomize_matrix(np.array([[1j, -1j]]), rng, kernel=kernel)
