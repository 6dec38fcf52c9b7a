"""Tests for the FutureRand online randomizer (Algorithm 3, Sections 5.3-5.4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.privacy import enumerate_future_rand_report_law
from repro.core.annulus import AnnulusLaw
from repro.core.future_rand import (
    FutureRand,
    FutureRandFamily,
    check_sparse_sign_matrix,
)


@pytest.fixture
def law() -> AnnulusLaw:
    return AnnulusLaw.for_future_rand(k=4, epsilon=1.0)


class TestCheckSparseSignMatrix:
    """The input contract every kernel's matrix path validates first."""

    def test_accepts_rows_at_the_budget(self):
        matrix = np.array([[0, 1, 0, -1], [0, 0, 0, 0]], dtype=np.int8)
        result = check_sparse_sign_matrix(matrix, k=2)
        assert result.dtype == np.int8
        assert np.array_equal(result, matrix)

    def test_rejects_a_row_over_the_budget(self):
        matrix = np.array([[0, 1, 0, -1], [1, 1, -1, 0]], dtype=np.int8)
        with pytest.raises(ValueError, match="3 non-zero values.*k=2"):
            check_sparse_sign_matrix(matrix, k=2)

    def test_rejects_other_values(self):
        with pytest.raises(ValueError, match="must all be in"):
            check_sparse_sign_matrix(np.array([[0, 2, 0]]), k=2)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            check_sparse_sign_matrix(np.array([0, 1, 0]), k=2)


class TestOnlineBehaviour:
    def test_outputs_are_signs(self, law, rng):
        randomizer = FutureRand(length=10, law=law, rng=rng)
        for value in (0, 1, -1, 0, 1):
            assert randomizer.randomize(value) in (-1, 1)

    def test_rejects_bad_value(self, law, rng):
        randomizer = FutureRand(length=4, law=law, rng=rng)
        with pytest.raises(ValueError):
            randomizer.randomize(2)

    def test_length_exhaustion(self, law, rng):
        randomizer = FutureRand(length=2, law=law, rng=rng)
        randomizer.randomize(0)
        randomizer.randomize(0)
        with pytest.raises(RuntimeError):
            randomizer.randomize(0)

    def test_sparsity_violation(self, law, rng):
        randomizer = FutureRand(length=10, law=law, rng=rng)
        for _ in range(4):
            randomizer.randomize(1)
        with pytest.raises(RuntimeError):
            randomizer.randomize(-1)

    def test_nonzero_output_is_value_times_precomputed(self, law, rng):
        """The online trick: the i-th non-zero is answered as v * b~_i."""
        randomizer = FutureRand(length=10, law=law, rng=rng)
        noise = randomizer.precomputed_noise.copy()
        assert randomizer.randomize(1) == noise[0]
        assert randomizer.randomize(0) in (-1, 1)
        assert randomizer.randomize(-1) == -noise[1]
        assert randomizer.randomize(1) == noise[2]

    def test_precomputed_noise_read_only(self, law, rng):
        randomizer = FutureRand(length=4, law=law, rng=rng)
        with pytest.raises(ValueError):
            randomizer.precomputed_noise[0] = 1

    def test_randomize_sequence(self, law, rng):
        randomizer = FutureRand(length=6, law=law, rng=rng)
        output = np.array(
            [randomizer.randomize(value) for value in (0, 1, 0, -1, 0, 0)]
        )
        assert output.shape == (6,)
        assert set(np.unique(output).tolist()) <= {-1, 1}

    def test_properties(self, law, rng):
        randomizer = FutureRand(length=7, law=law, rng=rng)
        assert randomizer.length == 7
        assert randomizer.sparsity == 4
        assert randomizer.c_gap == law.c_gap


class TestPropertyII:
    """Property II: Pr[out = v] - Pr[out = -v] = c_gap for non-zero inputs."""

    @pytest.mark.slow
    def test_first_nonzero_gap(self, law):
        trials = 40_000
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(trials):
            randomizer = FutureRand(length=3, law=law, rng=rng)
            randomizer.randomize(0)
            hits += randomizer.randomize(1) == 1
        gap = 2.0 * hits / trials - 1.0
        assert abs(gap - law.c_gap) < 4 * (2.0 / math.sqrt(trials))

    @pytest.mark.slow
    def test_later_nonzero_gap(self, law):
        """Property II must hold at every non-zero position, not just the first."""
        trials = 40_000
        rng = np.random.default_rng(23)
        hits = 0
        for _ in range(trials):
            randomizer = FutureRand(length=4, law=law, rng=rng)
            randomizer.randomize(-1)
            randomizer.randomize(0)
            hits += randomizer.randomize(-1) == -1
        gap = 2.0 * hits / trials - 1.0
        assert abs(gap - law.c_gap) < 4 * (2.0 / math.sqrt(trials))


class TestPropertyIII:
    @pytest.mark.slow
    def test_zero_inputs_uniform(self, law):
        trials = 40_000
        rng = np.random.default_rng(29)
        randomizer_outputs = []
        for _ in range(trials):
            randomizer = FutureRand(length=1, law=law, rng=rng)
            randomizer_outputs.append(randomizer.randomize(0))
        ones = sum(1 for value in randomizer_outputs if value == 1)
        assert abs(ones / trials - 0.5) < 4 * (0.5 / math.sqrt(trials))


class TestAgainstExactReportLaw:
    """The online randomizer's full report law must match the closed form
    used by the privacy analysis (Sections 5.3-5.4)."""

    @pytest.mark.slow
    def test_report_law_chi_squared(self):
        law = AnnulusLaw.for_future_rand(k=2, epsilon=1.0)
        length = 4
        v = np.array([0, 1, 0, -1], dtype=np.int8)
        exact = enumerate_future_rand_report_law(law, v)
        trials = 60_000
        rng = np.random.default_rng(31)
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(trials):
            randomizer = FutureRand(length=length, law=law, rng=rng)
            word = tuple(int(randomizer.randomize(int(x))) for x in v)
            counts[word] = counts.get(word, 0) + 1
        chi2 = 0.0
        for word, probability in exact.items():
            expected = probability * trials
            observed = counts.get(word, 0)
            chi2 += (observed - expected) ** 2 / expected
        # 16 outcomes -> 15 dof; 99.9% quantile ~ 37.7
        assert chi2 < 37.7


class TestFamily:
    def test_spawn_and_constants(self):
        family = FutureRandFamily(k=4, epsilon=1.0)
        randomizer = family.spawn(8, np.random.default_rng(0))
        assert isinstance(randomizer, FutureRand)
        assert family.c_gap == randomizer.c_gap
        assert family.name == "future_rand"

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FutureRandFamily(k=0, epsilon=1.0)
        with pytest.raises(ValueError):
            FutureRandFamily(k=4, epsilon=-1.0)

    def test_randomize_matrix_shape_and_domain(self, rng):
        family = FutureRandFamily(k=3, epsilon=1.0)
        values = np.zeros((20, 8), dtype=np.int8)
        values[:, 2] = 1
        values[:, 5] = -1
        output = family.randomize_matrix(values, rng)
        assert output.shape == (20, 8)
        assert set(np.unique(output).tolist()) <= {-1, 1}

    def test_randomize_matrix_rejects_dense_rows(self, rng):
        family = FutureRandFamily(k=2, epsilon=1.0)
        values = np.ones((3, 5), dtype=np.int8)
        with pytest.raises(ValueError):
            family.randomize_matrix(values, rng)

    def test_randomize_matrix_rejects_bad_values(self, rng):
        family = FutureRandFamily(k=2, epsilon=1.0)
        with pytest.raises(ValueError):
            family.randomize_matrix(np.full((2, 3), 2), rng)

    def test_randomize_matrix_rejects_1d(self, rng):
        family = FutureRandFamily(k=2, epsilon=1.0)
        with pytest.raises(ValueError):
            family.randomize_matrix(np.zeros(5, dtype=np.int8), rng)

    def test_empty_matrix(self, rng):
        family = FutureRandFamily(k=2, epsilon=1.0)
        output = family.randomize_matrix(np.zeros((0, 8), dtype=np.int8), rng)
        assert output.shape == (0, 8)

    def test_matrix_gap_matches_c_gap(self):
        """Vectorized path satisfies Property II too."""
        family = FutureRandFamily(k=3, epsilon=1.0)
        rows = 40_000
        values = np.zeros((rows, 4), dtype=np.int8)
        values[:, 1] = 1
        values[:, 3] = -1
        output = family.randomize_matrix(values, np.random.default_rng(37))
        gap_1 = float((output[:, 1] == 1).mean() - (output[:, 1] == -1).mean())
        gap_3 = float((output[:, 3] == -1).mean() - (output[:, 3] == 1).mean())
        tolerance = 4 * (2.0 / math.sqrt(rows))
        assert abs(gap_1 - family.c_gap) < tolerance
        assert abs(gap_3 - family.c_gap) < tolerance

    def test_matrix_zero_columns_uniform(self):
        family = FutureRandFamily(k=3, epsilon=1.0)
        rows = 40_000
        values = np.zeros((rows, 4), dtype=np.int8)
        values[:, 1] = 1
        output = family.randomize_matrix(values, np.random.default_rng(41))
        for column in (0, 2, 3):
            rate = float((output[:, column] == 1).mean())
            assert abs(rate - 0.5) < 4 * (0.5 / math.sqrt(rows))
