"""Tests for the FutureRand online randomizer (Algorithm 3, Sections 5.3-5.4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.calibration import CalibratedFutureRandFamily
from repro.analysis.privacy import enumerate_future_rand_report_law
from repro.baselines.bun_composed import BunComposedFamily
from repro.core.annulus import AnnulusLaw
from repro.core.future_rand import (
    FutureRand,
    FutureRandFamily,
    RandomizerFamily,
    check_sparse_sign_matrix,
)
from repro.kernels import available_kernels

#: The three named composed families; they differ only in their law.
FAMILIES = {
    "future_rand": FutureRandFamily,
    "future_rand_calibrated": CalibratedFutureRandFamily,
    "bun_composed": BunComposedFamily,
}


@pytest.fixture
def law() -> AnnulusLaw:
    return AnnulusLaw.for_future_rand(k=4, epsilon=1.0)


@pytest.fixture(params=sorted(FAMILIES))
def family_law(request) -> AnnulusLaw:
    """The k=4, epsilon=1 law of each named family."""
    return FAMILIES[request.param](4, 1.0).law


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
    """The online contract, over each family's law."""

    @pytest.fixture
    def law(self, family_law):
        return family_law

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


@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestFamily:
    def test_spawn_and_constants(self, name):
        family = FAMILIES[name](k=4, epsilon=1.0)
        randomizer = family.spawn(8, np.random.default_rng(0))
        assert isinstance(randomizer, FutureRand)
        assert family.c_gap == family.law.c_gap
        assert (family.k, family.epsilon, family.name) == (4, 1.0, name)

    def test_invalid_construction(self, name):
        with pytest.raises(ValueError):
            FAMILIES[name](k=0, epsilon=1.0)
        with pytest.raises(ValueError):
            FAMILIES[name](k=4, epsilon=-1.0)

    def test_randomize_matrix_shape_and_domain(self, name, rng):
        family = FAMILIES[name](k=3, epsilon=1.0)
        values = np.zeros((20, 8), dtype=np.int8)
        values[:, 2] = 1
        values[:, 5] = -1
        output = family.randomize_matrix(values, rng)
        assert output.shape == (20, 8)
        assert set(np.unique(output).tolist()) <= {-1, 1}

    def test_randomize_matrix_rejects_dense_rows(self, name, rng):
        family = FAMILIES[name](k=2, epsilon=1.0)
        values = np.ones((3, 5), dtype=np.int8)
        with pytest.raises(ValueError):
            family.randomize_matrix(values, rng)

    def test_randomize_matrix_rejects_bad_values(self, name, rng):
        family = FAMILIES[name](k=2, epsilon=1.0)
        with pytest.raises(ValueError):
            family.randomize_matrix(np.full((2, 3), 2), rng)

    def test_randomize_matrix_rejects_1d(self, name, rng):
        family = FAMILIES[name](k=2, epsilon=1.0)
        with pytest.raises(ValueError):
            family.randomize_matrix(np.zeros(5, dtype=np.int8), rng)

    def test_empty_matrix(self, name, rng):
        family = FAMILIES[name](k=2, epsilon=1.0)
        output = family.randomize_matrix(np.zeros((0, 8), dtype=np.int8), rng)
        assert output.shape == (0, 8)

    @pytest.mark.parametrize("kernel", [None, "fast"])
    def test_matrix_gap_matches_c_gap(self, name, kernel):
        """Vectorized path satisfies Property II too, under every backend."""
        family = FAMILIES[name](k=3, epsilon=1.0)
        rows = 40_000
        values = np.zeros((rows, 4), dtype=np.int8)
        values[:, 1] = 1
        values[:, 3] = -1
        output = family.randomize_matrix(
            values, np.random.default_rng(37), kernel=kernel
        )
        gap_1 = float((output[:, 1] == 1).mean() - (output[:, 1] == -1).mean())
        gap_3 = float((output[:, 3] == -1).mean() - (output[:, 3] == 1).mean())
        tolerance = 4 * (2.0 / math.sqrt(rows))
        assert abs(gap_1 - family.c_gap) < tolerance
        assert abs(gap_3 - family.c_gap) < tolerance

    @pytest.mark.parametrize("kernel", [None, "fast"])
    def test_matrix_zero_columns_uniform(self, name, kernel):
        family = FAMILIES[name](k=3, epsilon=1.0)
        rows = 40_000
        values = np.zeros((rows, 4), dtype=np.int8)
        values[:, 1] = 1
        output = family.randomize_matrix(
            values, np.random.default_rng(41), kernel=kernel
        )
        for column in (0, 2, 3):
            rate = float((output[:, column] == 1).mean())
            assert abs(rate - 0.5) < 4 * (0.5 / math.sqrt(rows))


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestMatrixInputContract:
    """Every backend keeps the ``{-1, 0, +1}`` input contract exact."""

    def test_rejects_non_unit_floats_and_nan(self, name, kernel, rng):
        family = FAMILIES[name](k=2, epsilon=1.0)
        for bad in (0.5, np.nan):
            with pytest.raises(ValueError, match="must all be in"):
                family.randomize_matrix(np.array([[1.0, bad]]), rng, kernel=kernel)

    def test_accepts_exact_unit_floats(self, name, kernel, rng):
        family = FAMILIES[name](k=2, epsilon=1.0)
        output = family.randomize_matrix(
            np.array([[1.0, -1.0, 0.0]]), rng, kernel=kernel
        )
        assert set(np.unique(output).tolist()) <= {-1, 1}

    def test_rejects_complex_unit_modulus(self, name, kernel, rng):
        # |1j| == 1, so a modulus check alone would admit it; the entry
        # check must keep the {-1, 0, +1} input contract exact.
        family = FAMILIES[name](k=2, epsilon=1.0)
        with pytest.raises(ValueError, match="must all be in"):
            family.randomize_matrix(np.array([[1j, -1j]]), rng, kernel=kernel)


class TestRandomizerFamily:
    """The one family class composes any exact law directly."""

    def test_composes_any_law(self, rng):
        law = AnnulusLaw.for_future_rand(k=3, epsilon=2.0)
        family = RandomizerFamily(2.0, law)
        assert family.law is law and family.c_gap == law.c_gap
        assert (family.k, family.epsilon, family.name) == (3, 2.0, "composed")
        values = np.zeros((5, 6), dtype=np.int8)
        values[:, 0] = 1
        assert family.randomize_matrix(values, rng).shape == (5, 6)
        assert family.spawn(6, rng).sparsity == 3

    def test_rejects_a_non_positive_epsilon(self):
        law = AnnulusLaw.for_future_rand(k=3, epsilon=1.0)
        for epsilon in (0.0, -1.0):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                RandomizerFamily(epsilon, law)
