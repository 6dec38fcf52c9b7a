"""Tests for the R~ sampler, including exact-law goodness of fit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.annulus import AnnulusLaw
from repro.core.composed_randomizer import ComposedRandomizer


@pytest.fixture
def law() -> AnnulusLaw:
    return AnnulusLaw.for_future_rand(k=8, epsilon=1.0)


@pytest.fixture
def randomizer(law: AnnulusLaw) -> ComposedRandomizer:
    return ComposedRandomizer(law)


class TestInterface:
    def test_sample_shape_and_domain(self, randomizer, rng):
        output = randomizer.sample(np.ones(8, dtype=np.int8), rng)
        assert output.shape == (8,)
        assert set(np.unique(output).tolist()) <= {-1, 1}

    def test_rejects_wrong_length(self, randomizer, rng):
        with pytest.raises(ValueError):
            randomizer.sample(np.ones(5, dtype=np.int8), rng)

    def test_rejects_non_sign_input(self, randomizer, rng):
        with pytest.raises(ValueError):
            randomizer.sample(np.array([1, 0, 1, 1, 1, 1, 1, 1]), rng)

    def test_batch_shape(self, randomizer, rng):
        output = randomizer.sample_batch(np.ones(8, dtype=np.int8), 13, rng)
        assert output.shape == (13, 8)

    def test_batch_zero_count(self, randomizer, rng):
        output = randomizer.sample_batch(np.ones(8, dtype=np.int8), 0, rng)
        assert output.shape == (0, 8)

    def test_batch_negative_count_rejected(self, randomizer, rng):
        with pytest.raises(ValueError):
            randomizer.sample_batch(np.ones(8, dtype=np.int8), -1, rng)


def _distance_chi2(outputs: np.ndarray, b: np.ndarray, law: AnnulusLaw) -> float:
    """Chi-squared p-value of sampled Hamming distances vs the exact pmf."""
    distances = (outputs != b[np.newaxis, :]).sum(axis=1)
    expected_pmf = law.distance_pmf()
    counts = np.bincount(distances, minlength=law.k + 1).astype(np.float64)
    total = counts.sum()
    # Merge bins with tiny expectation to keep the chi-squared valid.
    keep = expected_pmf * total >= 5.0
    merged_observed = np.concatenate(
        [counts[keep], [counts[~keep].sum()]]
    )
    merged_expected = np.concatenate(
        [expected_pmf[keep] * total, [expected_pmf[~keep].sum() * total]]
    )
    if merged_expected[-1] == 0:
        merged_observed = merged_observed[:-1]
        merged_expected = merged_expected[:-1]
    merged_expected *= merged_observed.sum() / merged_expected.sum()
    return stats.chisquare(merged_observed, merged_expected).pvalue


class TestExactLawAgreement:
    """The samplers must realize the closed-form law exactly."""

    TRIALS = 40_000

    def test_scalar_sampler_distance_distribution(self, law):
        randomizer = ComposedRandomizer(law)
        rng = np.random.default_rng(2024)
        b = np.ones(law.k, dtype=np.int8)
        outputs = np.array([randomizer.sample(b, rng) for _ in range(5000)])
        assert _distance_chi2(outputs, b, law) > 1e-4

    def test_batch_sampler_distance_distribution(self, law):
        randomizer = ComposedRandomizer(law)
        rng = np.random.default_rng(99)
        b = np.ones(law.k, dtype=np.int8)
        outputs = randomizer.sample_batch(b, self.TRIALS, rng)
        assert _distance_chi2(outputs, b, law) > 1e-4

    def test_batch_sampler_nontrivial_input(self, law):
        randomizer = ComposedRandomizer(law)
        rng = np.random.default_rng(7)
        b = np.array([1, -1, 1, 1, -1, -1, 1, -1], dtype=np.int8)
        outputs = randomizer.sample_batch(b, self.TRIALS, rng)
        assert _distance_chi2(outputs, b, law) > 1e-4

    def test_uniformity_within_distance_class(self, law):
        """Conditioned on the distance, the flipped subset must be uniform:
        every coordinate should be flipped equally often."""
        randomizer = ComposedRandomizer(law)
        rng = np.random.default_rng(13)
        b = np.ones(law.k, dtype=np.int8)
        outputs = randomizer.sample_batch(b, self.TRIALS, rng)
        flip_rates = (outputs == -1).mean(axis=0)
        # All coordinates are exchangeable, so their flip rates agree.
        assert flip_rates.max() - flip_rates.min() < 0.02

    def test_coordinate_gap_matches_c_gap(self, law):
        """Property II at the sampler level: empirical keep-flip gap = c_gap."""
        randomizer = ComposedRandomizer(law)
        rng = np.random.default_rng(4)
        b = np.ones(law.k, dtype=np.int8)
        outputs = randomizer.sample_batch(b, self.TRIALS, rng)
        gap = float((outputs[:, 0] == 1).mean() - (outputs[:, 0] == -1).mean())
        standard_error = 2.0 / math.sqrt(self.TRIALS)
        assert abs(gap - law.c_gap) < 4 * standard_error

    def test_symmetry_under_input_negation(self, law):
        """R~(-b) has the law of -R~(b): distances to the input agree."""
        randomizer = ComposedRandomizer(law)
        b = np.ones(law.k, dtype=np.int8)
        outputs_pos = randomizer.sample_batch(b, 20_000, np.random.default_rng(5))
        outputs_neg = randomizer.sample_batch(-b, 20_000, np.random.default_rng(5))
        distances_pos = (outputs_pos != b).sum(axis=1)
        distances_neg = (outputs_neg != -b).sum(axis=1)
        assert np.array_equal(distances_pos, distances_neg)


class TestDeterminism:
    def test_same_seed_same_output(self, law):
        randomizer = ComposedRandomizer(law)
        b = np.ones(law.k, dtype=np.int8)
        a = randomizer.sample(b, np.random.default_rng(3))
        c = randomizer.sample(b, np.random.default_rng(3))
        assert np.array_equal(a, c)

    def test_batch_matches_repeated_scalar_distributionally(self, law):
        """Batch and scalar samplers share the distance law (smoke check)."""
        randomizer = ComposedRandomizer(law)
        b = np.ones(law.k, dtype=np.int8)
        scalar_rng = np.random.default_rng(11)
        scalar = np.array([randomizer.sample(b, scalar_rng) for _ in range(4000)])
        batch = randomizer.sample_batch(b, 4000, np.random.default_rng(12))
        mean_scalar = (scalar != b).sum(axis=1).mean()
        mean_batch = (batch != b).sum(axis=1).mean()
        assert abs(mean_scalar - mean_batch) < 0.15
