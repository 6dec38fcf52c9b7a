"""Tests for the exact annulus law — every inequality of Section 5.5 / App. A.1."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annulus import (
    AnnulusLaw,
    future_rand_bounds,
    future_rand_eps_tilde,
)
from repro.utils.numerics import LOG_ZERO, log_binom, logsumexp

K_GRID = [1, 2, 3, 4, 8, 16, 37, 64, 100, 256, 1000]
EPS_GRID = [0.05, 0.25, 0.5, 1.0]


def law_grid():
    for k in K_GRID:
        for epsilon in EPS_GRID:
            yield k, epsilon, AnnulusLaw.for_future_rand(k, epsilon)


class TestParameterization:
    def test_eps_tilde_formula(self):
        assert future_rand_eps_tilde(4, 1.0) == pytest.approx(0.1)

    def test_eps_tilde_rejects_bad_args(self):
        with pytest.raises(ValueError):
            future_rand_eps_tilde(0, 1.0)
        with pytest.raises(ValueError):
            future_rand_eps_tilde(4, 0.0)

    def test_bounds_lb_formula(self):
        k, eps_tilde = 16, 0.05
        lower, _ = future_rand_bounds(k, eps_tilde)
        p = 1.0 / (math.exp(eps_tilde) + 1.0)
        assert lower == pytest.approx(k * p - 2 * math.sqrt(k))

    def test_g_at_ub_is_2_to_minus_k(self):
        """The defining property of UB (Eq. 15 / proof of Lemma 5.2)."""
        for k, _epsilon, law in law_grid():
            _, upper = law.real_bounds
            assert float(law.log_g(upper)) == pytest.approx(
                -k * math.log(2.0), rel=1e-9
            )

    def test_ub_between_kp_and_half_k(self):
        """Eq. 21: kp <= UB <= k/2."""
        for k, _epsilon, law in law_grid():
            _, upper = law.real_bounds
            kp = k * law.flip_probability
            assert kp - 1e-9 <= upper <= k / 2.0 + 1e-9


class TestIntegerAnnulus:
    def test_annulus_non_empty(self):
        for k, _epsilon, law in law_grid():
            assert 0 <= law.lo <= law.hi <= k

    def test_complement_non_empty_for_future_rand(self):
        for _k, _epsilon, law in law_grid():
            assert (law.lo, law.hi) != (0, law.k)
            assert law.log_p_out > LOG_ZERO

    def test_annulus_within_real_bounds(self):
        for _k, _epsilon, law in law_grid():
            lower, upper = law.real_bounds
            assert law.lo >= lower - 1e-6
            assert law.hi <= upper + 1e-6

    def test_empty_integer_annulus_rejected(self):
        with pytest.raises(ValueError):
            AnnulusLaw(10, 0.1, lower=3.4, upper=3.6)

    def test_full_cover_flagged(self):
        law = AnnulusLaw(4, 0.1, lower=-1.0, upper=10.0)
        assert (law.lo, law.hi) == (0, law.k)
        assert law.log_p_out == LOG_ZERO

    def test_rejects_bad_eps_tilde(self):
        with pytest.raises(ValueError):
            AnnulusLaw(4, -0.1, lower=0.0, upper=2.0)


class TestLawNormalization:
    def test_distance_pmf_sums_to_one(self):
        for k, _epsilon, law in law_grid():
            if k > 300:
                continue
            assert law.distance_pmf().sum() == pytest.approx(1.0, abs=1e-9)

    def test_total_sequence_mass_is_one(self):
        """Sum over all 2^k sequences of the exact law equals 1."""
        for k in (1, 2, 4, 8, 12):
            law = AnnulusLaw.for_future_rand(k, 1.0)
            total = logsumexp(
                log_binom(k, i) + law.log_prob_at_distance(i) for i in range(k + 1)
            )
            assert total == pytest.approx(0.0, abs=1e-9)

    def test_mass_inside_plus_outside_is_one(self):
        for _k, _epsilon, law in law_grid():
            total = math.exp(law.log_mass_inside) + math.exp(law.log_mass_outside)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_counts_add_to_2_to_k(self):
        for k in (1, 2, 5, 10, 30):
            law = AnnulusLaw.for_future_rand(k, 1.0)
            total = math.exp(law.log_count_inside) + math.exp(law.log_count_outside)
            assert total == pytest.approx(2.0**k, rel=1e-9)

    def test_g_is_the_product_of_basic_randomizers(self):
        """``g(i)`` is the probability of one output at distance ``i`` when
        every coordinate flips independently, so ``sum C(k,i) g(i) = 1``."""
        for k in (1, 4, 12):
            law = AnnulusLaw.for_future_rand(k, 1.0)
            q = law.flip_probability
            for i in range(k + 1):
                assert math.exp(law.log_g(i)) == pytest.approx(
                    q**i * (1 - q) ** (k - i), rel=1e-12
                )
            total = sum(math.comb(k, i) * math.exp(law.log_g(i)) for i in range(k + 1))
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_g_is_decreasing(self):
        law = AnnulusLaw.for_future_rand(20, 1.0)
        values = [float(law.log_g(i)) for i in range(21)]
        assert all(a > b for a, b in zip(values, values[1:], strict=False))

    def test_prob_at_distance_rejects_out_of_range(self):
        law = AnnulusLaw.for_future_rand(4, 1.0)
        with pytest.raises(ValueError):
            law.log_prob_at_distance(5)
        with pytest.raises(ValueError):
            law.log_prob_at_distance(-1)


class TestLemma52Inequalities:
    def test_privacy_ratio_at_most_epsilon(self):
        """Lemma 5.2: p'_max / p'_min <= e^eps (the theorem's guarantee)."""
        for _k, epsilon, law in law_grid():
            assert law.privacy_log_ratio() <= epsilon + 1e-9

    def test_p_out_at_most_2_to_minus_k(self):
        """Inequality (20), upper half: P*_out <= 2^-k."""
        for k, _epsilon, law in law_grid():
            assert law.log_p_out <= -k * math.log(2.0) + 1e-9

    def test_p_out_lower_bound(self):
        """Inequality (20), lower half: P*_out >= e^(-3 eps~ sqrt(k)) p_avg."""
        for k, _epsilon, law in law_grid():
            bound = -3.0 * law.eps_tilde * math.sqrt(k) + law.log_p_avg
            assert law.log_p_out >= bound - 1e-9

    def test_inside_probabilities_bracketed(self):
        """Inequality (19): 2^-k <= Pr[R~(b)=s] <= e^(2 eps~ sqrt(k)) p_avg inside."""
        for k, _epsilon, law in law_grid():
            upper = 2.0 * law.eps_tilde * math.sqrt(k) + law.log_p_avg
            for i in (law.lo, (law.lo + law.hi) // 2, law.hi):
                value = law.log_prob_at_distance(i)
                assert value >= -k * math.log(2.0) - 1e-9
                assert value <= upper + 1e-9

    def test_p_avg_at_least_2_to_minus_k(self):
        """Equation (37): p_avg = g(kp) >= 2^-k >= g(k/2)."""
        for k, _epsilon, law in law_grid():
            assert law.log_p_avg >= -k * math.log(2.0) - 1e-9
            assert float(law.log_g(k / 2.0)) <= -k * math.log(2.0) + 1e-9


class TestCGap:
    def test_positive_across_grid(self):
        for _k, _epsilon, law in law_grid():
            assert law.c_gap > 0.0

    def test_lemma_53_lower_bound_constant(self):
        """c_gap * sqrt(k) / eps is bounded below by a universal constant."""
        constants = [
            law.c_gap * math.sqrt(k) / epsilon for k, epsilon, law in law_grid()
        ]
        assert min(constants) > 0.05

    def test_cross_check_with_coordinate_probabilities(self):
        """Two independent derivations of c_gap must agree exactly."""
        for k in (1, 2, 4, 16, 64, 256):
            law = AnnulusLaw.for_future_rand(k, 1.0)
            keep, flip = law.coordinate_preservation_probabilities()
            assert keep + flip == pytest.approx(1.0, abs=1e-9)
            assert keep - flip == pytest.approx(law.c_gap, abs=1e-9)

    def test_k_equals_one_matches_basic_randomizer(self):
        """At k=1 the annulus is {0}, so c_gap = tanh(eps~/2)."""
        law = AnnulusLaw.for_future_rand(1, 1.0)
        assert law.c_gap == pytest.approx(math.tanh(0.2 / 2.0), rel=1e-9)

    def test_monotone_decreasing_in_k(self):
        gaps = [AnnulusLaw.for_future_rand(k, 1.0).c_gap for k in (4, 16, 64, 256)]
        assert all(a > b for a, b in zip(gaps, gaps[1:], strict=False))

    def test_increasing_in_epsilon(self):
        gaps = [AnnulusLaw.for_future_rand(16, eps).c_gap for eps in (0.1, 0.5, 1.0)]
        assert all(a < b for a, b in zip(gaps, gaps[1:], strict=False))

    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_cgap_property(self, k, epsilon):
        law = AnnulusLaw.for_future_rand(k, epsilon)
        assert 0.0 < law.c_gap < 1.0
        assert law.privacy_log_ratio() <= epsilon + 1e-9


class TestOutsideDistribution:
    def test_sums_to_one(self):
        law = AnnulusLaw.for_future_rand(16, 1.0)
        _, probabilities = law.outside_distance_distribution
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_distances_outside_annulus(self):
        law = AnnulusLaw.for_future_rand(16, 1.0)
        distances, _ = law.outside_distance_distribution
        assert all(i < law.lo or i > law.hi for i in distances)

    def test_sampling_matches_weights(self, rng):
        law = AnnulusLaw.for_future_rand(8, 1.0)
        distances, probabilities = law.outside_distance_distribution
        samples = law.sample_outside_distances(20_000, rng)
        for distance, probability in zip(distances, probabilities, strict=True):
            if probability < 1e-4:
                continue
            empirical = float((samples == distance).mean())
            tolerance = 5 * math.sqrt(probability * (1 - probability) / 20_000)
            assert abs(empirical - probability) < tolerance

    def test_full_cover_raises(self):
        law = AnnulusLaw(4, 0.1, lower=-1.0, upper=10.0)
        with pytest.raises(RuntimeError):
            law.sample_outside_distances(1, np.random.default_rng(0))
