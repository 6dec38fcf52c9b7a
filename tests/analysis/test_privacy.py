"""Tests for exact privacy verification — including brute-force cross-checks."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.analysis.privacy import (
    client_report_log_ratio,
    enumerate_composed_law,
    enumerate_future_rand_report_law,
    sequence_support_patterns,
    support_pattern_log_prob,
)
from repro.core.annulus import AnnulusLaw, future_rand_bounds
from repro.utils.numerics import LOG_ZERO


class TestEnumerateComposedLaw:
    def test_sums_to_one(self):
        law = AnnulusLaw.for_future_rand(k=6, epsilon=1.0)
        b = np.ones(6, dtype=np.int8)
        table = enumerate_composed_law(law, b)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)

    def test_ratio_matches_analytic(self):
        law = AnnulusLaw.for_future_rand(k=5, epsilon=1.0)
        b = np.ones(5, dtype=np.int8)
        table = enumerate_composed_law(law, b)
        ratio = math.log(max(table.values()) / min(table.values()))
        assert ratio == pytest.approx(law.privacy_log_ratio(), abs=1e-9)

    def test_wrong_length_rejected(self):
        law = AnnulusLaw.for_future_rand(k=3, epsilon=1.0)
        with pytest.raises(ValueError):
            enumerate_composed_law(law, np.ones(4, dtype=np.int8))


class TestSupportPatternLogProb:
    def test_m_zero_is_total_mass(self):
        law = AnnulusLaw.for_future_rand(k=4, epsilon=1.0)
        assert support_pattern_log_prob(law, 0, 0) == pytest.approx(0.0, abs=1e-9)

    def test_m_k_is_pointwise_law(self):
        law = AnnulusLaw.for_future_rand(k=4, epsilon=1.0)
        for r in range(5):
            assert support_pattern_log_prob(law, 4, r) == pytest.approx(
                law.log_prob_at_distance(r), abs=1e-12
            )

    def test_suffix_sum_identity(self):
        """q(m, r) = q(m+1, r) + q(m+1, r+1): fixing one more free coordinate
        splits its mass between agreeing and disagreeing values."""
        law = AnnulusLaw.for_future_rand(k=6, epsilon=1.0)
        for m in range(6):
            for r in range(m + 1):
                combined = np.logaddexp(
                    support_pattern_log_prob(law, m + 1, r),
                    support_pattern_log_prob(law, m + 1, r + 1),
                )
                assert combined == pytest.approx(
                    support_pattern_log_prob(law, m, r), abs=1e-9
                )

    def test_bad_arguments(self):
        law = AnnulusLaw.for_future_rand(k=3, epsilon=1.0)
        with pytest.raises(ValueError):
            support_pattern_log_prob(law, 4, 0)
        with pytest.raises(ValueError):
            support_pattern_log_prob(law, 2, 3)


class TestReportLawEnumeration:
    def test_sums_to_one(self):
        law = AnnulusLaw.for_future_rand(k=2, epsilon=1.0)
        for v in ([0, 0, 0, 0], [0, 1, 0, 0], [1, 0, -1, 0], [0, -1, 0, 1]):
            table = enumerate_future_rand_report_law(law, np.array(v, dtype=np.int8))
            assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_input_is_uniform(self):
        law = AnnulusLaw.for_future_rand(k=2, epsilon=1.0)
        table = enumerate_future_rand_report_law(law, np.zeros(3, dtype=np.int8))
        for probability in table.values():
            assert probability == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_support_exceeding_k_rejected(self):
        law = AnnulusLaw.for_future_rand(k=1, epsilon=1.0)
        with pytest.raises(ValueError):
            enumerate_future_rand_report_law(law, np.array([1, -1], dtype=np.int8))


class TestSequenceSupportPatterns:
    def test_count(self):
        """Number of k-sparse sign sequences = sum_j C(L,j) 2^j."""
        patterns = list(sequence_support_patterns(4, 2))
        expected = 1 + 4 * 2 + 6 * 4
        assert len(patterns) == expected

    def test_all_within_sparsity(self):
        for v in sequence_support_patterns(5, 2):
            assert int(np.count_nonzero(v)) <= 2


def _reference_client_report_log_ratio(law, max_support=None):
    """The per-(m, r) evaluation ``client_report_log_ratio`` replaced."""
    k = law.k
    top = max_support if max_support is not None else k
    best_high = LOG_ZERO
    best_low = math.inf
    for m in range(top + 1):
        for r in range(m + 1):
            value = m * math.log(2.0) + support_pattern_log_prob(law, m, r)
            best_high = max(best_high, value)
            best_low = min(best_low, value)
    return best_high - best_low


class TestClientReportRatio:
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 17, 40])
    @pytest.mark.parametrize("epsilon", [0.25, 1.0, 3.0])
    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_matches_per_pair_evaluation_exactly(self, k, epsilon, scale):
        """Hoisting the law and the binomial rows out of the (m, r) loop
        keeps every term and its order, so the ratio is equal, not close."""
        eps_tilde = scale * epsilon / (5.0 * math.sqrt(k))
        scaled = AnnulusLaw(k, eps_tilde, *future_rand_bounds(k, eps_tilde))
        for candidate in (AnnulusLaw.for_future_rand(k, epsilon), scaled):
            for top in (None, k // 2):
                assert client_report_log_ratio(
                    candidate, max_support=top
                ) == _reference_client_report_log_ratio(candidate, top)

    def test_matches_brute_force(self):
        """The O(k^2) closed form equals the exhaustive max over all k-sparse
        input pairs and outputs — the definition of the privacy ratio."""
        law = AnnulusLaw.for_future_rand(k=2, epsilon=1.0)
        length = 4
        laws = {}
        for v in sequence_support_patterns(length, 2):
            laws[tuple(v.tolist())] = enumerate_future_rand_report_law(law, v)
        worst = 0.0
        for (_va, table_a), (_vb, table_b) in itertools.product(laws.items(), repeat=2):
            for word in table_a:
                ratio = math.log(table_a[word] / table_b[word])
                worst = max(worst, ratio)
        assert worst == pytest.approx(client_report_log_ratio(law), abs=1e-9)

    def test_theorem_45_grid(self):
        """Theorem 4.5: the client report is epsilon-LDP."""
        for epsilon in (0.25, 0.5, 1.0):
            for k in (1, 2, 3, 4, 8, 16, 32):
                law = AnnulusLaw.for_future_rand(k, epsilon)
                assert client_report_log_ratio(law) <= epsilon + 1e-9

    def test_max_support_argument(self):
        law = AnnulusLaw.for_future_rand(k=4, epsilon=1.0)
        restricted = client_report_log_ratio(law, max_support=2)
        full = client_report_log_ratio(law)
        assert restricted <= full + 1e-12
        with pytest.raises(ValueError):
            client_report_log_ratio(law, max_support=5)

    def test_client_ratio_at_least_composed_ratio(self):
        """Support size m=k reproduces the composed randomizer's ratio, so the
        client-level ratio can never be smaller."""
        for k in (2, 4, 8):
            law = AnnulusLaw.for_future_rand(k, 1.0)
            assert (
                client_report_log_ratio(law)
                >= law.privacy_log_ratio() - 1e-9
            )
