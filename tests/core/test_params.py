"""Tests for ProtocolParams validation and derived quantities."""

from __future__ import annotations

import math

import pytest

from repro.core.annulus import future_rand_eps_tilde
from repro.core.params import ProtocolParams


class TestValidation:
    def test_valid_construction(self):
        params = ProtocolParams(n=100, d=16, k=2, epsilon=0.5, beta=0.1)
        assert params.n == 100
        assert params.beta == 0.1

    def test_d_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, d=12, k=2, epsilon=1.0)

    def test_k_cannot_exceed_d(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, d=4, k=5, epsilon=1.0)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, d=4, k=2, epsilon=0.0)

    def test_beta_in_unit_interval(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, d=4, k=2, epsilon=1.0, beta=1.0)

    def test_n_positive(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=0, d=4, k=2, epsilon=1.0)

    def test_epsilon_above_one_allowed_by_default(self):
        params = ProtocolParams(n=10, d=4, k=2, epsilon=2.0)
        assert params.epsilon == 2.0


class TestDerivedQuantities:
    def test_log_d(self):
        assert ProtocolParams(n=10, d=256, k=2, epsilon=1.0).log_d == 8

    def test_num_orders(self):
        assert ProtocolParams(n=10, d=256, k=2, epsilon=1.0).num_orders == 9

    def test_eps_tilde(self):
        """FutureRand's per-coordinate budget at these params (Lemma 5.2)."""
        params = ProtocolParams(n=10, d=16, k=4, epsilon=1.0)
        assert future_rand_eps_tilde(params.k, params.epsilon) == pytest.approx(
            1.0 / 10.0
        )


class TestTheoremAssumptions:
    def test_satisfied_for_large_n(self):
        params = ProtocolParams(n=10**6, d=16, k=2, epsilon=1.0)
        params.check_theorem_assumptions()

    def test_violated_for_tiny_n(self):
        params = ProtocolParams(n=4, d=1024, k=8, epsilon=0.1)
        with pytest.raises(ValueError):
            params.check_theorem_assumptions()

    def test_epsilon_above_one_fails_assumptions(self):
        params = ProtocolParams(n=10**6, d=16, k=2, epsilon=1.5)
        with pytest.raises(ValueError):
            params.check_theorem_assumptions()

    def test_boundary_formula(self):
        params = ProtocolParams(n=10**6, d=16, k=2, epsilon=1.0)
        lhs = (1 / params.epsilon) * params.log_d * math.sqrt(
            params.k * math.log(params.d / params.beta)
        )
        assert lhs <= math.sqrt(params.n)


class TestWithUpdates:
    def test_updates_field(self):
        params = ProtocolParams(n=100, d=16, k=2, epsilon=1.0)
        bigger = params.with_updates(n=200)
        assert bigger.n == 200
        assert bigger.d == params.d

    def test_updates_revalidate(self):
        params = ProtocolParams(n=100, d=16, k=2, epsilon=1.0)
        with pytest.raises(ValueError):
            params.with_updates(d=7)

    def test_original_unchanged(self):
        params = ProtocolParams(n=100, d=16, k=2, epsilon=1.0)
        params.with_updates(k=3)
        assert params.k == 2
