"""Tests for the end-to-end protocol drivers (object/online and vectorized)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.bounds import hoeffding_radius
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.core.simple_randomizer import SimpleRandomizerFamily
from repro.core.vectorized import group_partial_sums, run_batch
from repro.dyadic.partial_sums import partial_sums_of_order
from repro.protocols import get_protocol

#: The per-user object reference driver (one Client per user).
OBJECT_REFERENCE = get_protocol("future_rand_object")


class TestProtocolResult:
    def test_error_properties(self):
        result = ProtocolResult(
            estimates=np.array([1.0, 3.0]),
            true_counts=np.array([0.0, 1.0]),
            c_gap=0.5,
            family_name="x",
        )
        assert result.errors.tolist() == [1.0, 2.0]
        assert result.max_abs_error == 2.0
        assert result.mean_abs_error == 1.5


class TestInputValidation:
    def test_shape_mismatch(self, small_params, small_states, rng):
        with pytest.raises(ValueError):
            OBJECT_REFERENCE.run(small_states[:, :8], small_params, rng)
        with pytest.raises(ValueError):
            run_batch(small_states[:10], small_params, rng)

    def test_non_boolean_states(self, small_params, rng):
        states = np.full((small_params.n, small_params.d), 2, dtype=np.int8)
        with pytest.raises(ValueError):
            run_batch(states, small_params, rng)

    def test_change_budget_enforced(self, small_params, rng):
        states = np.zeros((small_params.n, small_params.d), dtype=np.int8)
        states[0, ::2] = 1  # alternating: d/2 changes >> k
        with pytest.raises(ValueError):
            run_batch(states, small_params, rng)
        with pytest.raises(ValueError):
            OBJECT_REFERENCE.run(states, small_params, rng)

    def test_rejects_1d(self, small_params, rng):
        with pytest.raises(ValueError):
            run_batch(np.zeros(16, dtype=np.int8), small_params, rng)


class TestGroupPartialSums:
    def test_matches_per_user_api(self, rng):
        states = rng.integers(0, 2, size=(15, 16)).astype(np.int8)
        for order in range(5):
            expected = np.array(
                [partial_sums_of_order(row, order) for row in states]
            )
            assert np.array_equal(group_partial_sums(states, order), expected)


class TestStatisticalCorrectness:
    def test_batch_estimates_unbiased(self, small_params, small_states):
        trials = 40
        errors_at_end = []
        for trial in range(trials):
            result = run_batch(
                small_states, small_params, np.random.default_rng(5000 + trial)
            )
            errors_at_end.append(result.errors[-1])
        mean = float(np.mean(errors_at_end))
        standard_error = float(np.std(errors_at_end, ddof=1) / np.sqrt(trials))
        assert abs(mean) < 4 * standard_error + 1e-9

    def test_online_estimates_unbiased(self, small_states):
        params = ProtocolParams(n=100, d=16, k=3, epsilon=1.0)
        states = small_states[:100]
        trials = 25
        errors_at_end = []
        for trial in range(trials):
            result = OBJECT_REFERENCE.run(states, params, np.random.default_rng(6000 + trial))
            errors_at_end.append(result.errors[-1])
        mean = float(np.mean(errors_at_end))
        standard_error = float(np.std(errors_at_end, ddof=1) / np.sqrt(trials))
        assert abs(mean) < 4 * standard_error + 1e-9

    def test_online_and_batch_same_error_scale(self, small_params, small_states):
        """The two drivers realize the same protocol: their error standard
        deviations must agree within Monte-Carlo tolerance."""
        trials = 15
        online_errors = [
            OBJECT_REFERENCE.run(
                small_states, small_params, np.random.default_rng(100 + t)
            ).errors[-1]
            for t in range(trials)
        ]
        batch_errors = [
            run_batch(
                small_states, small_params, np.random.default_rng(200 + t)
            ).errors[-1]
            for t in range(trials)
        ]
        std_online = np.std(online_errors, ddof=1)
        std_batch = np.std(batch_errors, ddof=1)
        assert 0.3 < std_online / std_batch < 3.0

    def test_max_error_within_hoeffding_radius(self, small_params, small_states, rng):
        """Lemma 4.6 with beta' = beta/d: a single run should essentially
        always stay within the explicit radius (the bound is loose)."""
        result = run_batch(small_states, small_params, rng)
        radius = hoeffding_radius(
            small_params, result.c_gap, small_params.beta / small_params.d
        )
        assert result.max_abs_error <= radius

    def test_custom_family(self, small_params, small_states, rng):
        family = SimpleRandomizerFamily(small_params.k, small_params.epsilon)
        result = run_batch(small_states, small_params, rng, family=family)
        assert result.family_name == "simple_rr"
        assert result.c_gap == family.c_gap

    def test_orders_recorded(self, small_params, small_states, rng):
        result = run_batch(small_states, small_params, rng)
        assert result.orders.shape == (small_params.n,)
        assert result.orders.min() >= 0
        assert result.orders.max() <= small_params.log_d

    def test_deterministic_given_seed(self, small_params, small_states):
        a = run_batch(small_states, small_params, np.random.default_rng(1))
        b = run_batch(small_states, small_params, np.random.default_rng(1))
        assert np.array_equal(a.estimates, b.estimates)
