"""Tests for the Erlingsson et al. (2020) baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.protocols import get_protocol

ERLINGSSON = get_protocol("erlingsson")
run_erlingsson = ERLINGSSON.run


def sample_single_change(
    states: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """The integral of each user's kept derivative, as the session keeps it.

    Streams ``states`` through an Erlingsson session and records, after each
    period, the running sum of the one change each user's sampled slot keeps
    (values in {-1, 0, 1}: a kept "down" change integrates to -1).
    """
    n, d = states.shape
    session = ERLINGSSON.prepare(ProtocolParams(n=n, d=d, k=k, epsilon=1.0), rng)
    kept = np.empty((n, d), dtype=np.int8)
    for t in range(1, d + 1):
        session.ingest(t, states[:, t - 1])
        kept[:, t - 1] = session._kept_value
    return kept


class TestOnlineSlotSampling:
    def test_keeps_at_most_one_change(self, small_states, rng):
        sampled = sample_single_change(small_states, k=3, rng=rng)
        changes = np.count_nonzero(np.diff(sampled, axis=1, prepend=0), axis=1)
        assert changes.max() <= 1

    def test_output_is_integral_of_single_change(self, small_states, rng):
        """Values stay in {-1, 0, 1}: the cumulative sum of a 1-sparse
        derivative (down-changes kept alone integrate to -1 legitimately)."""
        sampled = sample_single_change(small_states, k=3, rng=rng)
        assert set(np.unique(sampled).tolist()) <= {-1, 0, 1}

    def test_kept_change_matches_original_position(self, rng):
        states = np.array([[0, 1, 1, 0]], dtype=np.int8)  # changes at t=2, t=4
        for seed in range(20):
            sampled = sample_single_change(states, k=2, rng=np.random.default_rng(seed))
            deriv = np.diff(sampled[0], prepend=0)
            nonzeros = np.flatnonzero(deriv)
            assert nonzeros.size <= 1
            if nonzeros.size == 1:
                t = nonzeros[0]
                assert t in (1, 3)  # 0-based positions of the true changes
                original = np.diff(states[0], prepend=0)
                assert deriv[t] == original[t]

    def test_expected_value_is_original_over_k(self):
        """E[kept derivative] = X_u / k — the basis of the x k debias.

        Every user holds the same sequence and samples its slot
        independently, so the users are the trials."""
        trials = 20_000
        states = np.tile(np.array([[0, 1, 1, 0]], dtype=np.int8), (trials, 1))
        k = 4
        sampled = sample_single_change(states, k=k, rng=np.random.default_rng(5))
        mean = np.diff(sampled, axis=1, prepend=0).mean(axis=0)
        expected = np.diff(states[0], prepend=0) / k
        assert np.allclose(mean, expected, atol=0.01)


class TestRunErlingsson:
    def test_result_shape(self, small_params, small_states, rng):
        result = run_erlingsson(small_states, small_params, rng)
        assert result.estimates.shape == (small_params.d,)
        assert result.family_name == "erlingsson2020"

    def test_unbiased(self, small_params, small_states):
        trials = 40
        errors = [
            run_erlingsson(
                small_states, small_params, np.random.default_rng(3000 + t)
            ).errors[-1]
            for t in range(trials)
        ]
        mean = float(np.mean(errors))
        standard_error = float(np.std(errors, ddof=1) / np.sqrt(trials))
        assert abs(mean) < 4 * standard_error + 1e-9

    def test_error_grows_linearly_with_k(self, rng):
        """The estimator scale is proportional to k, so on an all-zero
        population (pure noise) the error scales ~k exactly."""
        n, d = 2000, 16
        states = np.zeros((n, d), dtype=np.int8)
        errors = {}
        for k in (2, 8):
            params = ProtocolParams(n=n, d=d, k=k, epsilon=1.0)
            runs = [
                run_erlingsson(states, params, np.random.default_rng(100 + t)).max_abs_error
                for t in range(5)
            ]
            errors[k] = float(np.mean(runs))
        assert errors[8] / errors[2] == pytest.approx(4.0, rel=0.5)

    def test_validation(self, small_params, small_states, rng):
        with pytest.raises(ValueError):
            run_erlingsson(small_states[:, :4], small_params, rng)
        dense = np.zeros_like(small_states)
        dense[0, ::2] = 1
        with pytest.raises(ValueError):
            run_erlingsson(dense, small_params, rng)
        with pytest.raises(ValueError):
            run_erlingsson(np.full_like(small_states, 2), small_params, rng)
