"""Tests for the memoization baseline and its privacy leakage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.basic_randomizer import flip_probability
from repro.core.params import ProtocolParams
from repro.protocols import get_protocol

MEMOIZATION = get_protocol("memoization")
run_naive_split = get_protocol("naive_split").run


def run_memoization(states, params, rng):
    return MEMOIZATION.run(states, params, rng)


def change_time_leakage(states, epsilon, rng):
    """The fraction of true change times a passive observer recovers exactly.

    A memoizing user's report changes at ``t`` if and only if their value
    changed at ``t`` and their two memoized answers differ, so every report
    change is a true change (precision 1) and the result is the observer's
    recall.  The per-user report stream is rebuilt from the session's
    memoized answers, exactly as ``ingest`` replays them.
    """
    n, d = states.shape
    session = MEMOIZATION.prepare(
        ProtocolParams(n=n, d=d, k=d, epsilon=epsilon), rng
    )
    reports = np.where(
        states == 1,
        session._answer_for_one[:, np.newaxis],
        session._answer_for_zero[:, np.newaxis],
    )
    true_changes = np.diff(states, axis=1) != 0
    report_changes = np.diff(reports, axis=1) != 0
    total_changes = int(true_changes.sum())
    if total_changes == 0:
        return 0.0
    return int((true_changes & report_changes).sum()) / total_changes


class TestAccuracy:
    def test_unbiased(self, small_params, small_states):
        trials = 40
        errors = [
            run_memoization(
                small_states, small_params, np.random.default_rng(600 + t)
            ).errors[-1]
            for t in range(trials)
        ]
        mean = float(np.mean(errors))
        standard_error = float(np.std(errors, ddof=1) / np.sqrt(trials))
        assert abs(mean) < 4 * standard_error + 1e-9

    def test_much_more_accurate_than_split(self, small_params, small_states, rng):
        memoized = run_memoization(small_states, small_params, rng)
        split = run_naive_split(small_states, small_params, rng)
        assert memoized.max_abs_error < split.max_abs_error / 2

    def test_family_name_carries_warning(self, small_params, small_states, rng):
        result = run_memoization(small_states, small_params, rng)
        assert "NOT" in result.family_name

    def test_replay_is_deterministic_per_value(self, small_params, rng):
        """While a user's value is constant, their report never changes, so
        every estimate before the common change time (and every one after
        it) is the same number."""
        states = np.zeros((small_params.n, small_params.d), dtype=np.int8)
        half = small_params.d // 2
        states[:, half:] = 1  # one change per user
        estimates = run_memoization(states, small_params, rng).estimates
        assert estimates.shape == (small_params.d,)
        assert np.all(estimates[:half] == estimates[0])
        assert np.all(estimates[half:] == estimates[half])

    def test_validation(self, small_params, rng):
        with pytest.raises(ValueError):
            run_memoization(
                np.zeros((3, small_params.d), dtype=np.int8), small_params, rng
            )
        with pytest.raises(ValueError):
            run_memoization(
                np.full((small_params.n, small_params.d), 2), small_params, rng
            )


class TestLeakage:
    def test_change_times_leak_massively(self, rng):
        """The privacy failure the paper warns about: most change times are
        recovered exactly by a passive adversary."""
        n, d = 2000, 32
        states = np.zeros((n, d), dtype=np.int8)
        states[:, 10:] = 1  # everyone changes at t=11
        leakage = change_time_leakage(states, epsilon=1.0, rng=rng)
        # A change is visible iff the two memoized answers differ.  The
        # answer for value 1 is +1 w.p. keep; the answer for value 0 is -1
        # w.p. keep; they differ when both are kept or both are flipped:
        keep = 1.0 - flip_probability(1.0)
        expected = keep**2 + (1 - keep) ** 2
        assert leakage == pytest.approx(expected, abs=0.05)
        assert leakage > 0.5  # far from private

    def test_no_changes_no_leakage(self, rng):
        states = np.zeros((50, 16), dtype=np.int8)
        assert change_time_leakage(states, epsilon=1.0, rng=rng) == 0.0

    def test_validation(self, small_params, rng):
        """One-shot input that is not a 2-D state matrix is refused."""
        with pytest.raises(ValueError, match="2-D"):
            run_memoization(np.zeros(small_params.d), small_params, rng)
