"""Tests for partial sums (Def. 3.4, Observations 3.6–3.9)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dyadic.intervals import DyadicInterval, decompose_prefix, interval_set
from repro.dyadic.partial_sums import all_partial_sums, partial_sums_of_order

EXAMPLE = [0, 1, 1, 0]  # st_u with X_u = (0, 1, 0, -1)


def power_of_two_states(max_log: int = 5):
    """Strategy: Boolean sequences whose length is a power of two."""
    return st.integers(min_value=0, max_value=max_log).flatmap(
        lambda log: st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=1 << log,
            max_size=1 << log,
        )
    )


class TestPartialSum:
    def test_example_35(self):
        """Every value printed in Example 3.5."""
        expected = {
            DyadicInterval(0, 1): 0,
            DyadicInterval(0, 2): 1,
            DyadicInterval(0, 3): 0,
            DyadicInterval(0, 4): -1,
            DyadicInterval(1, 1): 1,
            DyadicInterval(1, 2): -1,
            DyadicInterval(2, 1): 0,
        }
        assert all_partial_sums(EXAMPLE) == expected

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            partial_sums_of_order([0, 1, 0], 0)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            partial_sums_of_order(np.zeros((2, 4), dtype=int), 0)

    @given(power_of_two_states())
    def test_observation_37_range(self, states):
        """Observation 3.7: every partial sum is in {-1, 0, 1}."""
        assert set(all_partial_sums(states).values()) <= {-1, 0, 1}


class TestPartialSumsOfOrder:
    def test_example(self):
        assert partial_sums_of_order(EXAMPLE, 1).tolist() == [1, -1]
        assert partial_sums_of_order(EXAMPLE, 2).tolist() == [0]

    def test_order_zero_is_derivative(self):
        assert partial_sums_of_order(EXAMPLE, 0).tolist() == [0, 1, 0, -1]

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            partial_sums_of_order(EXAMPLE, 3)

    @given(power_of_two_states())
    def test_matches_scalar_api(self, states):
        """Each entry is Observation 3.7's boundary difference."""
        d = len(states)
        for order in range(d.bit_length()):
            vector = partial_sums_of_order(states, order)
            for j, value in enumerate(vector, start=1):
                interval = DyadicInterval(order, j)
                before = states[interval.start - 2] if interval.start > 1 else 0
                assert value == states[interval.end - 1] - before

    @given(power_of_two_states())
    def test_observation_36_sparsity(self, states):
        """Observation 3.6: at most k non-zero partial sums per order."""
        deriv_nonzeros = int(
            np.count_nonzero(np.diff(np.concatenate([[0], states])))
        )
        d = len(states)
        for order in range(d.bit_length()):
            vector = partial_sums_of_order(states, order)
            assert int(np.count_nonzero(vector)) <= deriv_nonzeros


class TestAllPartialSums:
    def test_covers_interval_set(self):
        sums = all_partial_sums(EXAMPLE)
        assert set(sums) == set(interval_set(4))

    @given(power_of_two_states())
    def test_observation_39_reconstruction(self, states):
        """Observation 3.9: prefixes reconstruct from C(t)."""
        sums = all_partial_sums(states)
        for t in range(1, len(states) + 1):
            assert sum(sums[i] for i in decompose_prefix(t)) == states[t - 1]
