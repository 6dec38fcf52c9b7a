"""Tests for the data derivative (Definition 3.1).

``X_u[t] = st_u[t] - st_u[t-1]`` (with ``st_u[0] = 0``) is exactly the
vector of order-0 partial sums, which is how every protocol computes it:
:func:`partial_sums_of_order` for one user, :func:`group_partial_sums` for
a population matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.vectorized import group_partial_sums
from repro.dyadic.partial_sums import partial_sums_of_order

boolean_sequences = st.integers(min_value=0, max_value=6).flatmap(
    lambda log: st.lists(
        st.integers(min_value=0, max_value=1), min_size=1 << log, max_size=1 << log
    )
)


def derivative(states) -> np.ndarray:
    return partial_sums_of_order(states, 0)


class TestDerivative:
    def test_paper_example(self):
        """st_u = (0,1,1,0) has X_u = (0,1,0,-1) (Definition 3.1)."""
        assert derivative([0, 1, 1, 0]).tolist() == [0, 1, 0, -1]

    def test_initial_one_counts_as_change(self):
        assert derivative([1, 1]).tolist() == [1, 0]

    def test_2d_rows_independent(self):
        matrix = group_partial_sums(np.array([[0, 1], [1, 0]]), 0)
        assert matrix.tolist() == [[0, 1], [1, -1]]

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            derivative([0, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            derivative([])

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            derivative(np.zeros((2, 2, 2), dtype=int))

    @given(boolean_sequences)
    def test_roundtrip(self, states):
        assert np.cumsum(derivative(states)).tolist() == states

    @given(boolean_sequences)
    def test_values_in_range(self, states):
        assert set(derivative(states).tolist()) <= {-1, 0, 1}


class TestChangeCount:
    @given(boolean_sequences)
    def test_count_matches_adjacent_differences(self, states):
        expected = sum(
            1 for a, b in zip([0, *states[:-1]], states, strict=True) if a != b
        )
        assert np.count_nonzero(derivative(states)) == expected
