"""Tests for the data derivative (Definition 3.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dyadic.derivative import (
    change_count,
    derivative,
    integrate,
)

boolean_sequences = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


class TestDerivative:
    def test_paper_example(self):
        """st_u = (0,1,1,0) has X_u = (0,1,0,-1) (Definition 3.1)."""
        assert derivative([0, 1, 1, 0]).tolist() == [0, 1, 0, -1]

    def test_initial_one_counts_as_change(self):
        assert derivative([1, 1]).tolist() == [1, 0]

    def test_2d_rows_independent(self):
        matrix = derivative(np.array([[0, 1], [1, 0]]))
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
        assert integrate(derivative(states)).tolist() == states

    @given(boolean_sequences)
    def test_values_in_range(self, states):
        assert set(derivative(states).tolist()) <= {-1, 0, 1}


class TestIntegrate:
    def test_paper_example(self):
        assert integrate([0, 1, 0, -1]).tolist() == [0, 1, 1, 0]

    def test_rejects_invalid_derivative(self):
        with pytest.raises(ValueError):
            integrate([0, -1])  # would go below 0

    def test_rejects_double_increment(self):
        with pytest.raises(ValueError):
            integrate([1, 1])  # would reach 2

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            integrate([2, 0])

    def test_2d(self):
        matrix = integrate(np.array([[0, 1], [1, -1]]))
        assert matrix.tolist() == [[0, 1], [1, 0]]


class TestChangeCount:
    def test_example(self):
        assert change_count([0, 1, 1, 0]) == 2

    def test_no_changes(self):
        assert change_count([0, 0, 0]) == 0

    def test_2d_returns_vector(self):
        counts = change_count(np.array([[0, 1, 1], [1, 0, 1]]))
        assert counts.tolist() == [1, 3]

    @given(boolean_sequences)
    def test_count_matches_adjacent_differences(self, states):
        expected = sum(
            1 for a, b in zip([0, *states[:-1]], states, strict=True) if a != b
        )
        assert change_count(states) == expected
