"""Tests for the dyadic aggregation tree."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dyadic.intervals import DyadicInterval, interval_set
from repro.dyadic.partial_sums import all_partial_sums
from repro.dyadic.tree import DyadicTree


class TestBasics:
    def test_set_get(self):
        tree = DyadicTree(8)
        tree[DyadicInterval(1, 3)] = 2.5
        assert tree[DyadicInterval(1, 3)] == 2.5

    def test_default_zero_and_filled_flag(self):
        tree = DyadicTree(8)
        interval = DyadicInterval(0, 5)
        assert tree[interval] == 0.0
        assert not tree.is_filled(interval)
        tree[interval] = 0.0
        assert tree.is_filled(interval)

    def test_add_accumulates(self):
        tree = DyadicTree(4)
        interval = DyadicInterval(0, 2)
        tree.add(interval, 1.0)
        tree.add(interval, -3.0)
        assert tree[interval] == -2.0

    def test_horizon_and_orders(self):
        """d=16 holds 2d - 1 = 31 slots over orders 0..4."""
        tree = DyadicTree(16)
        assert tree.flat_values().size == 31
        assert {interval.order for interval in tree.intervals()} == set(range(5))

    def test_out_of_range_interval(self):
        tree = DyadicTree(4)
        with pytest.raises(KeyError):
            tree[DyadicInterval(3, 1)]
        with pytest.raises(KeyError):
            tree[DyadicInterval(0, 5)]

    def test_contains_on_bad_interval_is_false(self):
        tree = DyadicTree(4)
        assert DyadicInterval(5, 1) not in tree

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            DyadicTree(12)

    def test_intervals_enumeration(self):
        tree = DyadicTree(8)
        assert list(tree.intervals()) == interval_set(8)


class TestPrefixAndRangeSums:
    def _filled_tree(self, states):
        tree = DyadicTree(len(states))
        for interval, value in all_partial_sums(states).items():
            tree[interval] = value
        return tree

    def test_prefix_sums_reconstruct_states(self):
        states = [0, 1, 1, 0, 1, 1, 1, 0]
        tree = self._filled_tree(states)
        for t in range(1, 9):
            assert tree.prefix_sum(t) == states[t - 1]

    def test_range_sum_matches_state_difference(self):
        states = [0, 1, 1, 0, 0, 1, 1, 1]
        tree = self._filled_tree(states)
        for left in range(1, 9):
            for right in range(left, 9):
                before = states[left - 2] if left > 1 else 0
                assert tree.range_sum(left, right) == states[right - 1] - before

    def test_require_filled_raises_on_empty(self):
        tree = DyadicTree(4)
        with pytest.raises(KeyError):
            tree.prefix_sum(3, require_filled=True)

    def test_require_filled_passes_when_filled(self):
        tree = DyadicTree(4)
        for interval in tree.intervals():
            tree[interval] = 1.0
        assert tree.prefix_sum(3, require_filled=True) == 2.0

    def test_filling_one_order_leaves_the_rest_unfilled(self):
        tree = DyadicTree(8)
        for interval in tree.intervals():
            if interval.order == 1:
                tree[interval] = float(interval.index)
        assert tree[DyadicInterval(1, 4)] == 4.0
        assert tree.prefix_sum(6) == 3.0  # I_{2,1} (unfilled, 0) + I_{1,3}
        with pytest.raises(KeyError):
            tree.prefix_sum(6, require_filled=True)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=16, max_size=16))
    def test_exact_partial_sums_are_consistent(self, states):
        """Every parent node of an exact tree equals the sum of its children."""
        tree = self._filled_tree(states)
        for interval in tree.intervals():
            if interval.order:
                left = DyadicInterval(interval.order - 1, 2 * interval.index - 1)
                right = DyadicInterval(interval.order - 1, 2 * interval.index)
                assert tree[interval] == tree[left] + tree[right]
