"""Tests for dyadic intervals and decompositions (Defs. 3.2, Fact 3.8)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dyadic.intervals import (
    DyadicInterval,
    decompose_prefix,
    decompose_range,
    interval_set,
    intervals_of_order,
)


class TestDyadicInterval:
    def test_coordinates(self):
        interval = DyadicInterval(order=2, index=2)
        assert interval.start == 5
        assert interval.end == 8
        assert interval.end - interval.start + 1 == 4

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DyadicInterval(-1, 1)
        with pytest.raises(ValueError):
            DyadicInterval(0, 0)


class TestIntervalSets:
    def test_example_33(self):
        """Example 3.3: all dyadic intervals on [4]."""
        expected = [
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (2, 1),
        ]
        assert [(i.order, i.index) for i in interval_set(4)] == expected

    def test_interval_set_size(self):
        for d in (1, 2, 4, 8, 16, 64):
            assert len(interval_set(d)) == 2 * d - 1

    def test_intervals_of_order(self):
        intervals = intervals_of_order(8, 2)
        assert [(i.start, i.end) for i in intervals] == [(1, 4), (5, 8)]

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            intervals_of_order(8, 4)
        with pytest.raises(ValueError):
            intervals_of_order(8, -1)

    def test_num_orders(self):
        """The interval set spans the ``1 + log2 d`` orders."""
        for d, orders in ((1, 1), (8, 4), (1024, 11)):
            assert {i.order for i in interval_set(d)} == set(range(orders))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            interval_set(6)


class TestDecomposePrefix:
    def test_paper_example(self):
        """C(3) = {{1,2}, {3}} (Figure 1)."""
        assert [(i.start, i.end) for i in decompose_prefix(3)] == [(1, 2), (3, 3)]

    def test_power_of_two_is_single_interval(self):
        assert [(i.start, i.end) for i in decompose_prefix(8)] == [(1, 8)]

    def test_t_one(self):
        assert [(i.start, i.end) for i in decompose_prefix(1)] == [(1, 1)]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            decompose_prefix(0)

    @given(st.integers(min_value=1, max_value=1 << 16))
    def test_covers_prefix_exactly(self, t):
        intervals = decompose_prefix(t)
        covered = []
        for interval in intervals:
            covered.extend(range(interval.start, interval.end + 1))
        assert covered == list(range(1, t + 1))

    @given(st.integers(min_value=1, max_value=1 << 16))
    def test_distinct_decreasing_orders(self, t):
        orders = [interval.order for interval in decompose_prefix(t)]
        assert orders == sorted(orders, reverse=True)
        assert len(set(orders)) == len(orders)

    @given(st.integers(min_value=1, max_value=1 << 16))
    def test_size_bound(self, t):
        """Fact 3.8: at most ceil(log2 t) + 1 intervals (= popcount of t)."""
        intervals = decompose_prefix(t)
        assert len(intervals) == bin(t).count("1")
        assert len(intervals) <= math.ceil(math.log2(t)) + 1


class TestDecomposeRange:
    def test_paper_example(self):
        """[2..3] decomposes into {{2}, {3}} (Section 3)."""
        assert [(i.start, i.end) for i in decompose_range(2, 3)] == [(2, 2), (3, 3)]

    def test_aligned_range(self):
        assert [(i.start, i.end) for i in decompose_range(1, 4)] == [(1, 4)]

    def test_singleton(self):
        assert [(i.start, i.end) for i in decompose_range(5, 5)] == [(5, 5)]

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            decompose_range(4, 2)

    @given(
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=0, max_value=4095),
    )
    def test_covers_range_exactly(self, left, width):
        right = left + width
        covered = []
        for interval in decompose_range(left, right):
            covered.extend(range(interval.start, interval.end + 1))
        assert covered == list(range(left, right + 1))

    @given(
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=0, max_value=4095),
    )
    def test_size_bound(self, left, width):
        """At most 2*ceil(log2(length)) + 2 intervals."""
        right = left + width
        intervals = decompose_range(left, right)
        length = right - left + 1
        assert len(intervals) <= 2 * math.ceil(math.log2(length + 1)) + 2

    @given(
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=0, max_value=4095),
    )
    def test_intervals_are_dyadic_aligned(self, left, width):
        right = left + width
        for interval in decompose_range(left, right):
            assert (interval.start - 1) % (1 << interval.order) == 0
