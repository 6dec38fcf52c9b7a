"""Tests for the precomputed prefix-decomposition operators."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.dyadic.intervals import DyadicInterval, decompose_prefix, decompose_range
from repro.dyadic.prefix_matrix import (
    flat_node_count,
    flat_offsets,
    prefix_decomposition_indices,
    range_decomposition_cols,
    reconstruct_all_prefixes,
    reconstruct_range,
)
from repro.dyadic.tree import DyadicTree


class TestLayout:
    def test_flat_node_count(self):
        assert flat_node_count(1) == 1
        assert flat_node_count(8) == 15

    def test_offsets_partition_the_flat_vector(self):
        offsets = flat_offsets(8)
        assert offsets.tolist() == [0, 8, 12, 14]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            flat_node_count(6)


def _dense(d: int) -> np.ndarray:
    """The ``(d, 2d - 1)`` 0/1 matrix the index operator encodes."""
    rows, cols = prefix_decomposition_indices(d)
    matrix = np.zeros((d, flat_node_count(d)))
    matrix[rows, cols] = 1.0
    return matrix


class TestMatrix:
    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    def test_rows_match_decompose_prefix(self, d):
        matrix = _dense(d)
        offsets = flat_offsets(d)
        assert matrix.shape == (d, 2 * d - 1)
        for t in range(1, d + 1):
            expected = np.zeros(2 * d - 1)
            for interval in decompose_prefix(t):
                expected[offsets[interval.order] + interval.index - 1] = 1.0
            np.testing.assert_array_equal(matrix[t - 1], expected)

    def test_row_weight_is_popcount(self):
        rows, _cols = prefix_decomposition_indices(32)
        assert np.bincount(rows, minlength=32).tolist() == [
            bin(t).count("1") for t in range(1, 33)
        ]

    def test_matrix_is_cached_and_readonly(self):
        first = prefix_decomposition_indices(16)
        assert prefix_decomposition_indices(16) is first
        with pytest.raises(ValueError):
            first[1][0] = 5


class TestReconstruction:
    @pytest.mark.parametrize("d", [1, 4, 32, 128])
    def test_matches_per_prefix_walk(self, d):
        rng = np.random.default_rng(d)
        flat = rng.normal(size=2 * d - 1)
        offsets = flat_offsets(d)
        expected = np.array(
            [
                sum(
                    flat[offsets[i.order] + i.index - 1]
                    for i in decompose_prefix(t)
                )
                for t in range(1, d + 1)
            ]
        )
        np.testing.assert_allclose(reconstruct_all_prefixes(flat, d), expected)

    def test_matches_dense_matrix_product(self):
        d = 64
        flat = np.random.default_rng(0).normal(size=2 * d - 1)
        np.testing.assert_allclose(
            reconstruct_all_prefixes(flat, d),
            _dense(d) @ flat,
        )

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            reconstruct_all_prefixes(np.zeros(5), 8)

    def test_indices_entry_count(self):
        rows, cols = prefix_decomposition_indices(16)
        assert rows.size == sum(bin(t).count("1") for t in range(1, 17))
        assert rows.size == cols.size


class TestRangeOperator:
    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_cols_match_decompose_range(self, d):
        offsets = flat_offsets(d)
        rng = np.random.default_rng(d)
        for _ in range(20):
            left = int(rng.integers(1, d + 1))
            right = int(rng.integers(left, d + 1))
            expected = sorted(
                int(offsets[i.order]) + i.index - 1
                for i in decompose_range(left, right)
            )
            assert sorted(range_decomposition_cols(d, left, right)) == expected

    def test_reconstruct_range_matches_tree_range_sum(self):
        d = 32
        tree = DyadicTree(d)
        rng = np.random.default_rng(9)
        for interval in tree.intervals():
            tree[interval] = float(rng.normal())
        flat = tree.flat_values()
        for left, right in [(1, 32), (5, 9), (17, 17), (2, 31)]:
            assert reconstruct_range(flat, d, left, right) == pytest.approx(
                tree.range_sum(left, right)
            )

    def test_interval_count_stays_logarithmic(self):
        d = 1024
        for left, right in [(100, 163), (2, 1023), (512, 513)]:
            cols = range_decomposition_cols(d, left, right)
            budget = 2 * int(np.ceil(np.log2(right - left + 1))) + 2
            assert cols.size <= budget

    def test_validates_bounds_and_shape(self):
        with pytest.raises(ValueError, match="left <= right"):
            range_decomposition_cols(8, 5, 3)
        with pytest.raises(ValueError, match="left <= right"):
            range_decomposition_cols(8, 1, 9)
        with pytest.raises(ValueError, match="shape"):
            reconstruct_range(np.zeros(3), 8, 1, 4)

    def test_cols_are_cached_and_readonly(self):
        first = range_decomposition_cols(16, 3, 11)
        assert range_decomposition_cols(16, 3, 11) is first
        with pytest.raises(ValueError):
            first[0] = 0


class TestShapeCheck:
    """Both reconstructions refuse a flat vector that is not one value per
    dyadic node, with the same message."""

    @pytest.mark.parametrize("shape", [(3,), (16,), (15, 1)])
    @pytest.mark.parametrize(
        "reconstruct",
        [
            lambda flat: reconstruct_all_prefixes(flat, 8),
            lambda flat: reconstruct_range(flat, 8, 2, 5),
        ],
        ids=["all_prefixes", "range"],
    )
    def test_rejects_wrong_shape_with_one_message(self, reconstruct, shape):
        message = f"flat_values must have shape (15,) for d=8, got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            reconstruct(np.zeros(shape))


class TestTreeIntegration:
    def test_tree_flat_values_feed_the_prefix_operator(self):
        tree = DyadicTree(8)
        rng = np.random.default_rng(3)
        for interval in tree.intervals():
            tree[interval] = float(rng.normal())
        expected = np.array([tree.prefix_sum(t) for t in range(1, 9)])
        np.testing.assert_allclose(
            reconstruct_all_prefixes(tree.flat_values(), 8), expected
        )

    def test_flat_values_layout(self):
        tree = DyadicTree(4)
        tree[DyadicInterval(0, 3)] = 2.0
        tree[DyadicInterval(1, 2)] = -1.0
        tree[DyadicInterval(2, 1)] = 5.0
        np.testing.assert_array_equal(
            tree.flat_values(), [0.0, 0.0, 2.0, 0.0, 0.0, -1.0, 5.0]
        )
