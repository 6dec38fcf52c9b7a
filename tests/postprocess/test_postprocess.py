"""Tests for consistency enforcement post-processing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ProtocolParams
from repro.core.vectorized import collect_tree_reports
from repro.dyadic.partial_sums import partial_sums_of_order
from repro.postprocess.consistency import (
    consistent_prefix_estimates,
    consistent_result,
    wls_tree_consistency,
)
from repro.workloads.generators import BoundedChangePopulation


def _tree_levels(values: np.ndarray) -> list[np.ndarray]:
    """Exact per-order population partial sums as WLS input levels."""
    d = values.shape[1]
    return [
        np.array([partial_sums_of_order(row, order) for row in values]).sum(axis=0)
        for order in range(d.bit_length())
    ]


class TestWlsTreeConsistency:
    def test_consistent_input_unchanged(self, rng):
        states = rng.integers(0, 2, size=(10, 8)).astype(np.int8)
        levels = [level.astype(float) for level in _tree_levels(states)]
        variances = [np.ones_like(level) for level in levels]
        adjusted = wls_tree_consistency(levels, variances)
        for level, result in zip(levels, adjusted, strict=True):
            assert np.allclose(level, result)

    def test_output_is_consistent(self, rng):
        levels = [rng.normal(size=8), rng.normal(size=4), rng.normal(size=2), rng.normal(size=1)]
        variances = [np.full(level.shape, 2.0) for level in levels]
        adjusted = wls_tree_consistency(levels, variances)
        for h in range(1, len(adjusted)):
            children = adjusted[h - 1][0::2] + adjusted[h - 1][1::2]
            assert np.allclose(adjusted[h], children)

    def test_zero_variance_nodes_are_pinned(self, rng):
        levels = [rng.normal(size=4), rng.normal(size=2), np.array([10.0])]
        variances = [np.ones(4), np.ones(2), np.zeros(1)]
        adjusted = wls_tree_consistency(levels, variances)
        assert adjusted[2][0] == pytest.approx(10.0)
        assert adjusted[1].sum() == pytest.approx(10.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            wls_tree_consistency([np.zeros(4)], [np.zeros(4), np.zeros(2)])
        with pytest.raises(ValueError):
            wls_tree_consistency([np.zeros(4), np.zeros(3)], [np.zeros(4), np.zeros(3)])
        with pytest.raises(ValueError):
            wls_tree_consistency([], [])
        with pytest.raises(ValueError):
            wls_tree_consistency([np.zeros(4), np.zeros(2)], [np.zeros(4), np.zeros(2)])

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            wls_tree_consistency(
                [np.zeros(2), np.zeros(1)], [np.array([-1.0, 1.0]), np.ones(1)]
            )

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_projection_property(self, seed):
        """Consistency holds for arbitrary noisy trees and variances."""
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(2, 5))
        width = 1 << (depth - 1)
        levels = [rng.normal(size=width >> h) * 10 for h in range(depth)]
        variances = [rng.random(size=width >> h) + 0.1 for h in range(depth)]
        adjusted = wls_tree_consistency(levels, variances)
        for h in range(1, depth):
            children = adjusted[h - 1][0::2] + adjusted[h - 1][1::2]
            assert np.allclose(adjusted[h], children, atol=1e-8)


class TestConsistencyOnProtocol:
    @pytest.fixture
    def reports(self, small_params, small_states, rng):
        return collect_tree_reports(small_states, small_params, rng)

    def test_prefix_estimates_shape(self, reports, small_params):
        estimates = consistent_prefix_estimates(reports)
        assert estimates.shape == (small_params.d,)

    def test_result_family_name(self, reports):
        result = consistent_result(reports)
        assert result.family_name.endswith("+consistency")

    def test_consistency_is_unbiased(self, small_params, small_states):
        trials = 30
        errors = []
        for trial in range(trials):
            reports = collect_tree_reports(
                small_states, small_params, np.random.default_rng(900 + trial)
            )
            errors.append(consistent_result(reports).errors[-1])
        mean = float(np.mean(errors))
        standard_error = float(np.std(errors, ddof=1) / np.sqrt(trials))
        assert abs(mean) < 4 * standard_error + 1e-9

    def test_consistency_reduces_error_on_average(self):
        """The headline E11 property at test scale."""
        params = ProtocolParams(n=3000, d=64, k=3, epsilon=1.0)
        states = BoundedChangePopulation(64, 3, exact_k=True).sample(
            params.n, np.random.default_rng(0)
        )
        raw, adjusted = [], []
        for trial in range(8):
            reports = collect_tree_reports(
                states, params, np.random.default_rng(50 + trial)
            )
            raw.append(reports.to_result().max_abs_error)
            adjusted.append(consistent_result(reports).max_abs_error)
        assert np.mean(adjusted) < np.mean(raw)
