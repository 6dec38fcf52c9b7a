"""Tests for BatchTreeReports and the order-weights ablation knob."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.vectorized import collect_tree_reports, run_batch


class TestBatchTreeReports:
    @pytest.fixture
    def reports(self, small_params, small_states, rng):
        return collect_tree_reports(small_states, small_params, rng)

    def test_structure(self, reports, small_params):
        assert reports.num_orders == small_params.num_orders
        assert reports.horizon == small_params.d
        for order in range(reports.num_orders):
            assert reports.node_sums[order].shape == (small_params.d >> order,)
        assert reports.group_sizes.sum() == small_params.n

    def test_to_result_matches_prefix_estimates(self, reports):
        result = reports.to_result()
        assert np.array_equal(result.estimates, reports.prefix_estimates())

    def test_node_estimates_scaling(self, reports):
        estimates = reports.node_estimates()
        for order in range(reports.num_orders):
            assert np.allclose(
                estimates[order],
                reports.node_scales[order] * reports.node_sums[order],
            )

    def test_node_variances_shape_and_value(self, reports):
        variances = reports.node_variances()
        for order, level in enumerate(variances):
            expected = reports.group_sizes[order] * reports.node_scales[order] ** 2
            assert np.allclose(level, expected)

    def test_run_batch_is_collect_plus_to_result(
        self, small_params, small_states
    ):
        a = run_batch(small_states, small_params, np.random.default_rng(4))
        b = collect_tree_reports(
            small_states, small_params, np.random.default_rng(4)
        ).to_result()
        assert np.array_equal(a.estimates, b.estimates)


class TestOrderWeights:
    def test_uniform_weights_match_default_scales(self, small_params, small_states, rng):
        reports = collect_tree_reports(
            small_states,
            small_params,
            rng,
            order_weights=[1.0] * small_params.num_orders,
        )
        expected = small_params.num_orders / reports.c_gap
        assert np.allclose(reports.node_scales, expected)

    def test_skewed_weights_remain_unbiased(self, small_params, small_states):
        weights = [2.0 ** (-order) for order in range(small_params.num_orders)]
        trials = 30
        errors = []
        for trial in range(trials):
            result = run_batch(
                small_states,
                small_params,
                np.random.default_rng(700 + trial),
                order_weights=weights,
            )
            errors.append(result.errors[-1])
        mean = float(np.mean(errors))
        standard_error = float(np.std(errors, ddof=1) / np.sqrt(trials))
        assert abs(mean) < 4 * standard_error + 1e-9

    def test_weight_validation(self, small_params, small_states, rng):
        with pytest.raises(ValueError):
            collect_tree_reports(
                small_states, small_params, rng, order_weights=[1.0, 2.0]
            )
        with pytest.raises(ValueError):
            collect_tree_reports(
                small_states,
                small_params,
                rng,
                order_weights=[0.0, *[1.0] * (small_params.num_orders - 1)],
            )
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="order_weights must all be finite"):
                collect_tree_reports(
                    small_states,
                    small_params,
                    rng,
                    order_weights=[bad, *[1.0] * (small_params.num_orders - 1)],
                )

    def test_sampling_follows_weights(self, small_params, small_states):
        weights = np.zeros(small_params.num_orders)
        weights[0] = 1.0
        weights[1:] = 1e-12
        reports = collect_tree_reports(
            small_states, small_params, np.random.default_rng(2), order_weights=weights
        )
        assert reports.group_sizes[0] == small_params.n
