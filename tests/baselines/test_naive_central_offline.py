"""Tests for the naive RR, central-tree and offline-tree baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.offline_tree import flatten_tree_partial_sums
from repro.core.params import ProtocolParams
from repro.dyadic.partial_sums import partial_sums_of_order
from repro.protocols import EstimatesNotReady, get_protocol

run_naive_split = get_protocol("naive_split").run
run_naive_unsplit = get_protocol("naive_unsplit").run
run_central_tree = get_protocol("central_tree").run
run_offline_tree = get_protocol("offline_tree").run


class TestNaive:
    def test_split_unbiased(self, small_params, small_states):
        trials = 40
        errors = [
            run_naive_split(
                small_states, small_params, np.random.default_rng(400 + t)
            ).errors[-1]
            for t in range(trials)
        ]
        mean = float(np.mean(errors))
        standard_error = float(np.std(errors, ddof=1) / np.sqrt(trials))
        assert abs(mean) < 4 * standard_error + 1e-9

    def test_unsplit_much_more_accurate(self, small_params, small_states, rng):
        split = run_naive_split(small_states, small_params, rng)
        unsplit = run_naive_unsplit(small_states, small_params, rng)
        assert unsplit.max_abs_error < split.max_abs_error / 3

    def test_split_error_grows_with_d(self, rng):
        n = 2000
        errors = {}
        for d in (16, 128):
            params = ProtocolParams(n=n, d=d, k=2, epsilon=1.0)
            states = np.zeros((n, d), dtype=np.int8)
            errors[d] = run_naive_split(states, params, np.random.default_rng(1)).max_abs_error
        assert errors[128] > 3 * errors[16]

    def test_family_names(self, small_params, small_states, rng):
        assert run_naive_split(small_states, small_params, rng).family_name == "naive_rr_split"
        assert (
            run_naive_unsplit(small_states, small_params, rng).family_name
            == "naive_rr_unsplit"
        )

    def test_validation(self, small_params, rng):
        with pytest.raises(ValueError):
            run_naive_split(np.zeros((3, 3, 3)), small_params, rng)
        with pytest.raises(ValueError):
            run_naive_split(
                np.full((small_params.n, small_params.d), 5), small_params, rng
            )


class TestCentral:
    def test_noise_scale_formula(self):
        """Node I_{0,1} is the first Laplace draw, at scale 2 k (1 + log2 d) / eps,
        and on an all-zero population it is the first released estimate."""
        params = ProtocolParams(n=10, d=16, k=3, epsilon=0.5)
        result = run_central_tree(
            np.zeros((10, 16), dtype=np.int8), params, np.random.default_rng(9)
        )
        expected = np.random.default_rng(9).laplace(0.0, 2 * 3 * 5 / 0.5)
        assert result.estimates[0] == expected

    def test_estimates_concentrate_around_truth(self, small_params, small_states):
        trials = 30
        errors = [
            run_central_tree(
                small_states, small_params, np.random.default_rng(10 + t)
            ).errors[-1]
            for t in range(trials)
        ]
        mean = float(np.mean(errors))
        standard_error = float(np.std(errors, ddof=1) / np.sqrt(trials))
        assert abs(mean) < 4 * standard_error + 1e-9

    def test_error_independent_of_n(self, rng):
        d, k = 32, 2
        errors = {}
        for n in (100, 10_000):
            params = ProtocolParams(n=n, d=d, k=k, epsilon=1.0)
            states = np.zeros((n, d), dtype=np.int8)
            states[: n // 2, d // 2 :] = 1  # half the users adopt midway
            runs = [
                run_central_tree(states, params, np.random.default_rng(t)).max_abs_error
                for t in range(10)
            ]
            errors[n] = float(np.mean(runs))
        assert 0.5 < errors[100] / errors[10_000] < 2.0

    def test_result_requires_the_full_horizon(self, small_params, rng):
        session = get_protocol("central_tree").prepare(small_params, rng)
        session.ingest(1, np.zeros(small_params.n, dtype=np.int8))
        assert session.estimates().shape == (1,)
        with pytest.raises(EstimatesNotReady):
            session.result()

    def test_ingest_validates_shape(self, small_params, rng):
        session = get_protocol("central_tree").prepare(small_params, rng)
        with pytest.raises(ValueError, match="shape"):
            session.ingest(1, np.zeros(small_params.n - 1, dtype=np.int8))

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            get_protocol("central_tree").prepare(
                ProtocolParams(n=4, d=8, k=1, epsilon=0.0)
            )
        with pytest.raises(ValueError):
            get_protocol("central_tree").prepare(
                ProtocolParams(n=4, d=8, k=0, epsilon=1.0)
            )


class TestOfflineTree:
    def test_flatten_layout(self, rng):
        states = rng.integers(0, 2, size=(6, 8)).astype(np.int8)
        flat = flatten_tree_partial_sums(states)
        assert flat.shape == (6, 15)  # 2d - 1 nodes
        assert np.array_equal(flat[:, :8], np.array([
            partial_sums_of_order(row, 0) for row in states
        ]))
        assert np.array_equal(flat[:, 8:12], np.array([
            partial_sums_of_order(row, 1) for row in states
        ]))

    def test_unbiased(self, small_params, small_states):
        trials = 30
        errors = [
            run_offline_tree(
                small_states, small_params, np.random.default_rng(800 + t)
            ).errors[-1]
            for t in range(trials)
        ]
        mean = float(np.mean(errors))
        standard_error = float(np.std(errors, ddof=1) / np.sqrt(trials))
        assert abs(mean) < 4 * standard_error + 1e-9

    def test_validation(self, small_params, rng):
        with pytest.raises(ValueError):
            run_offline_tree(
                np.full((small_params.n, small_params.d), 3), small_params, rng
            )
