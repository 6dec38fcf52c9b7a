"""Edge-case tests: degenerate horizons, extreme sparsity, tiny populations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.annulus import AnnulusLaw
from repro.core.client import Client
from repro.core.future_rand import FutureRandFamily
from repro.core.params import ProtocolParams
from repro.core.server import Server
from repro.core.vectorized import run_batch
from repro.dyadic.intervals import decompose_prefix, interval_set
from repro.protocols import get_protocol

#: The per-user object reference driver (one Client per user).
OBJECT_REFERENCE = get_protocol("future_rand_object")


class TestHorizonOne:
    """d = 1: a single period, a single order, L = 1."""

    def test_interval_machinery(self):
        assert len(interval_set(1)) == 1
        assert [(i.order, i.index) for i in decompose_prefix(1)] == [(0, 1)]

    def test_params(self):
        params = ProtocolParams(n=50, d=1, k=1, epsilon=1.0)
        assert params.num_orders == 1
        assert params.log_d == 0

    def test_client_reports_once(self, rng):
        family = FutureRandFamily(k=1, epsilon=1.0)
        client = Client(0, d=1, family=family, rng=rng)
        assert client.order == 0
        report = client.step(1)
        assert report is not None and report.index == 1

    def test_batch_protocol_runs(self):
        params = ProtocolParams(n=500, d=1, k=1, epsilon=1.0)
        states = np.ones((500, 1), dtype=np.int8)
        trials = [
            run_batch(states, params, np.random.default_rng(t)).estimates[0]
            for t in range(30)
        ]
        mean = float(np.mean(trials))
        standard_error = float(np.std(trials, ddof=1) / np.sqrt(30))
        assert abs(mean - 500) < 4 * standard_error + 1e-9

    def test_online_protocol_runs(self):
        params = ProtocolParams(n=20, d=1, k=1, epsilon=1.0)
        states = np.zeros((20, 1), dtype=np.int8)
        result = OBJECT_REFERENCE.run(states, params, np.random.default_rng(0))
        assert result.estimates.shape == (1,)


class TestKEqualsD:
    """k = d: every period may be a change (no sparsity advantage left)."""

    def test_alternating_user_accepted(self):
        params = ProtocolParams(n=10, d=8, k=8, epsilon=1.0)
        states = np.tile(
            np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.int8), (10, 1)
        )
        result = run_batch(states, params, np.random.default_rng(0))
        assert result.estimates.shape == (8,)

    def test_annulus_law_valid(self):
        law = AnnulusLaw.for_future_rand(k=8, epsilon=1.0)
        assert law.c_gap > 0


class TestSingleUser:
    def test_n_one(self):
        params = ProtocolParams(n=1, d=4, k=2, epsilon=1.0)
        states = np.array([[0, 1, 1, 0]], dtype=np.int8)
        result = run_batch(states, params, np.random.default_rng(0))
        assert result.estimates.shape == (4,)

    def test_server_with_no_reports_estimates_zero(self):
        server = Server(4, c_gap=0.5)
        server.advance_to(4)
        assert server.estimate(4) == 0.0


class TestAllZeroAndAllChanged:
    def test_all_zero_population(self, rng):
        params = ProtocolParams(n=200, d=16, k=2, epsilon=1.0)
        states = np.zeros((200, 16), dtype=np.int8)
        result = run_batch(states, params, rng)
        assert (result.true_counts == 0).all()

    def test_everyone_flips_at_t1(self, rng):
        params = ProtocolParams(n=200, d=16, k=1, epsilon=1.0)
        states = np.ones((200, 16), dtype=np.int8)
        result = run_batch(states, params, rng)
        assert (result.true_counts == 200).all()


class TestEpsilonExtremes:
    def test_tiny_epsilon(self):
        law = AnnulusLaw.for_future_rand(k=4, epsilon=1e-4)
        assert 0 < law.c_gap < 1e-4
        assert law.privacy_log_ratio() <= 1e-4 + 1e-12

    def test_epsilon_above_one_still_runs_outside_guarantee(self):
        """The protocol executes for eps > 1 (Lemma 5.2's analysis does not
        cover it; the library allows it but Theorem assumptions flag it)."""
        params = ProtocolParams(n=100, d=8, k=2, epsilon=2.0)
        with pytest.raises(ValueError):
            params.check_theorem_assumptions()
        states = np.zeros((100, 8), dtype=np.int8)
        result = run_batch(states, params, np.random.default_rng(0))
        assert result.estimates.shape == (8,)
