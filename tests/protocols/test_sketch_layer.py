"""Unit tests for the Boolean dyadic emission stream."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.future_rand import FutureRandFamily
from repro.protocols.sketch_layer import BooleanDyadicStream


class TestBooleanDyadicStream:
    def test_emission_schedule_follows_dyadic_clock(self):
        family = FutureRandFamily(2, 1.0)
        stream = BooleanDyadicStream(64, 8, family, np.random.default_rng(3))
        column = np.zeros(64, dtype=np.int8)
        for t in range(1, 9):
            orders = [order for order, _, _, _ in stream.emissions(t, column)]
            expected = [
                order
                for order in range(4)
                if t % (1 << order) == 0
                and np.count_nonzero(stream.orders == order)
            ]
            assert orders == expected

    def test_reports_are_signs_and_cover_every_user(self):
        family = FutureRandFamily(2, 1.0)
        stream = BooleanDyadicStream(200, 4, family, np.random.default_rng(4))
        column = np.ones(200, dtype=np.int8)
        seen = np.zeros(200, dtype=bool)
        for order, index, members, bits in stream.emissions(4, column):
            assert index == 4 >> order
            assert np.isin(bits, (-1, 1)).all()
            seen[members] = True
        # At t = d every order group closes an interval, so everyone reports.
        assert seen.all()

    def test_signal_beats_noise_in_aggregate(self):
        family = FutureRandFamily(1, 8.0)
        n = 4_000
        stream = BooleanDyadicStream(n, 2, family, np.random.default_rng(5))
        column = np.ones(n, dtype=np.int8)
        total = sum(
            float(bits.sum())
            for t in (1, 2)
            for _, _, _, bits in stream.emissions(t, column)
        )
        # Everyone holds 1; the debiased sum should be strongly positive.
        assert total > 0.2 * n

    def test_sparsity_violation_raises(self):
        family = FutureRandFamily(1, 1.0)
        stream = BooleanDyadicStream(32, 4, family, np.random.default_rng(6))
        with pytest.raises(RuntimeError, match="k-sparsity"):
            for t in range(1, 5):
                list(stream.emissions(t, np.full(32, t % 2, dtype=np.int8)))

    def test_chunked_predraw_matches_unchunked_contract(self):
        """chunk_size bounds the pre-draw transients without changing the
        law: same orders (drawn before b~), same shape/support for b~."""
        family = FutureRandFamily(3, 1.0)
        whole = BooleanDyadicStream(500, 8, family, np.random.default_rng(7))
        chunked = BooleanDyadicStream(
            500, 8, family, np.random.default_rng(7), chunk_size=128
        )
        np.testing.assert_array_equal(whole.orders, chunked.orders)
        assert chunked._b_tilde.shape == whole._b_tilde.shape == (500, 3)
        assert np.isin(chunked._b_tilde, (-1, 1)).all()
        # Same per-coordinate sign law (4-sigma Monte-Carlo band).
        assert abs(
            chunked._b_tilde.mean() - whole._b_tilde.mean()
        ) < 4 * 2 / np.sqrt(1500)

    def test_validates_inputs(self):
        family = FutureRandFamily(1, 1.0)
        with pytest.raises(ValueError, match="at least 1 user"):
            BooleanDyadicStream(0, 4, family, np.random.default_rng(0))
        with pytest.raises(ValueError, match="chunk_size"):
            BooleanDyadicStream(
                10, 4, family, np.random.default_rng(0), chunk_size=0
            )
