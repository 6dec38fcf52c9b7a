"""Streaming sessions vs one-shot drivers: identical output distributions.

Each protocol's ``prepare``/``ingest``/``estimates`` path reimplements its
one-shot driver in deployment shape; these tests pin the two together —
exactly where the rng consumption order coincides, statistically (Monte-Carlo
4-sigma bounds, the same idiom as the batch-vs-object engine tests)
everywhere else.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.protocols import get_protocol
from repro.workloads.generators import BoundedChangePopulation

PARAMS = ProtocolParams(n=400, d=16, k=3, epsilon=1.0)

NAMES = [
    "future_rand",
    "future_rand_object",
    "bun_composed",
    "erlingsson",
    "naive_split",
    "naive_unsplit",
    "memoization",
    "offline_tree",
    "central_tree",
]


def _signal_states() -> np.ndarray:
    """A population with a visible signal: 250 of 400 users flip at t=5."""
    states = np.zeros((400, 16), dtype=np.int8)
    states[:250, 4:] = 1
    return states


def _digest(array: np.ndarray, dtype: str) -> str:
    """sha256 of an array's bytes at a fixed little-endian dtype."""
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=dtype).tobytes()
    ).hexdigest()


def _stream(protocol, states, rng) -> np.ndarray:
    session = protocol.prepare(PARAMS, rng)
    for t in range(1, PARAMS.d + 1):
        session.ingest(t, states[:, t - 1])
    return session.result().estimates


class TestExactEquivalence:
    def test_memoization_stream_is_bit_identical_to_run(self):
        """Memoization draws all randomness at prepare time, in the same
        order as the one-shot driver — same seed, same outputs exactly."""
        protocol = get_protocol("memoization")
        states = _signal_states()
        run_estimates = protocol.run(
            states, PARAMS, np.random.default_rng(7)
        ).estimates
        stream_estimates = _stream(protocol, states, np.random.default_rng(7))
        np.testing.assert_array_equal(stream_estimates, run_estimates)

    def test_memoization_run_is_pinned(self):
        """Exact one-shot memoization estimates at a fixed seed."""
        result = get_protocol("memoization").run(
            _signal_states(), PARAMS, np.random.default_rng(7)
        )
        assert _digest(result.estimates, "<f8") == (
            "c32d97b4d671868eb50982b9367701aba7d9c73211fb99cb079737253f58600d"
        )

    def test_object_reference_is_pinned(self):
        """Exact estimates and orders of ``future_rand_object``, one-shot and
        streamed: both drive the same Client/Server step from one seed."""
        params = ProtocolParams(n=120, d=16, k=3, epsilon=1.0)
        states = BoundedChangePopulation(16, 3, start_prob=0.2).sample(
            120, np.random.default_rng(0)
        )
        protocol = get_protocol("future_rand_object")
        session = protocol.prepare(params, np.random.default_rng(4))
        for t in range(1, params.d + 1):
            session.ingest(t, states[:, t - 1])
        for result in (
            protocol.run(states, params, np.random.default_rng(4)),
            session.result(),
        ):
            assert _digest(result.estimates, "<f8") == (
                "02abb6d165e17f6dcf234b0777d6060acc4b685bce1623b28d05110b75f6ac4c"
            )
            assert _digest(result.orders, "<i8") == (
                "0a96975400ea38c505cd69724859765ba3ca171e0fb3805f7f2124848d5c9579"
            )


@pytest.mark.parametrize("name", NAMES)
class TestDistributionalEquivalence:
    """Final-period estimates from streaming and one-shot runs must share
    mean (and the streaming path must be unbiased for the truth)."""

    TRIALS = 25

    def test_final_estimate_means_agree(self, name):
        protocol = get_protocol(name)
        states = _signal_states()
        one_shot = np.array(
            [
                protocol.run(
                    states, PARAMS, np.random.default_rng(1000 + t)
                ).estimates[-1]
                for t in range(self.TRIALS)
            ]
        )
        streamed = np.array(
            [
                _stream(protocol, states, np.random.default_rng(2000 + t))[-1]
                for t in range(self.TRIALS)
            ]
        )
        pooled_se = np.sqrt(
            np.var(one_shot, ddof=1) / self.TRIALS
            + np.var(streamed, ddof=1) / self.TRIALS
        )
        tolerance = 4 * pooled_se if pooled_se > 0 else 1e-9
        assert abs(one_shot.mean() - streamed.mean()) <= tolerance
        # Unbiasedness of the streaming path for the true final count.
        true_final = float(states[:, -1].sum())
        if pooled_se > 0:
            stream_se = np.std(streamed, ddof=1) / np.sqrt(self.TRIALS)
            assert abs(streamed.mean() - true_final) < 5 * stream_se

    def test_error_scale_agrees(self, name):
        protocol = get_protocol(name)
        states = _signal_states()
        true_final = float(states[:, -1].sum())
        one_shot = np.array(
            [
                protocol.run(
                    states, PARAMS, np.random.default_rng(3000 + t)
                ).estimates[-1]
                - true_final
                for t in range(15)
            ]
        )
        streamed = np.array(
            [
                _stream(protocol, states, np.random.default_rng(4000 + t))[-1]
                - true_final
                for t in range(15)
            ]
        )
        spread_one_shot = np.std(one_shot, ddof=1)
        spread_streamed = np.std(streamed, ddof=1)
        if spread_one_shot == 0 or spread_streamed == 0:
            # Degenerate only if both paths are deterministic (never the
            # case for the mechanisms here, but keep the guard symmetric).
            assert spread_one_shot == spread_streamed
        else:
            assert 0.3 < spread_streamed / spread_one_shot < 3.0



@pytest.mark.parametrize("name", NAMES)
def test_streamed_session_is_bit_identical_under_one_seed(name):
    """A session's output is a function of its seed: two streams from the
    same seed release the same estimates and report the same orders."""
    protocol = get_protocol(name)
    states = _signal_states()
    first, second = (
        protocol.prepare(PARAMS, np.random.default_rng(11)) for _ in range(2)
    )
    for t in range(1, PARAMS.d + 1):
        first.ingest(t, states[:, t - 1])
        second.ingest(t, states[:, t - 1])
        if protocol.online:
            assert np.array_equal(first.estimates(), second.estimates())
    a, b = first.result(), second.result()
    assert _digest(a.estimates, "<f8") == _digest(b.estimates, "<f8")
    if a.orders is None:
        assert b.orders is None
    else:
        assert np.array_equal(a.orders, b.orders)
