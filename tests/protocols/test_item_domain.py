"""Per-item behaviour of the item-domain registry entries.

:class:`tests.protocols.test_registry.TestItemDomainContract` covers the
shared surface (domain sizing, out-of-domain items, result type); the
conformance suite bounds the tracked item 1.  These tests cover the rest:
the per-item views, the ``k`` charging rule for item switches, unbiasedness
for items other than item 1, the sign-hash oracle against one-hot
coordinate sampling, and the median sketch's own knobs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.protocols import SketchMedianProtocol, get_protocol


def _params(items: np.ndarray, k: int = 1) -> ProtocolParams:
    n, d = items.shape
    return ProtocolParams(n=n, d=d, k=k, epsilon=1.0)


def _final_item_estimates(name, m, items, seed) -> np.ndarray:
    """The period-``d`` row of ``item_estimates`` for one run of ``name``."""
    protocol = get_protocol(name).with_domain_size(m)
    result = protocol.run(items, _params(items), np.random.default_rng(seed))
    return result.item_estimates[-1]


def _within_four_standard_errors(values, target) -> bool:
    mean = float(np.mean(values))
    standard_error = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    return abs(mean - target) < 4 * standard_error + 1e-9


def _small_run(name, m=4, d=8):
    """One run of ``name`` on a static 120-user population over ``m`` items."""
    rng = np.random.default_rng(3)
    items = rng.integers(0, m, size=(120, 1), dtype=np.int64).repeat(d, axis=1)
    protocol = get_protocol(name).with_domain_size(m)
    return items, protocol.run(items, _params(items), np.random.default_rng(4))


@pytest.mark.parametrize("name", ["categorical", "hashed_frequency", "sketch_median"])
def test_estimates_shape(name):
    """``item_estimates`` is ``(d, m)``: one row per period, one column per item."""
    _, result = _small_run(name, m=4, d=8)
    assert result.item_estimates.shape == (8, 4)


@pytest.mark.parametrize("name", ["categorical", "hashed_frequency", "sketch_median"])
def test_true_item_counts(name):
    """``true_item_counts`` is the exact per-period histogram of the items."""
    m, d = 4, 8
    items, result = _small_run(name, m=m, d=d)
    expected = np.stack([np.bincount(items[:, t], minlength=m) for t in range(d)])
    np.testing.assert_array_equal(result.true_item_counts, expected)


@pytest.mark.parametrize("name", ["categorical", "hashed_frequency"])
class TestItemEstimates:
    def test_binary_change_bound(self, name):
        """``k`` item switches flip any Boolean view of the item at most
        ``k + 1`` times, so each coordinate stream runs at budget k + 1."""
        params = ProtocolParams(n=10, d=8, k=3, epsilon=1.0)
        protocol = get_protocol(name).with_domain_size(10)
        assert protocol.binary_family(params).k == 4

    def test_validation(self, name):
        """The initial item is free; each later switch counts against k."""
        protocol = get_protocol(name).with_domain_size(3)
        settled = np.zeros((5, 8), dtype=np.int64)
        settled[0] = [2, 2, 2, 0, 0, 0, 0, 0]  # starts on item 2, one switch
        protocol.run(settled, _params(settled), np.random.default_rng(0))
        churner = np.zeros((5, 8), dtype=np.int64)
        churner[0] = [0, 1, 0, 1, 0, 1, 0, 1]  # 7 item switches > k
        with pytest.raises(ValueError, match="exceeding k=1"):
            protocol.run(churner, _params(churner), np.random.default_rng(0))

    def test_unbiased_on_static_population(self, name):
        """Everyone holds item 2 (not the tracked item 1) forever: the mean
        final estimate of item 2 is n."""
        m, d, n = 8, 8, 20_000
        items = np.full((n, d), 2, dtype=np.int64)
        finals = [
            _final_item_estimates(name, m, items, trial)[2] for trial in range(30)
        ]
        assert _within_four_standard_errors(finals, n)

    def test_absent_item_estimates_near_zero(self, name):
        m, d, n = 8, 8, 20_000
        items = np.full((n, d), 3, dtype=np.int64)
        finals = [
            _final_item_estimates(name, m, items, 100 + trial)[0]
            for trial in range(30)
        ]
        assert _within_four_standard_errors(finals, 0.0)


class TestHashedFrequency:
    def test_domain_size_free_noise(self):
        """Unlike one-hot sampling, the per-item noise does not grow with m."""
        items = np.zeros((300, 8), dtype=np.int64)
        spreads = {
            m: np.std(
                [
                    _final_item_estimates("hashed_frequency", m, items, trial)[0]
                    for trial in range(12)
                ],
                ddof=1,
            )
            for m in (4, 64)
        }
        assert spreads[64] < 3 * spreads[4]

    def test_hashed_beats_one_hot_for_large_domains(self):
        """The motivating trade-off: at m=32 the hash oracle's per-item error
        is smaller than the one-hot coordinate sampler's."""
        m, d, n = 32, 8, 2000
        rng = np.random.default_rng(0)
        items = rng.integers(0, m, size=(n, 1), dtype=np.int64).repeat(d, axis=1)
        truth = np.bincount(items[:, -1], minlength=m)
        hashed_errors, onehot_errors = [], []
        for trial in range(6):
            hashed = _final_item_estimates("hashed_frequency", m, items, 10 + trial)
            onehot = _final_item_estimates("categorical", m, items, 20 + trial)
            hashed_errors.append(np.abs(hashed - truth).max())
            onehot_errors.append(np.abs(onehot - truth).max())
        assert np.mean(hashed_errors) < np.mean(onehot_errors)


class TestSketchMedian:
    def test_repetitions_property(self):
        protocol = SketchMedianProtocol(10, repetitions=7)
        assert protocol.repetitions == 7
        assert protocol.with_domain_size(16).repetitions == 7

    def test_even_repetitions_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            SketchMedianProtocol(10, repetitions=4)

    def test_too_few_users_rejected(self):
        protocol = SketchMedianProtocol(10, repetitions=5)
        params = ProtocolParams(n=3, d=8, k=1, epsilon=1.0)
        with pytest.raises(ValueError, match="at least 5 users"):
            protocol.prepare(params, np.random.default_rng(0))

    def test_median_tames_outliers(self):
        """The median's worst-case per-item error stays within a small factor
        of the single-repetition oracle's on the same population."""
        m, d, n = 16, 8, 3000
        rng = np.random.default_rng(0)
        items = rng.integers(0, m, size=(n, 1), dtype=np.int64).repeat(d, axis=1)
        truth = np.bincount(items[:, -1], minlength=m)
        single_errors, median_errors = [], []
        for trial in range(6):
            single = _final_item_estimates("hashed_frequency", m, items, 10 + trial)
            median = _final_item_estimates("sketch_median", m, items, 20 + trial)
            single_errors.append(np.abs(single - truth).max())
            median_errors.append(np.abs(median - truth).max())
        assert np.mean(median_errors) < 3 * np.mean(single_errors)
