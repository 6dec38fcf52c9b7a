"""Unit and property tests for the log-space numeric primitives."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.utils.numerics import (
    LOG_ZERO,
    log1mexp,
    log_binom,
    log_binom_range_sum,
    log_sub,
    logsumexp,
    stable_exp_diff,
)


class TestLogBinom:
    def test_matches_math_comb_small(self):
        for n in range(0, 25):
            for i in range(0, n + 1):
                expected = math.log(math.comb(n, i))
                assert log_binom(n, i) == pytest.approx(expected, abs=1e-9)

    def test_out_of_range_is_log_zero(self):
        assert log_binom(5, -1) == LOG_ZERO
        assert log_binom(5, 6) == LOG_ZERO

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            log_binom(-1, 0)

    def test_large_n_is_finite(self):
        value = log_binom(10**6, 10**6 // 2)
        assert math.isfinite(value)
        # log C(n, n/2) ~ n ln 2 - 0.5 ln(pi n / 2)
        approx = 10**6 * math.log(2) - 0.5 * math.log(math.pi * 10**6 / 2)
        assert value == pytest.approx(approx, rel=1e-6)

    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
    def test_symmetry(self, n, i):
        if i <= n:
            assert log_binom(n, i) == pytest.approx(log_binom(n, n - i), abs=1e-8)


class TestLogSumExp:
    def test_empty_is_log_zero(self):
        assert logsumexp([]) == LOG_ZERO

    def test_all_log_zero(self):
        assert logsumexp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO

    def test_matches_naive(self):
        values = [-1.0, -2.5, 0.3]
        expected = math.log(sum(math.exp(v) for v in values))
        assert logsumexp(values) == pytest.approx(expected, abs=1e-12)

    def test_log_zero_is_the_identity(self):
        assert logsumexp([LOG_ZERO, 1.5]) == 1.5
        assert logsumexp([1.5, LOG_ZERO]) == 1.5

    def test_extreme_values_no_overflow(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2))
        assert logsumexp([-2000.0, -2000.0]) == pytest.approx(-2000.0 + math.log(2))

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20))
    def test_bounds_property(self, values):
        result = logsumexp(values)
        peak = max(values)
        assert peak <= result <= peak + math.log(len(values)) + 1e-9


class TestLog1mExp:
    def test_small_delta_branch(self):
        delta = 0.1
        assert log1mexp(delta) == pytest.approx(math.log(1 - math.exp(-delta)), abs=1e-12)

    def test_large_delta_branch(self):
        delta = 10.0
        assert log1mexp(delta) == pytest.approx(math.log(1 - math.exp(-delta)), abs=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            log1mexp(0.0)
        with pytest.raises(ValueError):
            log1mexp(-1.0)


class TestLogAddSub:
    def test_log_sub_matches_naive(self):
        assert log_sub(-1.0, -2.0) == pytest.approx(
            math.log(math.exp(-1.0) - math.exp(-2.0)), abs=1e-12
        )

    def test_log_sub_equal_args(self):
        assert log_sub(2.0, 2.0) == LOG_ZERO

    def test_log_sub_rejects_negative_result(self):
        with pytest.raises(ValueError):
            log_sub(-2.0, -1.0)

    def test_log_sub_log_zero_subtrahend(self):
        assert log_sub(3.0, LOG_ZERO) == 3.0

    def test_log_sub_underflow_regression(self):
        # Linear space, e^(4.49e-34) - e^0 rounds to exactly 0.0; the
        # log-space path still resolves log(4.49e-34) ~ -76.8.
        assert log_sub(4.49e-34, 0.0) == pytest.approx(
            math.log(4.49e-34), rel=1e-12
        )

    @given(
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=1e-12, max_value=40),
    )
    def test_log_sub_matches_high_precision_reference(self, a, delta):
        """``log(e^a - e^b)`` against 60-digit ``Decimal`` arithmetic, which
        neither underflows nor loses the residue of a near cancellation."""
        b = a - delta
        assume(b < a)
        with localcontext() as context:
            context.prec = 60
            reference = (Decimal(a).exp() - Decimal(b).exp()).ln()
        assert log_sub(a, b) == pytest.approx(float(reference), abs=1e-12)


class TestStableExpDiff:
    def test_both_log_zero(self):
        assert stable_exp_diff(LOG_ZERO, LOG_ZERO) == 0.0

    def test_one_sided(self):
        assert stable_exp_diff(0.0, LOG_ZERO) == pytest.approx(1.0)
        assert stable_exp_diff(LOG_ZERO, 0.0) == pytest.approx(-1.0)

    def test_close_values_preserve_precision(self):
        a = -5.0
        b = -5.0 + 1e-12
        result = stable_exp_diff(b, a)
        expected = math.exp(-5.0) * 1e-12
        assert result == pytest.approx(expected, rel=1e-3)

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
    )
    def test_matches_naive_up_to_float_resolution(self, a, b):
        # The stable version can be *more* accurate than naive subtraction
        # (which rounds tiny differences to zero), so compare with an absolute
        # tolerance at the resolution of the larger operand.
        tolerance = 1e-12 * max(math.exp(a), math.exp(b))
        assert stable_exp_diff(a, b) == pytest.approx(
            math.exp(a) - math.exp(b), abs=tolerance
        )


class TestLogBinomRangeSum:
    def test_full_range_is_2_to_n(self):
        assert log_binom_range_sum(20, 0, 20) == pytest.approx(20 * math.log(2), abs=1e-9)

    def test_clipping(self):
        assert log_binom_range_sum(10, -5, 3) == pytest.approx(
            math.log(sum(math.comb(10, i) for i in range(0, 4))), abs=1e-9
        )

    def test_empty_range(self):
        assert log_binom_range_sum(10, 7, 3) == LOG_ZERO

    def test_zero_n_has_one_subset(self):
        assert log_binom_range_sum(0, 0, 0) == 0.0

    @given(st.integers(min_value=0, max_value=200), st.data())
    def test_single_term_is_log_binom(self, n, data):
        i = data.draw(st.integers(min_value=0, max_value=n))
        assert log_binom_range_sum(n, i, i) == pytest.approx(
            log_binom(n, i), abs=1e-9
        )
