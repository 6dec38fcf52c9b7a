"""Tests for the argument validators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.validation import (
    _has_only_ternary_entries,
    check_power_of_two,
    check_privacy_budget,
    check_probability,
    check_sign_vector,
    check_ternary_matrix,
    ensure_int,
    ensure_positive,
)


class TestCheckTernaryMatrix:
    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int64, np.uint8, np.float64, bool]
    )
    def test_accepts_valid_entries_any_dtype(self, dtype):
        matrix = np.array([[0, 1, 0], [1, 0, 1]]).astype(dtype)
        result = check_ternary_matrix(matrix)
        assert result.shape == (2, 3)

    def test_accepts_negative_ones(self):
        check_ternary_matrix(np.array([[-1, 0, 1]], dtype=np.int8))
        check_ternary_matrix(np.array([[-1.0, 0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [2, -2, 0.5, np.nan])
    def test_rejects_out_of_range_entries(self, bad):
        matrix = np.array([[0.0, 1.0, float(bad)]])
        with pytest.raises(ValueError, match="must all be in"):
            check_ternary_matrix(matrix)

    def test_rejects_complex_unit_modulus(self):
        # |1j| == 1: only an exact membership test keeps complex entries out.
        with pytest.raises(ValueError, match="must all be in"):
            check_ternary_matrix(np.array([[1j, 0, -1j]]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            check_ternary_matrix(np.array([0, 1, 0]))

    def test_error_message_uses_name(self):
        with pytest.raises(ValueError, match="states entries"):
            check_ternary_matrix(np.array([[5]]), "states")

    def test_entry_scan_handles_1d_float_fallback(self):
        # The blockwise isin fallback must also cope with 1-D input when
        # called directly (the 2-D check lives in check_ternary_matrix).
        assert _has_only_ternary_entries(np.array([0.0, 1.0, -1.0]))
        assert not _has_only_ternary_entries(np.array([0.5]))

    def test_large_float_matrix_scanned_in_blocks(self):
        matrix = np.zeros((10_000, 3), dtype=np.float64)
        matrix[9_999, 2] = 7.0  # violation in the last block
        assert not _has_only_ternary_entries(matrix)


class TestEnsureInt:
    def test_int_passthrough(self):
        assert ensure_int(5, "x") == 5

    def test_numpy_integer(self):
        assert ensure_int(np.int64(7), "x") == 7

    def test_integral_float(self):
        assert ensure_int(4.0, "x") == 4

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            ensure_int(True, "x")

    def test_fractional_rejected(self):
        with pytest.raises(TypeError):
            ensure_int(4.5, "x")

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            ensure_int("4", "x")


class TestEnsurePositive:
    def test_positive(self):
        assert ensure_positive(1, "x") == 1

    @pytest.mark.parametrize("value", [0, -1, -100])
    def test_non_positive_rejected(self, value):
        with pytest.raises(ValueError):
            ensure_positive(value, "x")


class TestCheckPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 8, 1024, 2**20])
    def test_accepts_powers(self, value):
        assert check_power_of_two(value) == value

    @pytest.mark.parametrize("value", [3, 5, 6, 7, 12, 1000])
    def test_rejects_non_powers(self, value):
        with pytest.raises(ValueError):
            check_power_of_two(value)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_power_of_two(0)


class TestCheckProbability:
    def test_accepts_interior(self):
        assert check_probability(0.5, "p") == 0.5

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_boundary_and_outside(self, value):
        with pytest.raises(ValueError):
            check_probability(value, "p")


class TestCheckPrivacyBudget:
    def test_accepts_positive(self):
        assert check_privacy_budget(0.5) == 0.5
        assert check_privacy_budget(3.0) == 3.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            check_privacy_budget(0.0)

    def test_regime_guard(self):
        assert check_privacy_budget(1.0, require_at_most_one=True) == 1.0
        with pytest.raises(ValueError):
            check_privacy_budget(1.5, require_at_most_one=True)


class TestCheckSignVector:
    def test_accepts_signs(self):
        result = check_sign_vector([1, -1, 1])
        assert result.dtype == np.int8
        assert result.tolist() == [1, -1, 1]

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            check_sign_vector([1, 0, -1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_sign_vector([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            check_sign_vector(np.ones((2, 2)))
