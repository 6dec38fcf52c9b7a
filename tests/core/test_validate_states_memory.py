"""``validate_states``: dtype-aware checks and bounded-memory validation.

The historical implementation called ``np.isin(matrix, (0, 1))`` — a second
full ``(n, d)`` boolean allocation — and ``np.diff(..., prepend=0)`` — a
third.  Validation now scans in bounded row blocks with dtype-aware entry
checks (min/max reductions for integer inputs), so its peak incremental
allocation is a small fraction of the matrix, regression-tested here with
``tracemalloc``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.core.vectorized import validate_states

_PARAMS = ProtocolParams(n=100, d=16, k=3, epsilon=1.0)


def _alternating(n: int, d: int, dtype) -> np.ndarray:
    # Each user holds 0 then flips once at a staggered time: <= 1 change.
    states = np.zeros((n, d), dtype=dtype)
    flip_at = np.arange(n) % d
    columns = np.arange(d)[np.newaxis, :]
    states[columns >= flip_at[:, np.newaxis]] = 1
    return states


class TestDtypeAwareChecks:
    @pytest.mark.parametrize(
        "dtype", [np.bool_, np.int8, np.int64, np.uint8, np.float64]
    )
    def test_accepts_valid_matrices_of_any_dtype(self, dtype):
        states = _alternating(_PARAMS.n, _PARAMS.d, dtype)
        validate_states(states, _PARAMS)

    @pytest.mark.parametrize("bad_value", [2, -1])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_rejects_out_of_range_integers(self, bad_value, dtype):
        states = _alternating(_PARAMS.n, _PARAMS.d, dtype)
        states[3, 5] = bad_value
        with pytest.raises(ValueError, match="0 or 1"):
            validate_states(states, _PARAMS)

    def test_rejects_fractional_floats(self):
        states = _alternating(_PARAMS.n, _PARAMS.d, np.float64)
        states[0, 0] = 0.5  # min/max would pass; exactness must not
        with pytest.raises(ValueError, match="0 or 1"):
            validate_states(states, _PARAMS)

    def test_rejects_change_budget_violations_in_any_block(self):
        states = _alternating(5000, _PARAMS.d, np.int8)
        params = ProtocolParams(n=5000, d=_PARAMS.d, k=3, epsilon=1.0)
        states[4321] = np.arange(_PARAMS.d) % 2  # flips every period
        with pytest.raises(ValueError, match="exceeding k"):
            validate_states(states, params)

    def test_counts_the_implicit_zero_start(self):
        # A user starting at 1 spends one change even with no later flips.
        params = ProtocolParams(n=2, d=4, k=1, epsilon=1.0)
        states = np.array([[1, 1, 1, 1], [1, 0, 0, 0]], dtype=np.int8)
        validate_states(states[:1], params, rows=1)
        with pytest.raises(ValueError, match="exceeding k"):
            validate_states(states, params)

    def test_rows_override_for_chunk_validation(self):
        chunk = _alternating(7, _PARAMS.d, np.int8)
        validate_states(chunk, _PARAMS, rows=7)
        with pytest.raises(ValueError, match="disagrees with params"):
            validate_states(chunk, _PARAMS, rows=8)
        with pytest.raises(ValueError, match="disagrees with params"):
            validate_states(chunk, _PARAMS)  # default expects params.n rows

    def test_slice_shape_error_names_the_slice_not_n(self):
        """A wrong-width slice names its expected (rows, d) and params.d; the
        slice size is never presented as ``n``."""
        with pytest.raises(ValueError) as error:
            validate_states(np.zeros((8, 32), dtype=np.int8), _PARAMS, rows=8)
        message = str(error.value)
        assert "(8, 16)" in message
        assert "d=16" in message
        assert "n=" not in message

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError, match="2-D"):
            validate_states(np.zeros(16, dtype=np.int8), _PARAMS)


class TestBoundedMemory:
    def test_no_full_size_temporary(self):
        """Peak incremental allocation stays far below one matrix copy."""
        n, d = 16_384, 512
        params = ProtocolParams(n=n, d=d, k=d, epsilon=1.0)
        states = _alternating(n, d, np.int8)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            validate_states(states, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        incremental = peak - before
        # The historical isin+diff path allocated >= 2x the matrix; the
        # blockwise scan must stay under a quarter of one copy.
        assert incremental < states.nbytes // 4, (
            f"validation allocated {incremental / 1e6:.1f} MB against a "
            f"{states.nbytes / 1e6:.1f} MB matrix"
        )

    def test_historical_full_size_check_would_fail_this_budget(self):
        """The bound above genuinely discriminates: isin alone busts it."""
        n, d = 16_384, 512
        states = _alternating(n, d, np.int8)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            assert np.isin(states, (0, 1)).all()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before >= states.nbytes // 4
