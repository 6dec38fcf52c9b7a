"""Input validation helpers.

Every public entry point of the library validates its arguments eagerly and
raises ``ValueError``/``TypeError`` with actionable messages, so that misuse is
caught at the API boundary rather than deep inside a vectorized kernel.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "check_power_of_two",
    "check_probability",
    "check_privacy_budget",
    "check_sign_vector",
    "check_ternary_matrix",
    "ensure_int",
    "ensure_positive",
]

#: Row-block granularity for matrix entry scans on dtypes that need an exact
#: membership test; bounds the validation temporaries regardless of ``n``.
_ENTRY_SCAN_BLOCK_ROWS = 4096


def _has_only_ternary_entries(matrix: np.ndarray) -> bool:
    """Whether every entry of ``matrix`` lies in ``{-1, 0, 1}`` (dtype-aware).

    Integer and boolean inputs are checked with O(1)-memory min/max
    reductions; anything else (floats, objects) falls back to the exact
    membership test in bounded row blocks, so validating never allocates a
    second full-size matrix.
    """
    if matrix.dtype.kind == "b":
        return True
    if matrix.dtype.kind == "u":
        return matrix.size == 0 or matrix.max() <= 1
    if matrix.dtype.kind == "i":
        return matrix.size == 0 or (matrix.min() >= -1 and matrix.max() <= 1)
    flat = matrix if matrix.ndim == 2 else matrix.reshape(1, -1)
    for start in range(0, flat.shape[0], _ENTRY_SCAN_BLOCK_ROWS):
        block = flat[start : start + _ENTRY_SCAN_BLOCK_ROWS]
        if not np.isin(block, (-1, 0, 1)).all():
            return False
    return True


def check_ternary_matrix(values: np.ndarray, name: str = "values") -> np.ndarray:
    """Return ``values`` as a 2-D array after checking entries are in {-1, 0, 1}.

    The shared entry validation of every vectorized ``randomize_matrix``
    path (see :func:`_has_only_ternary_entries` for the memory contract).
    """
    matrix = np.asarray(values)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be 2-D (users, L), got shape {matrix.shape}")
    if not _has_only_ternary_entries(matrix):
        raise ValueError(f"{name} entries must all be in {{-1, 0, 1}}")
    return matrix


def ensure_int(value: object, name: str) -> int:
    """Return ``value`` as an ``int``; reject bools and non-integral values."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"{name} must be an integer, got {value!r}")


def ensure_positive(value: object, name: str) -> int:
    """Return ``value`` as a positive ``int``."""
    result = ensure_int(value, name)
    if result <= 0:
        raise ValueError(f"{name} must be positive, got {result}")
    return result


def check_power_of_two(value: object, name: str = "d") -> int:
    """Return ``value`` if it is a positive power of two, else raise.

    The paper assumes w.l.o.g. that the number of time periods ``d`` is a power
    of two (Section 2); the dyadic machinery relies on it.
    """
    result = ensure_positive(value, name)
    if result & (result - 1) != 0:
        raise ValueError(f"{name} must be a power of two, got {result}")
    return result


def check_probability(value: float, name: str) -> float:
    """Return ``value`` if it lies in the open interval (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def check_privacy_budget(epsilon: float, *, require_at_most_one: bool = False) -> float:
    """Validate the privacy budget ``epsilon``.

    The paper's guarantees (Theorem 4.1, Lemma 5.2) assume ``epsilon <= 1``;
    callers that rely on those guarantees pass ``require_at_most_one=True``.
    """
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if require_at_most_one and epsilon > 1.0:
        raise ValueError(
            f"the paper's analysis assumes epsilon <= 1, got {epsilon}; "
            "pass require_at_most_one=False to proceed outside the analyzed regime"
        )
    return epsilon


def check_sign_vector(values: Sequence[int] | np.ndarray, name: str = "b") -> np.ndarray:
    """Return ``values`` as an int8 array after checking entries are in {-1, +1}."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isin(array, (-1, 1)).all():
        raise ValueError(f"{name} entries must all be -1 or +1")
    return array.astype(np.int8)
