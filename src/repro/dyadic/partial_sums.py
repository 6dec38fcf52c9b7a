"""Partial sums over dyadic intervals (Definition 3.4, Observations 3.6–3.9).

For user ``u`` and dyadic interval ``I_{h,j}``:

``S_u(I_{h,j}) = sum_{t in I_{h,j}} X_u[t] = st_u[j*2^h] - st_u[(j-1)*2^h]``,

which always lies in ``{-1, 0, 1}`` (Observation 3.7), and at most ``k`` of the
order-``h`` partial sums are non-zero (Observation 3.6).  The order-0 sums are
the data derivative ``X_u[t] = st_u[t] - st_u[t-1]`` of Definition 3.1 (with
``st_u[0] = 0``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dyadic.intervals import DyadicInterval
from repro.utils.validation import check_power_of_two, ensure_int

__all__ = [
    "partial_sums_of_order",
    "all_partial_sums",
]


def _check_states(states: Sequence[int] | np.ndarray) -> np.ndarray:
    array = np.asarray(states)
    if array.ndim != 1:
        raise ValueError(f"states must be one user's 1-D sequence, got shape {array.shape}")
    if not np.isin(array, (0, 1)).all():
        raise ValueError("states entries must all be 0 or 1")
    check_power_of_two(array.size, "d (= len(states))")
    return array.astype(np.int8)


def partial_sums_of_order(
    states: Sequence[int] | np.ndarray, order: int
) -> np.ndarray:
    """Return the vector ``(S_u(I_{h,1}), ..., S_u(I_{h, d/2^h}))`` for ``h=order``.

    Vectorized over the ``d / 2^order`` intervals; each entry is in {-1, 0, 1}.

    >>> partial_sums_of_order([0, 1, 1, 0], 1).tolist()
    [1, -1]
    """
    array = _check_states(states)
    order = ensure_int(order, "order")
    max_order = array.size.bit_length() - 1
    if not 0 <= order <= max_order:
        raise ValueError(f"order must be in [0, {max_order}], got {order}")
    width = 1 << order
    boundary = array[width - 1 :: width].astype(np.int8)  # st_u[j * 2^h]
    previous = np.empty_like(boundary)
    previous[0] = 0
    previous[1:] = boundary[:-1]
    return (boundary - previous).astype(np.int8)


def all_partial_sums(states: Sequence[int] | np.ndarray) -> dict[DyadicInterval, int]:
    """Return ``S_u(I)`` for every dyadic interval ``I`` (Example 3.5).

    >>> sums = all_partial_sums([0, 1, 1, 0])
    >>> sums[DyadicInterval(0, 2)], sums[DyadicInterval(1, 2)], sums[DyadicInterval(2, 1)]
    (1, -1, 0)
    """
    array = _check_states(states)
    result: dict[DyadicInterval, int] = {}
    for order in range(array.size.bit_length()):
        values = partial_sums_of_order(array, order)
        for j, value in enumerate(values, start=1):
            result[DyadicInterval(order, j)] = int(value)
    return result
