"""Discrete data derivative (Definition 3.1) and its inverse.

For a Boolean value sequence ``st_u in {0,1}^d`` the derivative is
``X_u[t] = st_u[t] - st_u[t-1]`` with the convention ``st_u[0] = 0``.  If the
user's value changes at most ``k`` times then ``X_u`` has at most ``k``
non-zero coordinates — the sparsification every protocol in the paper exploits.

All sequences here are 0-indexed numpy arrays whose position ``t-1`` holds the
value at (1-based) time ``t``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["derivative", "integrate", "change_count"]


def derivative(states: Sequence[int] | np.ndarray) -> np.ndarray:
    """Return the discrete derivative ``X_u`` of a Boolean sequence ``st_u``.

    Accepts a 1-D sequence (one user) or a 2-D array of shape ``(n, d)``
    (one row per user); the derivative is taken along the last axis.

    >>> derivative([0, 1, 1, 0]).tolist()
    [0, 1, 0, -1]
    """
    array = np.asarray(states)
    if array.size == 0:
        raise ValueError("states must be non-empty")
    if not np.isin(array, (0, 1)).all():
        raise ValueError("states entries must all be 0 or 1")
    signed = array.astype(np.int8)
    result = np.empty_like(signed)
    if signed.ndim == 1:
        result[0] = signed[0]  # st_u[0] = 0 convention
        result[1:] = signed[1:] - signed[:-1]
    elif signed.ndim == 2:
        result[:, 0] = signed[:, 0]
        result[:, 1:] = signed[:, 1:] - signed[:, :-1]
    else:
        raise ValueError(f"states must be 1-D or 2-D, got shape {array.shape}")
    return result


def integrate(deriv: Sequence[int] | np.ndarray) -> np.ndarray:
    """Invert :func:`derivative`: return ``st_u[t] = sum_{t' <= t} X_u[t']``.

    >>> integrate([0, 1, 0, -1]).tolist()
    [0, 1, 1, 0]
    """
    array = np.asarray(deriv)
    if array.size == 0:
        raise ValueError("deriv must be non-empty")
    if not np.isin(array, (-1, 0, 1)).all():
        raise ValueError("deriv entries must all be in {-1, 0, 1}")
    states = np.cumsum(array.astype(np.int64), axis=-1)
    if not np.isin(states, (0, 1)).all():
        raise ValueError("deriv does not integrate to a Boolean sequence")
    return states.astype(np.int8)


def change_count(states: Sequence[int] | np.ndarray) -> np.ndarray | int:
    """Return the number of value changes (non-zero derivative coordinates).

    For a 2-D input, returns a per-row vector of counts.

    >>> int(change_count([0, 1, 1, 0]))
    2
    """
    deriv = derivative(states)
    counts = np.count_nonzero(deriv, axis=-1)
    if np.ndim(counts) == 0:
        return int(counts)
    return counts
