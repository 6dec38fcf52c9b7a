"""Online iteration helpers over population state matrices.

The protocol is online: state arrives one period at a time.  These helpers
present an ``(n, d)`` matrix as the per-period stream the clients consume,
keeping examples and the simulation engine free of indexing arithmetic.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["iterate_periods"]


def iterate_periods(states: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(t, column)`` pairs: the 1-based period and every user's state.

    >>> states = np.array([[0, 1], [1, 1]])
    >>> [(t, col.tolist()) for t, col in iterate_periods(states)]
    [(1, [0, 1]), (2, [1, 1])]
    """
    matrix = np.asarray(states)
    if matrix.ndim != 2:
        raise ValueError(f"states must be 2-D (n, d), got shape {matrix.shape}")
    for t in range(1, matrix.shape[1] + 1):
        yield t, matrix[:, t - 1]
