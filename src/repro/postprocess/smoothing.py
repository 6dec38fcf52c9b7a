"""Temporal smoothing for monitoring dashboards.

All operations are post-processing of already-private outputs (no budget
cost).  Smoothing trades temporal resolution for variance: a width-``w``
moving average cuts independent noise by ``sqrt(w)`` while blurring count
changes over ``w`` periods.
"""

from __future__ import annotations

import numpy as np

__all__ = ["moving_average", "exponential_smoothing"]


def moving_average(estimates: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge shrinking (output length preserved).

    >>> moving_average(np.array([0.0, 3.0, 6.0]), window=3).tolist()
    [1.5, 3.0, 4.5]
    """
    series = np.asarray(estimates, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError(f"estimates must be 1-D, got shape {series.shape}")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if window == 1:
        return series.copy()
    kernel = np.ones(window)
    sums = np.convolve(series, kernel, mode="same")
    counts = np.convolve(np.ones_like(series), kernel, mode="same")
    return sums / counts


def exponential_smoothing(estimates: np.ndarray, alpha: float) -> np.ndarray:
    """Exponentially weighted moving average (causal; ``alpha`` = new weight).

    >>> exponential_smoothing(np.array([0.0, 1.0, 1.0]), alpha=0.5).tolist()
    [0.0, 0.5, 0.75]
    """
    series = np.asarray(estimates, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError(f"estimates must be 1-D, got shape {series.shape}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    result = np.empty_like(series)
    result[0] = series[0]
    for index in range(1, series.size):
        result[index] = alpha * series[index] + (1.0 - alpha) * result[index - 1]
    return result
