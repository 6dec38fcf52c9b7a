"""Empirical error metrics and scaling fits for the experiment harness.

The paper's accuracy claims are about the ℓ∞ error ``max_t |a_hat[t] - a[t]|``
(Definition 2.1) and how it *scales* with ``k``, ``d``, ``n`` and ``epsilon``.
``summarize_errors`` condenses one run; ``fit_power_law`` recovers scaling
exponents from sweeps (e.g. experiment E2 expects the error-vs-``k`` exponent
to be close to 0.5 for FutureRand and 1.0 for Erlingsson et al.).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ErrorSummary", "summarize_errors", "fit_power_law", "fit_log_law"]


@dataclass(frozen=True)
class ErrorSummary:
    """Condensed error statistics of one protocol run."""

    max_abs: float
    mean_abs: float
    rmse: float
    p95_abs: float
    final_abs: float


def summarize_errors(
    estimates: np.ndarray, true_counts: np.ndarray
) -> ErrorSummary:
    """Return :class:`ErrorSummary` for one run's estimate/truth pair."""
    estimates = np.asarray(estimates, dtype=np.float64)
    true_counts = np.asarray(true_counts, dtype=np.float64)
    if estimates.shape != true_counts.shape:
        raise ValueError(
            f"shape mismatch: estimates {estimates.shape} vs truth {true_counts.shape}"
        )
    if estimates.size == 0:
        raise ValueError("need at least one time period")
    errors = np.abs(estimates - true_counts)
    return ErrorSummary(
        max_abs=float(errors.max()),
        mean_abs=float(errors.mean()),
        rmse=float(np.sqrt(np.mean(errors**2))),
        p95_abs=float(np.quantile(errors, 0.95)),
        final_abs=float(errors[-1]),
    )


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Fit ``y = c * x^alpha`` by least squares in log-log space.

    Returns ``(alpha, c)``.  Used to recover scaling exponents from parameter
    sweeps; requires positive inputs and at least two distinct ``x`` values.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D with equal length")
    if xs.size < 2 or np.unique(xs).size < 2:
        raise ValueError("need at least two distinct x values")
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("power-law fitting requires positive values")
    log_x = np.log(xs)
    log_y = np.log(ys)
    alpha, log_c = np.polyfit(log_x, log_y, 1)
    return float(alpha), float(math.exp(log_c))


def fit_log_law(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Fit ``y = a * log2(x) + b`` by least squares.

    Returns ``(a, b)``.  Used for the error-vs-``d`` experiment (E3), where
    Theorem 4.1 predicts growth proportional to ``log d`` (times the weak
    ``sqrt(ln d)`` inside the concentration term).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D with equal length")
    if xs.size < 2 or np.unique(xs).size < 2:
        raise ValueError("need at least two distinct x values")
    if (xs <= 0).any():
        raise ValueError("log-law fitting requires positive x values")
    slope, intercept = np.polyfit(np.log2(xs), ys, 1)
    return float(slope), float(intercept)
