"""Log-space numeric primitives used throughout the randomizer analysis.

The composed randomizer's output law assigns probability ``g(i) = p^i (1-p)^(k-i)``
to each sequence at Hamming distance ``i`` from the input (Section 5.5 of the
paper).  For realistic ``k`` (hundreds to millions) these probabilities, and the
binomial coefficients that count sequences at each distance, overflow or
underflow double precision.  Every aggregate the paper's proofs manipulate —
annulus masses, ``P*_out``, ``c_gap`` — is therefore computed here in log space.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "LOG_ZERO",
    "log_binom",
    "log_binom_range_sum",
    "logsumexp",
    "log1mexp",
    "stable_exp_diff",
    "log_sub",
]

#: Sentinel for ``log(0)``; chosen so that ``exp(LOG_ZERO) == 0.0`` exactly.
LOG_ZERO = float("-inf")


def log_binom(n: int, i: int) -> float:
    """Return ``log C(n, i)`` computed via ``lgamma``.

    Out-of-range ``i`` (negative or above ``n``) yields ``LOG_ZERO`` so that
    range sums may be written without explicit boundary checks.

    >>> round(log_binom(4, 2), 10) == round(math.log(6), 10)
    True
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if i < 0 or i > n:
        return LOG_ZERO
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


def logsumexp(values: Iterable[float]) -> float:
    """Return ``log(sum(exp(v) for v in values))`` stably.

    An empty iterable or an iterable of only ``LOG_ZERO`` yields ``LOG_ZERO``.
    """
    items = [v for v in values if v != LOG_ZERO]
    if not items:
        return LOG_ZERO
    peak = max(items)
    if peak == float("inf"):
        return float("inf")
    total = sum(math.exp(v - peak) for v in items)
    return peak + math.log(total)


def log1mexp(delta: float) -> float:
    """Return ``log(1 - exp(-delta))`` for ``delta > 0`` stably.

    Uses the standard two-branch scheme (Maechler 2012): ``log(-expm1(-delta))``
    for small ``delta`` and ``log1p(-exp(-delta))`` otherwise.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if delta <= math.log(2):
        return math.log(-math.expm1(-delta))
    return math.log1p(-math.exp(-delta))


def log_sub(a: float, b: float) -> float:
    """Return ``log(exp(a) - exp(b))`` for ``a >= b`` stably."""
    if b == LOG_ZERO:
        return a
    if a < b:
        raise ValueError(f"log_sub requires a >= b, got a={a}, b={b}")
    if a == b:
        return LOG_ZERO
    return a + log1mexp(a - b)


def log_binom_range_sum(n: int, lo: int, hi: int) -> float:
    """Return ``log( sum_{i=lo}^{hi} C(n, i) )``.

    The range is clipped to ``[0, n]``; an empty clipped range yields
    ``LOG_ZERO``.
    """
    lo = max(lo, 0)
    hi = min(hi, n)
    if lo > hi:
        return LOG_ZERO
    return logsumexp(log_binom(n, i) for i in range(lo, hi + 1))


def stable_exp_diff(a: float, b: float) -> float:
    """Return ``exp(a) - exp(b)`` without catastrophic cancellation.

    Both arguments are log-quantities.  The result is returned in linear space
    (it is used for probability *differences*, which are representable even
    when the probabilities themselves are not distinguishable in linear space).
    """
    if a == LOG_ZERO and b == LOG_ZERO:
        return 0.0
    if b == LOG_ZERO:
        return math.exp(a)
    if a == LOG_ZERO:
        return -math.exp(b)
    if a >= b:
        return math.exp(b) * math.expm1(a - b)
    return -math.exp(a) * math.expm1(b - a)
