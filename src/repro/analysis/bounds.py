"""Theoretical error-bound curves (Theorem 4.1, Lemma 4.6, Section 6).

These are the *formulas the paper states*, exposed as callables so experiments
can overlay measured errors against predicted shapes.  Bounds are reported
both in O-constant-free form (for shape comparison) and, where the paper pins
the constants (Eq. 13), with explicit constants.
"""

from __future__ import annotations

import math

from repro.core.params import ProtocolParams

__all__ = [
    "hoeffding_radius",
    "theorem41_error_bound",
    "central_tree_error_bound",
]


def hoeffding_radius(params: ProtocolParams, c_gap: float, beta_prime: float) -> float:
    """Return Eq. (13)'s explicit per-time error radius.

    ``(1 + log2 d) * c_gap^{-1} * sqrt(2 n ln(2 / beta'))`` — the exact
    Hoeffding bound the proof of Lemma 4.6 derives, with all constants.  This
    is the curve experiment E9 compares measured error quantiles against.
    """
    if not 0 < beta_prime < 1:
        raise ValueError(f"beta_prime must be in (0,1), got {beta_prime}")
    if c_gap <= 0:
        raise ValueError(f"c_gap must be positive, got {c_gap}")
    return (
        params.num_orders
        / c_gap
        * math.sqrt(2.0 * params.n * math.log(2.0 / beta_prime))
    )


def theorem41_error_bound(params: ProtocolParams) -> float:
    """Return Theorem 4.1's bound shape (constant-free).

    ``(log2 d / epsilon) * sqrt(k * n * ln(d / beta))``.
    """
    return (
        params.log_d
        / params.epsilon
        * math.sqrt(params.k * params.n * math.log(params.d / params.beta))
    )


def central_tree_error_bound(params: ProtocolParams) -> float:
    """Return the central-model binary-mechanism shape, user-level privacy.

    A trusted curator running the Dwork/Chan tree mechanism pays
    ``O((k / epsilon) * log2(d)^(3/2) * log(d / beta))`` — crucially independent
    of ``n``, illustrating the local-vs-central gap in experiment E10.
    """
    return (
        (params.k / params.epsilon)
        * params.log_d**1.5
        * math.log(params.d / params.beta)
    )
