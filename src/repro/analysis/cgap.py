"""Exact coordinate-preservation gaps (``c_gap``) of every randomizer family.

``c_gap`` is the paper's central utility constant: the server's estimates are
scaled by ``c_gap^{-1}``, so the ℓ∞ error of the framework is proportional to
``c_gap^{-1}`` (Lemma 4.6).  The families compared in the paper:

=====================  ==========================================  ===========
family                 c_gap                                        asymptotics
=====================  ==========================================  ===========
FutureRand (ours)      exact sum over the annulus law (Lemma 5.3)  Ω(ε/√k)
Example 4.2 (naive)    (e^(ε/k) - 1)/(e^(ε/k) + 1)                 Ω(ε/k)
Erlingsson et al.      (e^(ε/2) - 1)/(e^(ε/2) + 1), estimator ×k   Ω(ε), but ×k
Bun et al. (Alg. 4)    exact sum under the λ-annulus (Thm A.8)     O(ε/√(k ln(k/ε)))
=====================  ==========================================  ===========

The Erlingsson et al. and Bun et al. gaps are the ``c_gap(params)`` of their
registry protocols (``get_protocol("erlingsson")``, ``"bun_composed"``).
"""

from __future__ import annotations

import math

from repro.core.annulus import AnnulusLaw
from repro.core.basic_randomizer import basic_c_gap
from repro.utils.validation import ensure_positive

__all__ = [
    "cgap_future_rand",
    "cgap_simple",
    "cgap_constant_series",
]


def cgap_future_rand(k: int, epsilon: float) -> float:
    """Exact ``c_gap`` of FutureRand at sparsity ``k`` and budget ``epsilon``."""
    return AnnulusLaw.for_future_rand(k, epsilon).c_gap


def cgap_simple(k: int, epsilon: float) -> float:
    """Exact ``c_gap`` of the Example 4.2 randomizer: ``tanh(epsilon / (2k))``."""
    k = ensure_positive(k, "k")
    return basic_c_gap(epsilon / k)


def cgap_constant_series(
    ks: list[int], epsilon: float
) -> list[dict[str, float]]:
    """Return per-``k`` rows of normalized gap constants for experiment E6.

    Each row reports ``c_gap * sqrt(k) / epsilon`` for FutureRand (Lemma 5.3
    says this is bounded below by a constant) and ``c_gap * k / epsilon`` for
    the Example 4.2 randomizer (bounded, but its un-normalized gap decays
    linearly).
    """
    rows = []
    for k in ks:
        future = cgap_future_rand(k, epsilon)
        simple = cgap_simple(k, epsilon)
        rows.append(
            {
                "k": float(k),
                "cgap_future_rand": future,
                "cgap_simple": simple,
                "future_normalized": future * math.sqrt(k) / epsilon,
                "simple_normalized": simple * k / epsilon,
                "ratio_future_over_simple": future / simple,
            }
        )
    return rows
