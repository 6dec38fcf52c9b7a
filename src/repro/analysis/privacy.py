"""Exact privacy verification (Lemma 5.2, Theorem 4.5).

Differential privacy is a worst-case multiplicative statement about output
laws, so it cannot be verified by sampling; it *can* be verified exactly here
because the composed randomizer's law has a closed form.

Two levels are verified:

1. **Composed randomizer** ``R~`` (Lemma 5.2): the ratio
   ``max_s Pr[R~(b)=s] / min_s Pr[R~(b)=s]`` equals ``p'_max / p'_min`` and
   must be at most ``e^eps``.  Because the law depends on ``(b, s)`` only
   through their Hamming distance, a single :class:`AnnulusLaw` suffices
   (:meth:`AnnulusLaw.privacy_log_ratio`).

2. **Full client report** (Theorem 4.5 / Property I): a FutureRand client
   reporting ``L`` values with support size ``m <= k`` outputs a given word
   ``w`` with probability ``2^-(L-m) * q(m, r)``, where ``r`` counts the
   support positions where ``w`` disagrees with the input and

       ``q(m, r) = sum_{j=0}^{k-m} C(k-m, j) * Pr[ ||R~(1^k) - 1^k||_0 = r + j -
       distance contribution ]``

   — precisely the ``Pr[b~ in G]`` computation of Section 5.4.  The worst-case
   ratio over *all* k-sparse inputs and outputs is therefore

       ``max_{m,r} 2^m q(m, r)  /  min_{m,r} 2^m q(m, r)``,

   independent of ``L``.  :func:`client_report_log_ratio` evaluates this
   exactly from O(k^3) terms (O(k^2) pairs ``(m, r)`` of O(k) terms each);
   the brute-force enumerators below cross-validate it on small instances.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from repro.core.annulus import AnnulusLaw
from repro.utils.numerics import LOG_ZERO, log_binom, logsumexp

__all__ = [
    "client_report_log_ratio",
    "support_pattern_log_prob",
    "enumerate_composed_law",
    "enumerate_future_rand_report_law",
    "sequence_support_patterns",
]


def support_pattern_log_prob(law: AnnulusLaw, m: int, r: int) -> float:
    """Return ``log q(m, r) = log Pr[ b~ agrees with a fixed m-prefix pattern ]``.

    ``b~ = R~(1^k)``; the pattern fixes the first ``m`` coordinates of ``b~``
    with ``r`` of them equal to ``-1`` (disagreements); the remaining ``k - m``
    coordinates are free.  Summing the exact law over the free suffix:

        ``q(m, r) = sum_{j=0}^{k-m} C(k-m, j) * exp(log_prob_at_distance(r + j))``.
    """
    k = law.k
    if not 0 <= m <= k:
        raise ValueError(f"m must be in [0, k={k}], got {m}")
    if not 0 <= r <= m:
        raise ValueError(f"r must be in [0, m={m}], got {r}")
    terms = (
        log_binom(k - m, j) + law.log_prob_at_distance(r + j)
        for j in range(k - m + 1)
    )
    return logsumexp(terms)


def client_report_log_ratio(law: AnnulusLaw, *, max_support: int | None = None) -> float:
    """Return the exact log privacy ratio of the full FutureRand client report.

    Maximizes/minimizes ``m * ln 2 + ln q(m, r)`` over support sizes
    ``m in [0 .. max_support]`` (default ``k``) and disagreement counts
    ``r in [0 .. m]``.  Theorem 4.5 promises the result is at most ``epsilon``.

    The ``2^m`` factor arises because an input with support ``m`` spreads
    ``2^-(L-m)`` of uniform mass over its zero coordinates; the ``L``-dependent
    part cancels in every ratio, so the result holds for all ``L >= k``.
    """
    k = law.k
    top = max_support if max_support is not None else k
    if not 0 <= top <= k:
        raise ValueError(f"max_support must be in [0, k={k}], got {top}")
    # ``support_pattern_log_prob`` term by term, with the distance law and
    # each m's binomial row evaluated once instead of once per (m, r).
    log_probs = [law.log_prob_at_distance(i) for i in range(k + 1)]
    best_high = LOG_ZERO
    best_low = math.inf
    for m in range(top + 1):
        log_binoms = [log_binom(k - m, j) for j in range(k - m + 1)]
        for r in range(m + 1):
            value = m * math.log(2.0) + logsumexp(
                [b + p for b, p in zip(log_binoms, log_probs[r:])]
            )
            best_high = max(best_high, value)
            best_low = min(best_low, value)
    return best_high - best_low


# ----------------------------------------------------------------------
# Brute-force enumerators (ground truth for small instances)
# ----------------------------------------------------------------------


def enumerate_composed_law(law: AnnulusLaw, b: np.ndarray) -> dict[tuple[int, ...], float]:
    """Return the exact law ``{s: Pr[R~(b) = s]}`` by enumerating all 2^k outputs.

    Exponential in ``k``; intended for ``k <= 12`` in tests.
    """
    b = np.asarray(b, dtype=np.int8)
    if b.size != law.k:
        raise ValueError(f"b must have length k={law.k}")
    result = {}
    for signs in itertools.product((-1, 1), repeat=law.k):
        s = np.array(signs, dtype=np.int8)
        distance = int((s != b).sum())
        result[signs] = math.exp(law.log_prob_at_distance(distance))
    return result


def sequence_support_patterns(length: int, k: int) -> Iterator[np.ndarray]:
    """Yield every k-sparse input sequence ``v in {-1,0,1}^length``.

    Exponential; intended for ``length <= 8`` in tests.
    """
    for support_size in range(min(k, length) + 1):
        for positions in itertools.combinations(range(length), support_size):
            for signs in itertools.product((-1, 1), repeat=support_size):
                v = np.zeros(length, dtype=np.int8)
                for position, sign in zip(positions, signs, strict=True):
                    v[position] = sign
                yield v


def enumerate_future_rand_report_law(
    law: AnnulusLaw, v: np.ndarray
) -> dict[tuple[int, ...], float]:
    """Return the exact law ``{w: Pr[M outputs w | input v]}`` for FutureRand.

    Uses the structural argument of Sections 5.3–5.4 rather than simulation:
    conditioned on the input's support ``(j_1 < ... < j_m)``, the output ``w``
    requires ``b~_i = w_{j_i} / v_{j_i}`` on the support (probability computed
    from the suffix-summed annulus law) and pays ``2^-(L-m)`` for the uniform
    zero coordinates.  Exponential in ``L``; intended for ``L <= 8`` in tests.
    """
    v = np.asarray(v, dtype=np.int8)
    length = v.size
    support = np.flatnonzero(v)
    m = support.size
    if m > law.k:
        raise ValueError(f"input has support {m} > k={law.k}")
    base = -(length - m) * math.log(2.0)
    result = {}
    for word in itertools.product((-1, 1), repeat=length):
        w = np.array(word, dtype=np.int8)
        disagreements = int((w[support] != v[support]).sum())
        log_prob = base + support_pattern_log_prob(law, m, disagreements)
        result[word] = math.exp(log_prob)
    return result
