"""Exact output law of the composed randomizer ``R~`` (Section 5.5, Appendix A.1).

The law of ``R~(b)`` depends on a candidate output ``s`` only through the
Hamming distance ``i = ||b - s||_0``:

* inside the annulus (``LB <= i <= UB``):   ``Pr[R~(b) = s] = g(i) = p^i (1-p)^(k-i)``
* outside the annulus:                      ``Pr[R~(b) = s] = P*_out`` (Eq. 24),

where ``p = 1/(e^eps_tilde + 1)``.  ``AnnulusLaw`` materializes this law in log
space, from which the library derives — *exactly, with no Monte Carlo* —

* the privacy envelope ``[p'_min, p'_max]`` and the ratio of Lemma 5.2,
* the coordinate-preservation gap ``c_gap`` of Lemma 5.3 (the constant the
  server divides by to debias its estimates),
* the distance distribution used both to sample ``R~`` efficiently and to
  goodness-of-fit test the samplers.

The annulus bounds of the paper are real numbers; Hamming distance is an
integer, so the effective annulus is ``[ceil(LB) .. floor(UB)]``.  Lemma 5.2's
argument survives this discretization (the integer annulus is a subset of the
real one, so ``g`` is still sandwiched between ``g(LB)`` and ``g(UB)``), and
the test suite verifies the ``e^eps`` ratio numerically across a parameter grid.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from repro.core.basic_randomizer import flip_probability
from repro.utils.numerics import (
    LOG_ZERO,
    log_binom,
    log_binom_range_sum,
    log_sub,
    logsumexp,
    stable_exp_diff,
)
from repro.utils.validation import ensure_positive

__all__ = ["AnnulusLaw", "future_rand_bounds", "future_rand_eps_tilde"]

#: Float slack used when discretizing the real-valued annulus bounds, so that
#: bounds that are mathematically integral are not lost to round-off.
_DISCRETIZATION_SLACK = 1e-9


def future_rand_eps_tilde(k: int, epsilon: float) -> float:
    """Return ``eps_tilde = epsilon / (5 sqrt(k))`` (Lemma 5.2's setting)."""
    k = ensure_positive(k, "k")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return epsilon / (5.0 * math.sqrt(k))


def future_rand_bounds(k: int, eps_tilde: float) -> tuple[float, float]:
    """Return the paper's real-valued annulus bounds ``(LB, UB)`` (Eq. 15).

    ``LB = k*p - 2*sqrt(k)`` and ``UB = (k/eps_tilde) * ln(2 e^eps_tilde / (e^eps_tilde + 1))``,
    chosen so that ``g(LB) = e^(2 eps_tilde sqrt(k)) * p_avg`` and ``g(UB) = 2^-k``.
    """
    k = ensure_positive(k, "k")
    p = flip_probability(eps_tilde)
    lower = k * p - 2.0 * math.sqrt(k)
    # ln(2 e^x / (e^x + 1)) = ln 2 + x - ln(e^x + 1), computed stably.
    log_ratio = math.log(2.0) + eps_tilde - math.log1p(math.exp(eps_tilde))
    upper = (k / eps_tilde) * log_ratio
    return lower, upper


class AnnulusLaw:
    """The exact distribution of ``R~(b)`` as a function of Hamming distance.

    Parameters
    ----------
    k:
        Input length (number of non-zero coordinates handled by ``R~``).
    eps_tilde:
        Per-coordinate budget of the underlying basic randomizer.
    lower, upper:
        Real-valued annulus bounds on the Hamming distance.  The effective
        integer annulus is ``[max(0, ceil(lower)) .. min(k, floor(upper))]``.

    Use :meth:`for_future_rand` for the paper's parameterization (Section 5)
    and :meth:`with_bounds` (via ``baselines.bun_composed``) for Algorithm 4.
    """

    def __init__(self, k: int, eps_tilde: float, lower: float, upper: float) -> None:
        self._k = ensure_positive(k, "k")
        if eps_tilde <= 0:
            raise ValueError(f"eps_tilde must be positive, got {eps_tilde}")
        self._eps_tilde = float(eps_tilde)
        self._p = flip_probability(self._eps_tilde)
        self._lower_real = float(lower)
        self._upper_real = float(upper)
        self._lo = max(0, math.ceil(self._lower_real - _DISCRETIZATION_SLACK))
        self._hi = min(self._k, math.floor(self._upper_real + _DISCRETIZATION_SLACK))
        if self._lo > self._hi:
            raise ValueError(
                f"empty integer annulus for k={k}, eps_tilde={eps_tilde}: "
                f"[{self._lower_real:.4f}, {self._upper_real:.4f}] contains no integer"
            )
        # The paper's bounds guarantee UB <= k/2 < k, so the complement is never
        # empty for FutureRand; the Bun et al. parameterization (Algorithm 4)
        # can cover every distance at small k, in which case R~ degenerates to
        # plain coordinate-wise R and the resampling branch is unreachable.
        self._complement_empty = self._lo == 0 and self._hi == self._k

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def for_future_rand(cls, k: int, epsilon: float) -> "AnnulusLaw":
        """Return the law with the paper's FutureRand parameters (Lemma 5.2)."""
        eps_tilde = future_rand_eps_tilde(k, epsilon)
        lower, upper = future_rand_bounds(k, eps_tilde)
        return cls(k, eps_tilde, lower, upper)

    @classmethod
    def with_bounds(
        cls, k: int, eps_tilde: float, lower: float, upper: float
    ) -> "AnnulusLaw":
        """Return a law with caller-supplied real bounds (e.g. Algorithm 4)."""
        return cls(k, eps_tilde, lower, upper)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Input length."""
        return self._k

    @property
    def eps_tilde(self) -> float:
        """Per-coordinate basic-randomizer budget."""
        return self._eps_tilde

    @property
    def flip_probability(self) -> float:
        """``p = 1/(e^eps_tilde + 1)``."""
        return self._p

    @property
    def lo(self) -> int:
        """Smallest Hamming distance inside the annulus."""
        return self._lo

    @property
    def hi(self) -> int:
        """Largest Hamming distance inside the annulus."""
        return self._hi

    @property
    def real_bounds(self) -> tuple[float, float]:
        """The real-valued ``(LB, UB)`` before discretization."""
        return self._lower_real, self._upper_real

    @property
    def complement_empty(self) -> bool:
        """Whether the annulus covers every Hamming distance (no resampling)."""
        return self._complement_empty

    # ------------------------------------------------------------------
    # The law itself
    # ------------------------------------------------------------------

    def log_g(self, i: int | np.ndarray) -> float | np.ndarray:
        """Return ``log g(i) = k*ln(p) + eps_tilde*(k - i)`` (Section 5.5)."""
        return self._k * math.log(self._p) + self._eps_tilde * (self._k - np.asarray(i))

    def g(self, i: int) -> float:
        """Return ``g(i)`` in linear space (may underflow to 0.0 for large k)."""
        return math.exp(self.log_g(i))

    @cached_property
    def log_p_avg(self) -> float:
        """``log p_avg = log g(k*p)``."""
        return float(self.log_g(self._k * self._p))

    @cached_property
    def log_mass_inside(self) -> float:
        """``log Pr[ R(b) lands in the annulus ] = log sum_{i=lo}^{hi} C(k,i) g(i)``."""
        return logsumexp(
            log_binom(self._k, i) + float(self.log_g(i))
            for i in range(self._lo, self._hi + 1)
        )

    @cached_property
    def log_mass_outside(self) -> float:
        """``log Pr[ R(b) misses the annulus ]`` — the resampling probability."""
        inside = self.log_mass_inside
        if inside >= 0.0:
            return LOG_ZERO
        return log_sub(0.0, inside)

    @cached_property
    def log_count_inside(self) -> float:
        """``log sum_{i=lo}^{hi} C(k, i)`` — annulus size (count of sequences)."""
        return log_binom_range_sum(self._k, self._lo, self._hi)

    @cached_property
    def log_count_outside(self) -> float:
        """``log ( 2^k - count_inside )`` — complement size."""
        if self._complement_empty:
            return LOG_ZERO
        return log_sub(self._k * math.log(2.0), self.log_count_inside)

    @cached_property
    def log_p_out(self) -> float:
        """``log P*_out`` (Eq. 24): the common probability of each outside sequence.

        ``LOG_ZERO`` when the complement is empty (no sequence lies outside).
        """
        if self._complement_empty:
            return LOG_ZERO
        return self.log_mass_outside - self.log_count_outside

    def log_prob_at_distance(self, i: int) -> float:
        """Return ``log Pr[R~(b) = s]`` for any ``s`` with ``||b - s||_0 = i``."""
        if not 0 <= i <= self._k:
            raise ValueError(f"distance must be in [0, k={self._k}], got {i}")
        if self._lo <= i <= self._hi:
            return float(self.log_g(i))
        return self.log_p_out

    def distance_pmf(self) -> np.ndarray:
        """Return ``P[||R~(b) - b||_0 = i]`` for ``i = 0..k`` (exact, sums to 1)."""
        log_binoms = np.array([log_binom(self._k, i) for i in range(self._k + 1)])
        log_probs = np.array(
            [self.log_prob_at_distance(i) for i in range(self._k + 1)]
        )
        pmf = np.exp(log_binoms + log_probs)
        return pmf

    # ------------------------------------------------------------------
    # Privacy envelope (Lemma 5.2)
    # ------------------------------------------------------------------

    @cached_property
    def log_p_min(self) -> float:
        """``log p'_min``: the smallest output probability over all sequences."""
        # g is decreasing in the distance, so inside the annulus the minimum
        # is at hi; outside, every sequence has probability P*_out.
        if self._complement_empty:
            return float(self.log_g(self._hi))
        return min(float(self.log_g(self._hi)), self.log_p_out)

    @cached_property
    def log_p_max(self) -> float:
        """``log p'_max``: the largest output probability over all sequences."""
        if self._complement_empty:
            return float(self.log_g(self._lo))
        return max(float(self.log_g(self._lo)), self.log_p_out)

    def privacy_log_ratio(self) -> float:
        """Return ``ln(p'_max / p'_min)``; Lemma 5.2 promises ``<= epsilon``."""
        return self.log_p_max - self.log_p_min

    # ------------------------------------------------------------------
    # Coordinate-preservation gap (Lemma 5.3)
    # ------------------------------------------------------------------

    @cached_property
    def c_gap(self) -> float:
        """Exact ``c_gap = sum_{i=lo}^{hi} C(k,i) (g(i) - P*_out) (k - 2i)/k``.

        This is the closed form derived in the proof of Lemma 5.3; the server
        divides reports by this constant, so it must be exact for the
        estimator to be unbiased.
        """
        total = 0.0
        log_p_out = self.log_p_out
        for i in range(self._lo, self._hi + 1):
            log_c = log_binom(self._k, i)
            difference = stable_exp_diff(log_c + float(self.log_g(i)), log_c + log_p_out)
            total += difference * (self._k - 2 * i) / self._k
        return total

    def coordinate_preservation_probabilities(self) -> tuple[float, float]:
        """Return ``(Pr[b~_1 = b_1], Pr[b~_1 = -b_1])`` exactly (Lemma 5.3 proof).

        Provides an independent derivation of ``c_gap`` used for cross-checks:
        ``c_gap == preserved - flipped`` and ``preserved + flipped == 1``.
        """
        log_keep_terms = []
        log_flip_terms = []
        for i in range(self._k + 1):
            log_c = log_binom(self._k, i)
            log_prob = self.log_prob_at_distance(i)
            keep_fraction = (self._k - i) / self._k
            flip_fraction = i / self._k
            if keep_fraction > 0:
                log_keep_terms.append(log_c + log_prob + math.log(keep_fraction))
            if flip_fraction > 0:
                log_flip_terms.append(log_c + log_prob + math.log(flip_fraction))
        return math.exp(logsumexp(log_keep_terms)), math.exp(logsumexp(log_flip_terms))

    # ------------------------------------------------------------------
    # Sampling support
    # ------------------------------------------------------------------

    @cached_property
    def outside_distance_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(distances, probabilities)`` of ``||s - b||_0`` for uniform
        ``s`` outside the annulus.

        The distribution is proportional to ``C(k, i)`` over the complement of
        ``[lo..hi]``; normalized stably in log space.
        """
        if self._complement_empty:
            raise RuntimeError(
                "the annulus covers every Hamming distance; there is nothing "
                "to resample outside it"
            )
        distances = np.array(
            [i for i in range(self._k + 1) if not self._lo <= i <= self._hi],
            dtype=np.int64,
        )
        log_weights = np.array([log_binom(self._k, int(i)) for i in distances])
        log_weights -= log_weights.max()
        weights = np.exp(log_weights)
        return distances, weights / weights.sum()

    def sample_outside_distances(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample ``count`` Hamming distances for uniform-outside resampling."""
        distances, probabilities = self.outside_distance_distribution
        return rng.choice(distances, size=count, p=probabilities)
