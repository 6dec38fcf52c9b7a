"""Walker/Vose alias tables: O(1) draws from a fixed discrete distribution.

The fast kernel samples the composed randomizer's Hamming-*distance* law
(:meth:`repro.core.annulus.AnnulusLaw.distance_pmf`) directly — one alias
draw per user replaces ``k`` per-element Bernoulli draws — so the table is
built once per law and reused across every batch at those parameters.

The construction is the numerically careful variant (Vose 1991): residual
mass is passed between the under- and over-full stacks so the acceptance
probabilities are exact to float64 rounding of the input pmf; no Gumbel
trick, no cumulative-sum binary search, no rejection loop.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AliasTable"]


class AliasTable:
    """Alias sampler over outcomes ``0 .. len(pmf) - 1``.

    >>> table = AliasTable([0.2, 0.5, 0.3])
    >>> draws = table.sample(1000, np.random.default_rng(0))
    >>> sorted(set(draws.tolist()))
    [0, 1, 2]
    """

    def __init__(self, pmf: np.ndarray) -> None:
        pmf = np.asarray(pmf, dtype=np.float64)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError(f"pmf must be a non-empty vector, got shape {pmf.shape}")
        if (pmf < 0).any() or not np.isfinite(pmf).all():
            raise ValueError("pmf entries must be finite and non-negative")
        total = pmf.sum()
        if not total > 0:
            raise ValueError("pmf must have positive total mass")
        size = pmf.size
        scaled = pmf * (size / total)
        accept = np.ones(size, dtype=np.float64)
        alias = np.arange(size, dtype=np.int64)
        small = [i for i in range(size) if scaled[i] < 1.0]
        large = [i for i in range(size) if scaled[i] >= 1.0]
        while small and large:
            under = small.pop()
            over = large.pop()
            accept[under] = scaled[under]
            alias[under] = over
            scaled[over] = (scaled[over] + scaled[under]) - 1.0
            (small if scaled[over] < 1.0 else large).append(over)
        # Leftovers hold probability ~1 up to rounding; pin them to exactly 1.
        for index in small + large:
            accept[index] = 1.0
        self._accept = accept
        self._alias = alias
        self._size = size

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``count`` i.i.d. outcomes as an int64 array.

        Consumes one uniform integer and one uniform float per draw — O(1)
        randomness per sample regardless of the outcome count.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        columns = rng.integers(0, self._size, size=count)
        take_alias = rng.random(count) >= self._accept[columns]
        return np.where(take_alias, self._alias[columns], columns)
