"""The composed randomizer ``R~`` (Algorithm 3, lines 3–7).

``R~(b)`` perturbs every coordinate of ``b in {-1,+1}^k`` with the basic
randomizer ``R`` and then *conditions on the annulus*: if the perturbed vector
``b'`` lands at a Hamming distance outside ``[LB..UB]`` from ``b``, it is
replaced with a uniform sample from the complement of the annulus.  Correlating
the coordinate noise this way is what buys the ``sqrt(k)`` improvement in
``c_gap`` over independent randomized response.

Two samplers are provided:

* :meth:`ComposedRandomizer.sample` — one input vector (the paper's Algorithm 3);
* :meth:`ComposedRandomizer.sample_batch` — many independent invocations at
  once (vectorized over rows), used by the batch protocol driver where every
  simulated user needs an independent ``b~ = R~(1^k)``.

Both samplers realize *exactly* the law described by
:class:`repro.core.annulus.AnnulusLaw`; the test suite verifies this with
chi-squared goodness-of-fit tests against the closed form.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.annulus import AnnulusLaw
from repro.utils.rng import as_generator
from repro.utils.validation import check_sign_vector

__all__ = ["ComposedRandomizer"]


class ComposedRandomizer:
    """Sampler for ``R~`` under a given :class:`AnnulusLaw`.

    >>> law = AnnulusLaw.for_future_rand(k=8, epsilon=1.0)
    >>> randomizer = ComposedRandomizer(law)
    >>> output = randomizer.sample(np.ones(8, dtype=np.int8), np.random.default_rng(0))
    >>> sorted(set(output.tolist())) in ([-1], [1], [-1, 1])
    True
    """

    def __init__(self, law: AnnulusLaw) -> None:
        self._law = law

    @property
    def law(self) -> AnnulusLaw:
        """The exact output law this sampler realizes."""
        return self._law

    # ------------------------------------------------------------------
    # Scalar sampler (Algorithm 3 verbatim)
    # ------------------------------------------------------------------

    def sample(
        self, b: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Return one draw of ``R~(b)``.

        Follows Algorithm 3: apply ``R`` coordinate-wise; if the result left
        the annulus, replace it with a uniform sample from the complement.
        """
        b = check_sign_vector(b, "b")
        if b.size != self._law.k:
            raise ValueError(f"b must have length k={self._law.k}, got {b.size}")
        rng = as_generator(rng)
        flips = rng.random(self._law.k) < self._law.flip_probability
        distance = int(flips.sum())
        if self._law.lo <= distance <= self._law.hi:
            return np.where(flips, -b, b).astype(np.int8)
        return self._sample_uniform_outside(b, rng)

    def _sample_uniform_outside(
        self, b: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Uniform draw from ``{-1,+1}^k \\ Ann(b)``.

        A uniform sequence outside the annulus has Hamming distance ``i`` with
        probability proportional to ``C(k, i)`` (over the complement range),
        and given ``i`` the flipped coordinate set is uniform among the
        ``C(k, i)`` possibilities.
        """
        distance = int(self._law.sample_outside_distances(1, rng)[0])
        positions = rng.choice(self._law.k, size=distance, replace=False)
        output = b.copy()
        output[positions] = -output[positions]
        return output

    # ------------------------------------------------------------------
    # Batch sampler (vectorized across independent invocations)
    # ------------------------------------------------------------------

    def sample_batch(
        self,
        b: np.ndarray,
        count: int,
        rng: Optional[np.random.Generator] = None,
        *,
        kernel=None,
    ) -> np.ndarray:
        """Return ``count`` independent draws of ``R~(b)`` as a ``(count, k)`` matrix.

        Semantically identical to calling :meth:`sample` ``count`` times; the
        annulus check and the complement resampling are vectorized across rows.

        ``kernel`` selects the sampling backend (:mod:`repro.kernels`):
        ``None`` keeps the historical bit-exact path below; ``"fast"`` draws
        the identical distribution via the exact distance pmf + a vectorized
        partial Fisher–Yates (different, cheaper, randomness consumption).
        """
        b = check_sign_vector(b, "b")
        if b.size != self._law.k:
            raise ValueError(f"b must have length k={self._law.k}, got {b.size}")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        rng = as_generator(rng)
        if kernel is not None:
            # Imported lazily; repro.kernels imports this module.
            from repro.kernels import resolve_kernel

            return resolve_kernel(kernel).sample_composed_batch(
                self._law, b, count, rng
            )
        k = self._law.k
        flips = rng.random((count, k)) < self._law.flip_probability
        distances = flips.sum(axis=1)
        outside = (distances < self._law.lo) | (distances > self._law.hi)
        outputs = np.where(flips, -b[np.newaxis, :], b[np.newaxis, :]).astype(np.int8)
        n_outside = int(outside.sum())
        if n_outside:
            outputs[outside] = self._resample_outside_rows(b, n_outside, rng)
        return outputs

    def _resample_outside_rows(
        self, b: np.ndarray, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized uniform sampling from the annulus complement, per row."""
        k = self._law.k
        target_distances = self._law.sample_outside_distances(count, rng)
        # Rank trick: position ranks of i.i.d. uniforms give a uniformly random
        # permutation per row; flipping the positions with rank < target yields
        # a uniform subset of the required size.
        ranks = rng.random((count, k)).argsort(axis=1).argsort(axis=1)
        flip_mask = ranks < target_distances[:, np.newaxis]
        return np.where(flip_mask, -b[np.newaxis, :], b[np.newaxis, :]).astype(np.int8)
