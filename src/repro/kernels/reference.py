"""The ``"reference"`` backend: the frozen bit-exact NumPy path.

This backend *is* the historical implementation — it delegates to the exact
code the frozen-reference and bit-identity test vectors were recorded
against, so ``kernel="reference"`` and ``kernel=None`` consume the supplied
generator byte-for-byte identically:

* ``sample_composed_batch`` — per-element float64 Bernoulli draws, annulus
  check, rejection resampling via the double-argsort rank trick
  (:meth:`repro.core.composed_randomizer.ComposedRandomizer.sample_batch`);
* ``uniform_signs`` — ``Generator.choice`` over ``[-1, +1]``;
* ``randomize_composed_matrix`` — the reference body in
  :mod:`repro.core.future_rand`.

It exists as a registry entry so every consumer can name its backend
explicitly (artifact keys, bench reports, CLI flags) and so conformance
tests can compare backends through one interface.
"""

from __future__ import annotations

import numpy as np

from repro.core.composed_randomizer import ComposedRandomizer
from repro.kernels.base import RandomizerKernel

__all__ = ["ReferenceKernel"]

_SIGNS = np.array([-1, 1], dtype=np.int8)


class ReferenceKernel(RandomizerKernel):
    """Bit-exact delegation to the historical NumPy implementations."""

    name = "reference"

    def sample_composed_batch(
        self,
        law,
        b: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        # ComposedRandomizer holds no state beyond the law; constructing one
        # per call is free and keeps this module cycle-free.
        return ComposedRandomizer(law).sample_batch(b, count, rng)

    def uniform_signs(
        self, shape: tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        return rng.choice(_SIGNS, size=shape)

    def randomize_composed_matrix(
        self,
        matrix: np.ndarray,
        k: int,
        sampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        from repro.core.future_rand import _reference_randomize_composed

        return _reference_randomize_composed(matrix, k, sampler, rng)
