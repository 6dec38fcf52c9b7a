"""Abstract interfaces for client-side sequence randomizers (Section 4.2).

The framework (Algorithms 1 and 2) is agnostic to the concrete randomizer
``M``: it only requires the three properties of Section 4.2 and the exact
value of ``c_gap`` for debiasing.  This module pins down that contract so the
client, the batch driver and the baselines can interoperate:

* :class:`SequenceRandomizer` — a per-user *online* randomizer: initialized
  with ``(L, k, epsilon)``, then fed one value ``v_j in {-1, 0, 1}`` at a time,
  returning one ``{-1, +1}`` report per value.
* :class:`RandomizerFamily` — a factory that builds per-user randomizers and
  exposes the family-level constants (``c_gap``) plus the vectorized path
  that randomizes a whole ``(users, L)`` matrix at once.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

__all__ = ["SequenceRandomizer", "RandomizerFamily"]


class SequenceRandomizer(abc.ABC):
    """One user's online randomizer ``M`` (Section 4.2).

    Implementations must satisfy the paper's three properties:

    * **Property I** (privacy): the joint law of all ``L`` outputs lies in
      ``[p_min, p_max]`` with ``p_max <= e^eps * p_min`` for every k-sparse input.
    * **Property II** (signal): ``Pr[out = v] - Pr[out = -v] = c_gap`` for
      non-zero inputs ``v``.
    * **Property III** (indifference): zero inputs yield uniform ``{-1, +1}``.
    """

    @property
    @abc.abstractmethod
    def length(self) -> int:
        """``L``: the number of values this randomizer will be fed."""

    @property
    @abc.abstractmethod
    def sparsity(self) -> int:
        """``k``: the maximum number of non-zero inputs supported."""

    @property
    @abc.abstractmethod
    def c_gap(self) -> float:
        """The exact coordinate-preservation gap (Property II)."""

    @abc.abstractmethod
    def randomize(self, value: int) -> int:
        """Perturb the next input value ``v_j in {-1, 0, 1}``; return ``{-1, +1}``.

        Must be called at most ``L`` times per instance; raises if fed more
        than ``k`` non-zero values (the input would violate the sparsity
        promise under which privacy was calibrated).
        """


class RandomizerFamily(abc.ABC):
    """Factory + constants for a family of sequence randomizers.

    A family is parameterized by ``(k, epsilon)``; individual users additionally
    supply their sequence length ``L`` (which depends on their sampled order).
    """

    #: Human-readable name used in experiment reports.
    name: str = "abstract"

    def __init__(self, k: int, epsilon: float) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self._k = int(k)
        self._epsilon = float(epsilon)

    @property
    def k(self) -> int:
        """The sparsity bound the family is calibrated for."""
        return self._k

    @property
    def epsilon(self) -> float:
        """The per-user privacy budget."""
        return self._epsilon

    @property
    @abc.abstractmethod
    def c_gap(self) -> float:
        """The family's exact ``c_gap`` (shared by all members)."""

    @abc.abstractmethod
    def spawn(
        self, length: int, rng: Optional[np.random.Generator] = None
    ) -> SequenceRandomizer:
        """Create one user's randomizer for an ``L = length`` input sequence."""

    @abc.abstractmethod
    def randomize_matrix(
        self,
        values: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        *,
        kernel=None,
    ) -> np.ndarray:
        """Randomize a ``(users, L)`` matrix of values in {-1, 0, 1}.

        Rows are independent users; the output is a ``(users, L)`` matrix in
        {-1, +1} with the law of one :meth:`spawn`-ed randomizer per row.
        ``kernel`` names a sampling backend (:mod:`repro.kernels`); backends
        implement the *same output distribution* by contract.
        """
