"""Warner's basic randomizer ``R`` (Equation 14).

``R(zeta)`` keeps a value ``zeta in {-1, +1}`` with probability
``e^eps_tilde / (e^eps_tilde + 1)`` and flips it otherwise.  It is the building
block of the composed randomizer (Algorithm 3) and, with ``eps_tilde = eps/2``,
the per-report randomizer of the Erlingsson et al. baseline.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["BasicRandomizer", "flip_probability", "keep_probability", "basic_c_gap"]


def flip_probability(eps_tilde: float) -> float:
    """Return ``p = 1 / (e^eps_tilde + 1)``, the per-coordinate flip probability."""
    if eps_tilde <= 0:
        raise ValueError(f"eps_tilde must be positive, got {eps_tilde}")
    return 1.0 / (math.exp(eps_tilde) + 1.0)


def keep_probability(eps_tilde: float) -> float:
    """Return ``1 - p = e^eps_tilde / (e^eps_tilde + 1)``."""
    return 1.0 - flip_probability(eps_tilde)


def basic_c_gap(eps_tilde: float) -> float:
    """Return ``Pr[R(z)=z] - Pr[R(z)=-z] = (e^eps_tilde - 1)/(e^eps_tilde + 1)``.

    Computed via ``tanh`` for numerical stability at small budgets.
    """
    if eps_tilde <= 0:
        raise ValueError(f"eps_tilde must be positive, got {eps_tilde}")
    return math.tanh(eps_tilde / 2.0)


class BasicRandomizer:
    """Stateless randomized-response primitive over ``{-1, +1}``.

    >>> randomizer = BasicRandomizer(eps_tilde=1.0)
    >>> 0 < randomizer.flip_probability < 0.5
    True
    """

    def __init__(self, eps_tilde: float) -> None:
        self._eps_tilde = float(eps_tilde)
        self._p = flip_probability(self._eps_tilde)

    @property
    def eps_tilde(self) -> float:
        """The per-invocation privacy budget."""
        return self._eps_tilde

    @property
    def flip_probability(self) -> float:
        """``p = 1/(e^eps_tilde + 1)``."""
        return self._p

    @property
    def c_gap(self) -> float:
        """``(e^eps_tilde - 1)/(e^eps_tilde + 1)``."""
        return basic_c_gap(self._eps_tilde)

    def randomize(self, zeta: int, rng: Optional[np.random.Generator] = None) -> int:
        """Return ``R(zeta)`` for a single value in {-1, +1}."""
        if zeta not in (-1, 1):
            raise ValueError(f"zeta must be -1 or +1, got {zeta}")
        rng = as_generator(rng)
        if rng.random() < self._p:
            return -zeta
        return zeta
