"""Warner's basic randomizer ``R`` (Equation 14): its flip probability and gap.

``R(zeta)`` keeps a value ``zeta in {-1, +1}`` with probability
``e^eps_tilde / (e^eps_tilde + 1)`` and flips it otherwise.  It is the building
block of the composed randomizer (Algorithm 3) and, with ``eps_tilde = eps/2``,
the per-report randomizer of the Erlingsson et al. baseline.
"""

from __future__ import annotations

import math

__all__ = ["flip_probability", "basic_c_gap"]


def flip_probability(eps_tilde: float) -> float:
    """Return ``p = 1 / (e^eps_tilde + 1)``, the per-coordinate flip probability."""
    if eps_tilde <= 0:
        raise ValueError(f"eps_tilde must be positive, got {eps_tilde}")
    return 1.0 / (math.exp(eps_tilde) + 1.0)


def basic_c_gap(eps_tilde: float) -> float:
    """Return ``Pr[R(z)=z] - Pr[R(z)=-z] = (e^eps_tilde - 1)/(e^eps_tilde + 1)``.

    Computed via ``tanh`` for numerical stability at small budgets.
    """
    if eps_tilde <= 0:
        raise ValueError(f"eps_tilde must be positive, got {eps_tilde}")
    return math.tanh(eps_tilde / 2.0)

