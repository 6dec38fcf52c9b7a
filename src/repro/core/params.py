"""Protocol parameter bundles and the paper's standing assumptions.

``ProtocolParams`` carries the five quantities every statement in the paper is
parameterized by: the population size ``n``, the horizon ``d`` (a power of
two), the change bound ``k``, the privacy budget ``epsilon`` and the failure
probability ``beta``.  Theorem 4.1 additionally assumes

    epsilon <= 1   and   (1/epsilon) * log2(d) * sqrt(k * ln(d / beta)) <= sqrt(n),

which :meth:`ProtocolParams.check_theorem_assumptions` verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from repro.utils.validation import (
    check_power_of_two,
    check_privacy_budget,
    check_probability,
    ensure_positive,
)

__all__ = ["ProtocolParams"]


@dataclass(frozen=True)
class ProtocolParams:
    """Immutable bundle of the longitudinal-collection problem parameters.

    >>> params = ProtocolParams(n=1000, d=16, k=2, epsilon=1.0)
    >>> params.log_d
    4
    >>> params.num_orders
    5
    """

    n: int
    d: int
    k: int
    epsilon: float
    beta: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", ensure_positive(self.n, "n"))
        object.__setattr__(self, "d", check_power_of_two(self.d, "d"))
        object.__setattr__(self, "k", ensure_positive(self.k, "k"))
        object.__setattr__(
            self, "epsilon", check_privacy_budget(self.epsilon)
        )
        object.__setattr__(self, "beta", check_probability(self.beta, "beta"))
        if self.k > self.d:
            raise ValueError(
                f"k={self.k} changes cannot occur within d={self.d} time periods"
            )

    @property
    def log_d(self) -> int:
        """``log2(d)``."""
        return self.d.bit_length() - 1

    @property
    def num_orders(self) -> int:
        """``1 + log2(d)`` — the number of dyadic orders a client samples from."""
        return self.d.bit_length()

    def check_theorem_assumptions(self) -> None:
        """Raise ``ValueError`` if the assumptions of Theorem 4.1 fail.

        The protocol still runs outside this regime (it stays ``epsilon``-LDP,
        by Lemma 5.2 for ``epsilon <= 1``), but the error bound is vacuous.
        """
        check_privacy_budget(self.epsilon, require_at_most_one=True)
        lhs = (
            (1.0 / self.epsilon)
            * self.log_d
            * math.sqrt(self.k * math.log(self.d / self.beta))
        )
        if lhs > math.sqrt(self.n):
            raise ValueError(
                "Theorem 4.1 needs (1/eps)*log2(d)*sqrt(k*ln(d/beta)) <= sqrt(n); "
                f"got {lhs:.3f} > sqrt(n) = {math.sqrt(self.n):.3f}"
            )

    def with_updates(self, **changes: Any) -> "ProtocolParams":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)
