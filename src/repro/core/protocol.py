"""Result types shared by every protocol driver, and the default family.

Every driver — the per-user object reference (``future_rand_object``, which
wires ``n`` :class:`~repro.core.client.Client` objects to one
:class:`~repro.core.server.Server` period by period), the vectorized drivers
of :mod:`repro.core.vectorized`, the simulation engines and the baselines —
returns a :class:`ProtocolResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.core.future_rand import FutureRandFamily, RandomizerFamily
from repro.core.params import ProtocolParams

__all__ = ["ProtocolResult", "default_family"]


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one protocol execution.

    ``estimates[t-1]`` is the server's online output ``a_hat[t]``;
    ``true_counts[t-1]`` is the ground truth ``a[t]`` (for evaluation only —
    the server never sees it).
    """

    estimates: np.ndarray
    true_counts: np.ndarray
    c_gap: float
    family_name: str
    orders: np.ndarray = field(repr=False, default=None)

    @property
    def errors(self) -> np.ndarray:
        """Per-time signed estimation error ``a_hat[t] - a[t]``."""
        return self.estimates - self.true_counts

    @property
    def max_abs_error(self) -> float:
        """``max_t |a_hat[t] - a[t]|`` — the paper's accuracy metric (Def. 2.1)."""
        return float(np.abs(self.errors).max())

    @property
    def mean_abs_error(self) -> float:
        """Mean absolute error across time periods."""
        return float(np.abs(self.errors).mean())


def default_family(params: ProtocolParams) -> RandomizerFamily:
    """Return the paper's randomizer family (FutureRand) for these parameters."""
    return FutureRandFamily(params.k, params.epsilon)
