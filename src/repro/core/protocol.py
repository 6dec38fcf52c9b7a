"""Result types shared by every protocol driver, and the default family.

Every driver — the per-user object reference (``future_rand_object``, which
wires ``n`` :class:`~repro.core.client.Client` objects to one
:class:`~repro.core.server.Server` period by period), the vectorized drivers
of :mod:`repro.core.vectorized`, the simulation engines and the baselines —
returns a :class:`ProtocolResult`; item-domain protocols return its
:class:`ItemDomainResult` extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.future_rand import FutureRandFamily
from repro.core.interfaces import RandomizerFamily
from repro.core.params import ProtocolParams

__all__ = ["ProtocolResult", "ItemDomainResult", "default_family"]


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


@dataclass(frozen=True)
class ItemDomainResult(ProtocolResult):
    """Outcome of one item-domain protocol execution.

    Item-domain protocols (``categorical``, ``hashed_frequency``,
    ``sketch_median``, ``heavy_hitters``) track a population holding *items*
    from ``[0, domain_size)`` rather than Boolean values.  The inherited
    scalar fields follow the tracked-item convention: ``estimates[t-1]`` and
    ``true_counts[t-1]`` are the estimated/exact counts of **item 1** at
    period ``t`` (for Boolean inputs this coincides exactly with the Boolean
    protocols' semantics), so every scalar consumer — error metrics, sweeps,
    conformance bounds — works unchanged.

    The item-level views are optional extras:

    ``item_estimates``
        ``(d, m)`` estimated counts per item per period; ``None`` when the
        domain is too large to materialize (the huge-domain sketch decoder
        never builds per-item vectors).
    ``true_item_counts``
        Exact ``(d, m)`` counts (evaluation only), subject to the same guard.
    ``heavy_hitters``
        Per-period decoded top-item lists (``heavy_hitters`` protocol only).
    """

    domain_size: int = 0
    item_estimates: Optional[np.ndarray] = field(repr=False, default=None)
    true_item_counts: Optional[np.ndarray] = field(repr=False, default=None)
    heavy_hitters: Optional[tuple] = field(repr=False, default=None)


def default_family(params: ProtocolParams) -> RandomizerFamily:
    """Return the paper's randomizer family (FutureRand) for these parameters."""
    return FutureRandFamily(params.k, params.epsilon)
