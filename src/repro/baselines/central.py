"""Central-model binary (tree) mechanism — the trusted-curator reference.

Dwork et al. (2010) and Chan et al. (2011) release a Boolean-stream counter
under *central* differential privacy by adding Laplace noise to each dyadic
partial sum and reconstructing prefixes from at most ``1 + log2 d`` noisy
nodes (Section 6, "Central Model").

Adaptation to this paper's problem: privacy here is *user-level* — one user's
entire length-``d`` sequence may change.  A user contributes at most ``k``
non-zero derivative coordinates, each touching one node per order, so the L1
sensitivity of the full node vector is ``2 k (1 + log2 d)`` (the user's ``k``
changes disappear and ``k`` new ones appear).  Each node therefore gets
Laplace noise of scale ``2 k (1 + log2 d) / epsilon``, yielding error
``O((k / epsilon) polylog d)`` — *independent of n*, which is the whole point
of the comparison in experiment E10: the local model must pay ``sqrt(n)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.core.vectorized import validate_states
from repro.dyadic.tree import DyadicTree
from repro.utils.rng import as_generator
from repro.utils.validation import check_power_of_two

__all__ = ["CentralTreeMechanism", "run_central_tree"]


class CentralTreeMechanism:
    """Noisy dyadic tree over the population derivative stream.

    The curator sees the exact per-period population increments
    ``D[t] = a[t] - a[t-1]``, forms every dyadic partial sum
    ``S(I) = sum_{t in I} D[t]``, perturbs each with Laplace noise and answers
    prefix queries via Fact 3.8.
    """

    def __init__(
        self,
        d: int,
        epsilon: float,
        k: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._d = check_power_of_two(d, "d")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self._epsilon = float(epsilon)
        self._k = int(k)
        self._rng = as_generator(rng)
        self._tree: Optional[DyadicTree] = None

    @property
    def noise_scale(self) -> float:
        """Per-node Laplace scale ``2 k (1 + log2 d) / epsilon`` (user-level)."""
        return 2.0 * self._k * self._d.bit_length() / self._epsilon

    def fit(self, increments: np.ndarray) -> "CentralTreeMechanism":
        """Ingest the exact population increment stream and noise the tree."""
        stream = np.asarray(increments, dtype=np.float64)
        if stream.shape != (self._d,):
            raise ValueError(
                f"increments must have shape ({self._d},), got {stream.shape}"
            )
        tree = DyadicTree(self._d)
        scale = self.noise_scale
        cumulative = np.concatenate([[0.0], np.cumsum(stream)])
        for interval in tree.intervals():
            exact = cumulative[interval.end] - cumulative[interval.start - 1]
            tree[interval] = exact + self._rng.laplace(0.0, scale)
        self._tree = tree
        return self

    def estimate(self, t: int) -> float:
        """Return the noisy prefix count at time ``t``."""
        if self._tree is None:
            raise RuntimeError("call fit() before estimate()")
        return self._tree.prefix_sum(t)

    def all_estimates(self) -> np.ndarray:
        """Return all ``d`` prefix estimates."""
        return np.array([self.estimate(t) for t in range(1, self._d + 1)])


def run_central_tree(
    states: np.ndarray,
    params: ProtocolParams,
    rng: Optional[np.random.Generator] = None,
) -> ProtocolResult:
    """Run the central-model tree mechanism on a population state matrix.

    The noise scale assumes every user changes at most ``k`` times, so the
    change budget is enforced like in every other batch driver.
    """
    matrix = validate_states(states, params)
    true_counts = matrix.sum(axis=0).astype(np.float64)
    increments = np.diff(true_counts, prepend=0.0)
    mechanism = CentralTreeMechanism(params.d, params.epsilon, params.k, rng)
    mechanism.fit(increments)
    return ProtocolResult(
        estimates=mechanism.all_estimates(),
        true_counts=true_counts,
        c_gap=1.0,
        family_name="central_tree",
        orders=None,
    )
