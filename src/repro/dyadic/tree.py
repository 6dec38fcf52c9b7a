"""A dyadic interval tree for hierarchical aggregation.

``DyadicTree`` stores one value per dyadic interval of ``[1..d]`` (2d - 1 nodes)
and answers prefix/range reconstruction queries via the decompositions of
Fact 3.8.  The server-side algorithm (Algorithm 2) is a thin wrapper around
this structure: it writes noisy partial-sum estimates into the tree as reports
arrive and reads prefix sums out of it.

The tree is deliberately value-agnostic: exact integer partial sums, noisy
float estimates and per-node report counts all reuse the same container.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from repro.dyadic.intervals import (
    DyadicInterval,
    decompose_prefix,
    decompose_range,
)
from repro.dyadic.prefix_matrix import reconstruct_all_prefixes
from repro.utils.validation import check_power_of_two

__all__ = ["DyadicTree"]


class DyadicTree:
    """Dense storage of one float per dyadic interval of the horizon ``[1..d]``.

    >>> tree = DyadicTree(4)
    >>> tree[DyadicInterval(1, 1)] = 1.0
    >>> tree[DyadicInterval(0, 3)] = -1.0
    >>> tree.prefix_sum(3)
    0.0
    """

    def __init__(self, d: int) -> None:
        self._d = check_power_of_two(d, "d")
        self._orders = self._d.bit_length()
        # One flat array per order; order h has d / 2^h slots.
        self._levels = [
            np.zeros(self._d >> order, dtype=np.float64) for order in range(self._orders)
        ]
        self._filled = [
            np.zeros(self._d >> order, dtype=bool) for order in range(self._orders)
        ]

    @property
    def horizon(self) -> int:
        """The number of time periods ``d``."""
        return self._d

    @property
    def num_orders(self) -> int:
        """``1 + log2(d)``."""
        return self._orders

    def _slot(self, interval: DyadicInterval) -> tuple[np.ndarray, np.ndarray, int]:
        if interval.order >= self._orders:
            raise KeyError(f"{interval} has order beyond log2(d)={self._orders - 1}")
        level = self._levels[interval.order]
        filled = self._filled[interval.order]
        position = interval.index - 1
        if position >= level.size:
            raise KeyError(f"{interval} lies outside the horizon [1..{self._d}]")
        return level, filled, position

    def __setitem__(self, interval: DyadicInterval, value: float) -> None:
        level, filled, position = self._slot(interval)
        level[position] = float(value)
        filled[position] = True

    def __getitem__(self, interval: DyadicInterval) -> float:
        level, _, position = self._slot(interval)
        return float(level[position])

    def __contains__(self, interval: DyadicInterval) -> bool:
        try:
            _, filled, position = self._slot(interval)
        except KeyError:
            return False
        return bool(filled[position])

    def add(self, interval: DyadicInterval, value: float) -> None:
        """Accumulate ``value`` into the interval's slot."""
        level, filled, position = self._slot(interval)
        level[position] += float(value)
        filled[position] = True

    def is_filled(self, interval: DyadicInterval) -> bool:
        """Whether a value has ever been written to this interval."""
        return interval in self

    def prefix_sum(self, t: int, *, require_filled: bool = False) -> float:
        """Return ``sum_{I in C(t)} value(I)`` (Observation 3.9).

        With ``require_filled=True`` a missing (never-written) interval raises
        ``KeyError`` instead of contributing its default zero — used by the
        online server to assert that every needed report has arrived.
        """
        total = 0.0
        for interval in decompose_prefix(t):
            if require_filled and not self.is_filled(interval):
                raise KeyError(f"no value recorded for {interval}")
            total += self[interval]
        return total

    def range_sum(self, left: int, right: int, *, require_filled: bool = False) -> float:
        """Return the reconstruction of ``[left..right]`` via general decomposition."""
        total = 0.0
        for interval in decompose_range(left, right):
            if require_filled and not self.is_filled(interval):
                raise KeyError(f"no value recorded for {interval}")
            total += self[interval]
        return total

    def flat_values(self) -> np.ndarray:
        """Return all ``2d - 1`` node values concatenated by increasing order.

        The layout matches :func:`repro.dyadic.prefix_matrix.flat_offsets`:
        order ``h`` occupies ``d >> h`` consecutive slots.
        """
        return np.concatenate(self._levels)

    def all_prefix_sums(self) -> np.ndarray:
        """Return ``[prefix_sum(1), ..., prefix_sum(d)]`` in one vectorized pass.

        Uses the precomputed prefix-decomposition index arrays rather than
        walking ``decompose_prefix`` per prefix in Python.
        """
        return reconstruct_all_prefixes(self.flat_values(), self._d)

    def fill_from(
        self, source: Callable[[DyadicInterval], float], *, orders: Optional[list[int]] = None
    ) -> None:
        """Populate every node (or the given orders) from a callable."""
        targets = orders if orders is not None else range(self._orders)
        for order in targets:
            for index in range(1, (self._d >> order) + 1):
                interval = DyadicInterval(order, index)
                self[interval] = source(interval)

    def intervals(self) -> Iterator[DyadicInterval]:
        """Yield every interval slot, by increasing order then index."""
        for order in range(self._orders):
            for index in range(1, (self._d >> order) + 1):
                yield DyadicInterval(order, index)

    def consistency_residual(self) -> float:
        """Return the maximum |parent - (left child + right child)| over the tree.

        For exact partial sums this is zero; for noisy estimates it measures
        internal inconsistency, which post-processing could reduce (a known
        refinement for hierarchical mechanisms — see
        :mod:`repro.postprocess.consistency`).
        """
        worst = 0.0
        for order in range(1, self._orders):
            parents = self._levels[order]
            children = self._levels[order - 1]
            combined = children[0::2] + children[1::2]
            worst = max(worst, float(np.abs(parents - combined).max(initial=0.0)))
        return worst
