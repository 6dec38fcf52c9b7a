"""The client side of the hierarchical Boolean mechanism as an emission stream.

:class:`BooleanDyadicStream` runs Algorithms 1 + 2's client side for a block
of users: order sampling, the "randomize the future" noise pre-draw, and the
per-period ``{-1,+1}`` report emission, decoupled from any aggregation
structure.  :class:`~repro.protocols.sessions.HierarchicalStreamingSession`
routes its emissions into the server's prefix tree.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.core.composed_randomizer import ComposedRandomizer
from repro.core.interfaces import RandomizerFamily

__all__ = [
    "SIGNS",
    "BooleanDyadicStream",
]

SIGNS = np.array([-1, 1], dtype=np.int8)


class BooleanDyadicStream:
    """The hierarchical Boolean mechanism as a reusable emission stream.

    One instance runs the client side of Algorithms 1 + 2 for a block of
    ``n`` users over horizon ``d``: orders are sampled up front, the
    "randomize the future" noise ``b~ = R~(1^k)`` is pre-drawn (chunk-bounded
    when ``chunk_size`` is set), and each period :meth:`emissions` yields the
    emitting order groups' ``{-1,+1}`` report vectors.  What happens to a
    report is the caller's business, so the privacy-critical mechanics live in
    exactly one place.
    """

    def __init__(
        self,
        n: int,
        d: int,
        family: RandomizerFamily,
        rng: np.random.Generator,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> None:
        if n < 1:
            raise ValueError(f"need at least 1 user, got {n}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        self._n = int(n)
        self._d = int(d)
        self._k = int(family.k)
        self._rng = rng
        self._kernel = kernel
        num_orders = self._d.bit_length()
        # Algorithm 1 line 1, for the whole block at once: sample orders.
        self._orders = rng.integers(0, num_orders, size=self._n)
        self._members = [
            np.flatnonzero(self._orders == order) for order in range(num_orders)
        ]
        # M.init for the whole block: b~ = R~(1^k) (randomize the future).
        law = getattr(family, "law", None)
        if law is None:
            raise TypeError(
                f"family {family.name!r} exposes no exact law; the dyadic "
                "stream needs sample_batch-able randomizers"
            )
        sampler = ComposedRandomizer(law)
        ones = np.ones(self._k, dtype=np.int8)
        if chunk_size is None:
            self._b_tilde = sampler.sample_batch(ones, self._n, rng, kernel=kernel)
        else:
            # Bounded pre-draw: the retained b~ is (n, k) int8 either way, but
            # sample_batch's float transients now peak at chunk_size rows.
            self._b_tilde = np.empty((self._n, self._k), dtype=np.int8)
            for start in range(0, self._n, chunk_size):
                stop = min(start + chunk_size, self._n)
                self._b_tilde[start:stop] = sampler.sample_batch(
                    ones, stop - start, rng, kernel=kernel
                )
        self._nnz = np.zeros(self._n, dtype=np.int64)
        self._boundary = np.zeros(self._n, dtype=np.int8)

    @property
    def orders(self) -> np.ndarray:
        """Each user's sampled dyadic order ``h_u``."""
        return self._orders

    def emissions(
        self, t: int, values: np.ndarray
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(order, index, members, bits)`` per order group emitting at ``t``.

        ``values`` is the block's ``(n,)`` 0/1 column at period ``t``;
        ``bits`` is the group's ``{-1,+1}`` report vector — uniform noise for
        users whose partial sum over their just-closed interval is zero,
        ``partial * b~`` for the rest (Observation 3.7).
        """
        for order in range(self._d.bit_length()):
            if t % (1 << order):
                continue  # this group emits only at multiples of 2^order
            members = self._members[order]
            if members.size == 0:
                continue
            # Observation 3.7: the partial sum is a boundary-state difference.
            partials = values[members] - self._boundary[members]
            self._boundary[members] = values[members]
            nonzero = partials != 0
            # Property III noise; the kernel backend (when set) draws the
            # same uniform-sign law from raw bits.
            bits = (
                self._rng.choice(SIGNS, size=members.size)
                if self._kernel is None
                else self._kernel.uniform_signs((members.size,), self._rng)
            )
            signal_users = members[nonzero]
            if signal_users.size:
                positions = self._nnz[signal_users]
                if (positions >= self._k).any():
                    raise RuntimeError(
                        "a user produced more than k non-zero partial sums; "
                        "the privacy calibration assumed k-sparsity"
                    )
                bits[nonzero] = (
                    partials[nonzero]
                    * self._b_tilde[signal_users, positions]
                ).astype(np.int8)
                self._nnz[signal_users] += 1
            yield order, t >> order, members, bits
