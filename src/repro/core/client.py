"""The client-side algorithm ``A_clt`` (Algorithm 1).

A client samples a dyadic order ``h_u`` uniformly from ``[0 .. log2 d]``,
announces it to the server, and thereafter — fed its own Boolean state one
time period at a time — emits a perturbed partial sum whenever the current
time is a multiple of ``2^h_u``.  The partial sum over the just-completed
order-``h_u`` interval is computed from boundary states via Observation 3.7
(``S_u(I_{h,j}) = st_u[j 2^h] - st_u[(j-1) 2^h]``), so the client stores O(1)
state regardless of ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.future_rand import (
    FutureRandFamily,  # noqa: F401  (doctest namespace)
    RandomizerFamily,
)
from repro.utils.rng import as_generator
from repro.utils.validation import check_power_of_two

__all__ = ["Client", "Report"]


@dataclass(frozen=True)
class Report:
    """One client report: the ``j``-th perturbed partial sum of order ``order``.

    Emitted at time ``j * 2^order``; ``bit`` is the randomized value in {-1, +1}.
    """

    user_id: int
    order: int
    index: int
    bit: int


class Client:
    """One user's state machine for Algorithm 1.

    >>> family = FutureRandFamily(k=2, epsilon=1.0)
    >>> client = Client(user_id=0, d=4, family=family, rng=np.random.default_rng(0))
    >>> 0 <= client.order <= 2
    True
    >>> reports = [client.step(state) for state in (0, 1, 1, 0)]
    >>> sum(report is not None for report in reports) == 4 >> client.order
    True
    """

    def __init__(
        self,
        user_id: int,
        d: int,
        family: RandomizerFamily,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._user_id = int(user_id)
        self._d = check_power_of_two(d, "d")
        self._rng = as_generator(rng)
        # Line 1: sample and report the order h_u uniformly from [0 .. log2 d].
        self._order = int(self._rng.integers(0, self._d.bit_length()))
        # Line 2: the report vector has length L = d / 2^h.
        self._length = self._d >> self._order
        # Line 3: initialize the randomizer (FutureRand pre-computes b~ here).
        self._randomizer = family.spawn(self._length, self._rng)
        self._time = 0
        self._boundary_state = 0  # st_u[(j-1) * 2^h], with st_u[0] = 0

    @property
    def user_id(self) -> int:
        """Identifier the server uses to track this client's order."""
        return self._user_id

    @property
    def order(self) -> int:
        """The sampled dyadic order ``h_u`` (announced to the server)."""
        return self._order

    def step(self, state: int) -> Optional[Report]:
        """Observe this period's Boolean state; return a report if one is due.

        Implements Algorithm 1 lines 4–8: at times divisible by ``2^h_u`` the
        client forms the partial sum of the just-completed dyadic interval and
        perturbs it with ``M^(j)``.
        """
        if state not in (0, 1):
            raise ValueError(f"state must be 0 or 1, got {state}")
        if self._time >= self._d:
            raise RuntimeError(f"the horizon d={self._d} has already elapsed")
        self._time += 1
        if self._time % (1 << self._order) != 0:
            return None
        index = self._time >> self._order
        partial = int(state) - self._boundary_state  # Observation 3.7
        self._boundary_state = int(state)
        bit = self._randomizer.randomize(partial)
        return Report(self._user_id, self._order, index, bit)
