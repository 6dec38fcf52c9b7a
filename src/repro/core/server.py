"""The server-side algorithm ``A_svr`` (Algorithm 2).

The server registers each user's announced order, accumulates the perturbed
partial-sum reports into a dyadic tree, and at any time ``t`` outputs

    ``a_hat[t] = sum_{I_{h,j} in C(t)}  (1 + log2 d) * c_gap^{-1} * sum_{u in U_h} w_u[j]``

— an unbiased estimate of the number of users holding value 1 (Section 4.3).
The scaling ``(1 + log2 d)`` inverts the order-sampling probability and
``c_gap^{-1}`` inverts the randomizer's signal attenuation (Observation 4.3).

The server is *online*: ``estimate(t)`` only uses reports whose emission time
``j * 2^h`` is at most the latest time advanced to.  The clock gate is
enforced unconditionally — a report arriving before the first ``advance_to``
is rejected like any other future report, so a driver cannot accidentally
pre-load the tree while the clock still reads 0.  The scalar path rejects a
replayed ``(user, index)`` report; the aggregate paths leave replay
protection to their caller (the ingestion service deduplicates at its door).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.client import Report
from repro.dyadic.intervals import DyadicInterval, decompose_prefix
from repro.dyadic.prefix_matrix import reconstruct_range
from repro.dyadic.tree import DyadicTree
from repro.utils.validation import check_power_of_two

__all__ = ["Server", "feasible_aggregate"]


def feasible_aggregate(total: float, count: int) -> tuple[int, int]:
    """Check that ``total`` is a feasible sum of ``count`` ``{-1, +1}`` reports.

    The aggregate door: ``count`` is non-negative and ``total`` is a finite
    integer with ``|total| <= count`` and the parity of ``count``.  The
    check runs in exact integer arithmetic, so a non-integral total is
    rejected rather than coerced and parity survives beyond 2^53.  Returns
    ``(total, count)`` as Python ints.
    """
    count = int(count)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(total, (int, np.integer)):
        exact_total = int(total)
    else:
        value = float(total)
        if not math.isfinite(value) or not value.is_integer():
            raise ValueError(
                f"total={total!r} is not a feasible sum of {count} "
                "+-1 reports (must be a finite integer)"
            )
        exact_total = int(value)
    if abs(exact_total) > count or (exact_total - count) % 2:
        raise ValueError(
            f"total={total} is not a feasible sum of {count} +-1 reports"
        )
    return exact_total, count


class Server:
    """Aggregator for Algorithm 2.

    Parameters
    ----------
    d:
        Time horizon (power of two).
    c_gap:
        The exact coordinate-preservation gap of the randomizer family the
        clients use.  Must be positive.

    Any report whose emission time exceeds the current clock is rejected,
    *including while the clock is still at its initial 0*: a fresh server
    accepts nothing until the first ``advance_to``.
    """

    def __init__(self, d: int, c_gap: float) -> None:
        self._d = check_power_of_two(d, "d")
        if not c_gap > 0:
            raise ValueError(f"c_gap must be positive, got {c_gap}")
        self._c_gap = float(c_gap)
        self._scale = self._d.bit_length() / self._c_gap  # (1 + log2 d) / c_gap
        self._tree = DyadicTree(self._d)
        self._orders: dict[int, int] = {}
        self._time = 0
        self._reports_received = 0
        # A malicious or buggy client replaying (user, index) pairs would
        # bias the aggregate; the scalar path de-duplicates them.
        self._seen: set[tuple[int, int]] = set()

    def flat_node_values(self) -> np.ndarray:
        """Return the raw node sums, flattened in ``flat_offsets`` layout.

        The vector the :mod:`repro.dyadic.prefix_matrix` operators consume;
        values are pre-scale (reconstructions are multiplied by
        ``(1 + log2 d) / c_gap``, Observation 4.3).
        """
        return self._tree.flat_values()

    @property
    def time(self) -> int:
        """The latest time period the server has advanced to."""
        return self._time

    @property
    def reports_received(self) -> int:
        """Total number of reports ingested."""
        return self._reports_received

    def register(self, user_id: int, order: int) -> None:
        """Record a user's announced order ``h_u`` (Algorithm 2, line 1)."""
        max_order = self._d.bit_length() - 1
        if not 0 <= order <= max_order:
            raise ValueError(f"order must be in [0, {max_order}], got {order}")
        if user_id in self._orders and self._orders[user_id] != order:
            raise ValueError(
                f"user {user_id} already registered with order {self._orders[user_id]}"
            )
        self._orders[user_id] = int(order)

    def advance_to(self, t: int) -> None:
        """Advance the server clock; reports for later times are rejected."""
        if not 1 <= t <= self._d:
            raise ValueError(f"t must be in [1, {self._d}], got {t}")
        if t < self._time:
            raise ValueError(f"time cannot move backwards ({self._time} -> {t})")
        self._time = t

    def _check_emission(self, order: int, index: int) -> None:
        """Validate an ``I_{order, index}`` report slot against the horizon
        and the online clock (shared by the scalar and batch ingestion paths).

        The clock gate applies unconditionally — in particular at the initial
        ``_time == 0``, where a historical bypass silently accepted reports
        for *any* future period before the first ``advance_to``.
        """
        emission_time = index << order
        if emission_time > self._d:
            raise ValueError(f"report index {index} exceeds the horizon")
        if emission_time > self._time:
            raise ValueError(
                f"report for time {emission_time} arrived while the clock is at "
                f"{self._time}; advance_to({emission_time}) first"
            )

    def receive(self, report: Report) -> None:
        """Ingest one client report (the body of Algorithm 2's loop)."""
        if report.user_id not in self._orders:
            raise KeyError(f"user {report.user_id} never registered an order")
        order = self._orders[report.user_id]
        if report.order != order:
            raise ValueError(
                f"user {report.user_id} registered order {order} but reported "
                f"order {report.order}"
            )
        if report.bit not in (-1, 1):
            raise ValueError(f"report bit must be -1 or +1, got {report.bit}")
        self._check_emission(order, report.index)
        key = (report.user_id, report.index)
        if key in self._seen:
            raise ValueError(
                f"duplicate report from user {report.user_id} for index "
                f"{report.index}; replayed reports would bias the aggregate"
            )
        self._seen.add(key)
        self._tree.add(DyadicInterval(order, report.index), float(report.bit))
        self._reports_received += 1

    def receive_batch(self, order: int, index: int, bits: np.ndarray) -> int:
        """Ingest many ``{-1, +1}`` reports for one dyadic interval at once.

        The vectorized ingestion path used by the batch simulation engine:
        ``bits`` holds one report per emitting user for the interval
        ``I_{order, index}``, and the whole batch is accumulated into the tree
        with a single addition.  The online clock semantics of :meth:`receive`
        apply unchanged; per-user registration/duplicate bookkeeping is the
        caller's responsibility (the batch engine tracks orders as an
        array).  Returns the number of reports ingested.
        """
        max_order = self._d.bit_length() - 1
        if not 0 <= order <= max_order:
            raise ValueError(f"order must be in [0, {max_order}], got {order}")
        if index < 1:
            raise ValueError(f"index must be at least 1, got {index}")
        array = np.asarray(bits)
        if array.ndim != 1:
            raise ValueError(f"bits must be 1-D, got shape {array.shape}")
        if array.size and not np.isin(array, (-1, 1)).all():
            raise ValueError("report bits must all be -1 or +1")
        self._check_emission(order, index)
        self._tree.add(DyadicInterval(order, index), float(array.sum()))
        self._reports_received += array.size
        return int(array.size)

    def receive_aggregate(
        self, order: int, index: int, total: float, count: int
    ) -> int:
        """Ingest ``count`` pre-summed ``{-1, +1}`` reports for one interval.

        The chunked engine's and the ingestion service's path: per-node
        report sums are folded across user chunks/shards *before* delivery,
        so the server receives one aggregate per dyadic node instead of a
        column of individual bits.  ``total`` must be a feasible sum of
        ``count`` signs, as :func:`feasible_aggregate` checks.  The
        online clock semantics of :meth:`receive` apply unchanged; replay
        protection is the caller's (the ingestion service deduplicates at its
        own door).  Returns ``count``.
        """
        max_order = self._d.bit_length() - 1
        if not 0 <= order <= max_order:
            raise ValueError(f"order must be in [0, {max_order}], got {order}")
        if index < 1:
            raise ValueError(f"index must be at least 1, got {index}")
        exact_total, count = feasible_aggregate(total, count)
        self._check_emission(order, index)
        if count:
            self._tree.add(DyadicInterval(order, index), float(exact_total))
            self._reports_received += count
        return count

    def restore_aggregate_state(
        self,
        flat_values,
        *,
        time: int,
        reports_received: int = 0,
    ) -> None:
        """Restore journaled aggregate-path state onto a *fresh* server.

        The ingestion service's write-ahead-journal recovery seam: adopt
        the tree node sums (``flat_offsets`` layout, as produced by
        :meth:`flat_node_values`), the online clock, and the report counter
        that a snapshot recorded.  The service deduplicates at its own door,
        so no replay memory is restored here.  Node sums are *added*
        onto the zero tree, so a restored server is bit-identical to one
        that folded the original aggregates.
        """
        if self._time or self._reports_received or self._orders or self._seen:
            raise ValueError(
                "restore_aggregate_state requires a fresh server (nothing "
                "registered, ingested, or advanced yet)"
            )
        values = np.asarray(flat_values, dtype=np.float64)
        expected = 2 * self._d - 1
        if values.shape != (expected,):
            raise ValueError(
                f"expected {expected} flat node values for d={self._d}, got "
                f"shape {values.shape}"
            )
        if not 0 <= time <= self._d:
            raise ValueError(f"time must be in [0, {self._d}], got {time}")
        if reports_received < 0:
            raise ValueError(
                f"reports_received must be non-negative, got {reports_received}"
            )
        position = 0
        for order in range(self._d.bit_length()):
            width = self._d >> order
            level = values[position : position + width]
            for offset in np.flatnonzero(level):
                self._tree.add(
                    DyadicInterval(order, int(offset) + 1),
                    float(level[offset]),
                )
            position += width
        self._time = int(time)
        self._reports_received = int(reports_received)

    def estimate(self, t: int) -> float:
        """Return ``a_hat[t]`` (Algorithm 2, line 6) from reports seen so far."""
        if not 1 <= t <= self._d:
            raise ValueError(f"t must be in [1, {self._d}], got {t}")
        raw = sum(self._tree[interval] for interval in decompose_prefix(t))
        return self._scale * raw

    def estimate_range_change(self, left: int, right: int) -> float:
        """Estimate the net change ``a[right] - a[left - 1]`` over ``[left..right]``.

        Uses the general dyadic decomposition of Section 3 (an extension
        beyond Algorithm 2 enabled by the same reports): for narrow windows
        it touches at most ``2 log2 (right - left + 1) + 2`` noisy nodes
        instead of the ``2 log2 d`` of two differenced prefixes.  Raises
        ``ValueError`` unless ``1 <= left <= right <= d``.  Post-processing
        of released values, so it costs no privacy budget.
        """
        return self._scale * reconstruct_range(
            self._tree.flat_values(), self._d, left, right
        )
