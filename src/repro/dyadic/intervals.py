"""Dyadic intervals and decompositions (Definitions 3.2, Fact 3.8, Figure 1).

A dyadic interval of order ``h`` is ``I_{h,j} = {(j-1)*2^h + 1, ..., j*2^h}``
for ``j in [d / 2^h]``.  Every prefix ``[1..t]`` decomposes into at most
``ceil(log2 t)`` disjoint dyadic intervals with *distinct* orders (Fact 3.8);
a general interval ``[l..r]`` decomposes into at most ``2*ceil(log2 (r-l+1))``
dyadic intervals whose orders may repeat.

Time periods are 1-based throughout, matching the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_power_of_two, ensure_int, ensure_positive

__all__ = [
    "DyadicInterval",
    "intervals_of_order",
    "interval_set",
    "decompose_prefix",
    "decompose_range",
]


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The dyadic interval ``I_{h,j}`` of order ``h`` and index ``j`` (1-based).

    >>> interval = DyadicInterval(order=1, index=2)
    >>> (interval.start, interval.end)
    (3, 4)
    """

    order: int
    index: int

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be non-negative, got {self.order}")
        if self.index < 1:
            raise ValueError(f"index must be at least 1, got {self.index}")

    @property
    def start(self) -> int:
        """First time period covered (inclusive, 1-based)."""
        return (self.index - 1) * (1 << self.order) + 1

    @property
    def end(self) -> int:
        """Last time period covered (inclusive, 1-based)."""
        return self.index * (1 << self.order)


def intervals_of_order(d: int, order: int) -> list[DyadicInterval]:
    """Return ``ISet[order]``: all order-``order`` dyadic intervals within ``[1..d]``.

    >>> [ (i.start, i.end) for i in intervals_of_order(4, 1) ]
    [(1, 2), (3, 4)]
    """
    d = check_power_of_two(d, "d")
    order = ensure_int(order, "order")
    max_order = d.bit_length() - 1
    if not 0 <= order <= max_order:
        raise ValueError(f"order must be in [0, {max_order}], got {order}")
    count = d >> order
    return [DyadicInterval(order, j) for j in range(1, count + 1)]


def interval_set(d: int) -> list[DyadicInterval]:
    """Return ``ISet``: every dyadic interval within ``[1..d]`` (Example 3.3).

    Ordered by increasing order, then index; there are ``2d - 1`` of them.

    >>> [ (i.order, i.index) for i in interval_set(4) ]  # doctest: +NORMALIZE_WHITESPACE
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]
    """
    d = check_power_of_two(d, "d")
    result = []
    for order in range(d.bit_length()):
        result.extend(intervals_of_order(d, order))
    return result


def decompose_prefix(t: int) -> list[DyadicInterval]:
    """Return ``C(t)``: the minimum dyadic decomposition of the prefix ``[1..t]``.

    The intervals are disjoint, have distinct orders, appear left to right and
    there are at most ``ceil(log2 t) + 1`` of them (Fact 3.8).  This follows
    the binary expansion of ``t``: the highest set bit covers ``[1..2^h]``, the
    next covers the following block, and so on.

    >>> [(i.start, i.end) for i in decompose_prefix(3)]
    [(1, 2), (3, 3)]
    >>> [(i.start, i.end) for i in decompose_prefix(7)]
    [(1, 4), (5, 6), (7, 7)]
    """
    t = ensure_positive(t, "t")
    result = []
    position = 0  # last time period already covered
    remaining = t
    while remaining > 0:
        order = remaining.bit_length() - 1
        width = 1 << order
        index = position // width + 1
        result.append(DyadicInterval(order, index))
        position += width
        remaining -= width
    return result


def decompose_range(left: int, right: int) -> list[DyadicInterval]:
    """Return a minimal dyadic decomposition of ``[left..right]``.

    Unlike prefix decomposition, orders may repeat (at most twice per order),
    and there are at most ``2 * ceil(log2 (right-left+1)) + 2`` intervals.  This
    is the decomposition the paper invokes for general intervals in Section 3
    ("the interval [l..r] can also be decomposed...").

    >>> [(i.start, i.end) for i in decompose_range(2, 3)]
    [(2, 2), (3, 3)]
    >>> [(i.start, i.end) for i in decompose_range(1, 4)]
    [(1, 4)]
    """
    left = ensure_positive(left, "left")
    right = ensure_positive(right, "right")
    if left > right:
        raise ValueError(f"need left <= right, got [{left}..{right}]")
    result = []
    cursor = left
    while cursor <= right:
        # The largest dyadic interval that starts at `cursor` has order equal
        # to the number of trailing zeros of (cursor - 1); it must also fit
        # within [cursor..right].
        align = (cursor - 1) & -(cursor - 1) if cursor > 1 else 0
        max_align_order = align.bit_length() - 1 if align else (right - cursor + 1).bit_length()
        span = right - cursor + 1
        max_span_order = span.bit_length() - 1
        order = min(max_align_order, max_span_order) if cursor > 1 else max_span_order
        width = 1 << order
        result.append(DyadicInterval(order, (cursor - 1) // width + 1))
        cursor += width
    return result
