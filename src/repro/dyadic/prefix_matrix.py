"""Precomputed prefix-decomposition operators over the flattened dyadic tree.

The batch drivers (:meth:`repro.core.vectorized.BatchTreeReports.prefix_estimates`)
need all ``d`` prefix reconstructions ``a_hat[t] = sum_{I in C(t)} value(I)``
at once.  Walking :func:`repro.dyadic.intervals.decompose_prefix` per prefix is
an O(d log d) Python-level loop; this module precomputes the decomposition
*once per horizon* as index arrays over a flattened node vector, turning the
reconstruction into a single numpy scatter-add.

Flattened layout: the ``2d - 1`` dyadic nodes are concatenated by increasing
order — order ``h`` occupies ``d >> h`` slots starting at ``flat_offsets(d)[h]``
— matching ``np.concatenate`` over per-order level arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.dyadic.intervals import decompose_prefix, decompose_range
from repro.utils.validation import check_power_of_two

__all__ = [
    "flat_node_count",
    "flat_offsets",
    "prefix_decomposition_indices",
    "range_decomposition_cols",
    "reconstruct_all_prefixes",
    "reconstruct_range",
]


def flat_node_count(d: int) -> int:
    """Return ``2d - 1``, the number of dyadic nodes over the horizon ``[1..d]``."""
    return 2 * check_power_of_two(d, "d") - 1


@lru_cache(maxsize=None)
def flat_offsets(d: int) -> np.ndarray:
    """Return the flat-vector offset of each order's first node (read-only).

    ``flat_offsets(d)[h] + (j - 1)`` is the flat slot of ``I_{h,j}``.
    """
    d = check_power_of_two(d, "d")
    sizes = np.array([d >> order for order in range(d.bit_length())], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes[:-1])])
    offsets.flags.writeable = False
    return offsets


@lru_cache(maxsize=None)
def prefix_decomposition_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(rows, cols)`` index arrays of the prefix-decomposition operator.

    Entry ``i`` says: prefix ``t = rows[i] + 1`` includes the flat node
    ``cols[i]`` in its decomposition ``C(t)``.  There are
    ``sum_t popcount(t)`` = O(d log d) entries.  Both arrays are cached
    per-horizon and read-only.
    """
    d = check_power_of_two(d, "d")
    offsets = flat_offsets(d)
    rows: list[int] = []
    cols: list[int] = []
    for t in range(1, d + 1):
        for interval in decompose_prefix(t):
            rows.append(t - 1)
            cols.append(int(offsets[interval.order]) + interval.index - 1)
    row_array = np.array(rows, dtype=np.int64)
    col_array = np.array(cols, dtype=np.int64)
    row_array.flags.writeable = False
    col_array.flags.writeable = False
    return row_array, col_array


@lru_cache(maxsize=None)
def range_decomposition_cols(d: int, left: int, right: int) -> np.ndarray:
    """Return the flat node slots of the general decomposition of ``[left..right]``.

    ``flat_values[cols].sum()`` reconstructs the range sum — the vectorized
    equivalent of walking :func:`~repro.dyadic.intervals.decompose_range`
    against the tree per call.  At most ``2 log2 (right - left + 1) + 2``
    slots; cached per ``(d, left, right)`` and read-only.
    """
    d = check_power_of_two(d, "d")
    if not 1 <= left <= right <= d:
        raise ValueError(f"need 1 <= left <= right <= {d}, got [{left}..{right}]")
    offsets = flat_offsets(d)
    cols = np.array(
        [
            int(offsets[interval.order]) + interval.index - 1
            for interval in decompose_range(left, right)
        ],
        dtype=np.int64,
    )
    cols.flags.writeable = False
    return cols


def _checked_flat(flat_values: np.ndarray, d: int) -> np.ndarray:
    """``flat_values`` as float64, checked to hold one value per dyadic node."""
    flat = np.asarray(flat_values, dtype=np.float64)
    expected = flat_node_count(d)
    if flat.shape != (expected,):
        raise ValueError(
            f"flat_values must have shape ({expected},) for d={d}, got {flat.shape}"
        )
    return flat


def reconstruct_range(flat_values: np.ndarray, d: int, left: int, right: int) -> float:
    """Return ``sum_{I in decompose_range(left, right)} flat_values[I]``."""
    flat = _checked_flat(flat_values, d)
    return float(flat[range_decomposition_cols(d, left, right)].sum())


def reconstruct_all_prefixes(flat_values: np.ndarray, d: int) -> np.ndarray:
    """Return ``[sum_{I in C(t)} flat_values[I] for t in 1..d]`` in one pass.

    ``flat_values`` is the flattened node vector (layout of
    :func:`flat_offsets`); the reconstruction is a single ``bincount``
    scatter-add over the precomputed index arrays.
    """
    flat = _checked_flat(flat_values, d)
    rows, cols = prefix_decomposition_indices(d)
    return np.bincount(rows, weights=flat[cols], minlength=d)
