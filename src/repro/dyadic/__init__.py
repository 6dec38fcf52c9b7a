"""Dyadic-interval algebra: the hierarchical-aggregation substrate (Section 3).

This subpackage implements Definitions 3.1–3.4 and Fact 3.8 of the paper:

* :mod:`repro.dyadic.intervals` — dyadic intervals ``I_{h,j}``, the collections
  ``ISet[h]``, and the dyadic decomposition ``C(t)`` of a prefix ``[1..t]``
  (and of general intervals ``[l..r]``).
* :mod:`repro.dyadic.derivative` — the discrete data derivative ``X_u`` of a
  Boolean value sequence ``st_u`` and its inverse.
* :mod:`repro.dyadic.partial_sums` — per-user partial sums ``S_u(I_{h,j})``.
* :mod:`repro.dyadic.tree` — a dyadic interval tree for hierarchical
  aggregation and range reconstruction.
* :mod:`repro.dyadic.prefix_matrix` — precomputed prefix-decomposition
  operators (index arrays / 0-1 matrix) over the flattened tree, turning
  "all d prefix reconstructions" into one vectorized scatter-add.
"""

from repro.dyadic.derivative import (
    change_count,
    derivative,
    integrate,
)
from repro.dyadic.intervals import (
    DyadicInterval,
    decompose_prefix,
    decompose_range,
    interval_set,
    intervals_of_order,
    num_orders,
)
from repro.dyadic.prefix_matrix import (
    flat_node_count,
    flat_offsets,
    prefix_decomposition_indices,
    prefix_decomposition_matrix,
    reconstruct_all_prefixes,
)
from repro.dyadic.partial_sums import (
    all_partial_sums,
    partial_sum,
    partial_sums_of_order,
)
from repro.dyadic.tree import DyadicTree

__all__ = [
    "DyadicInterval",
    "decompose_prefix",
    "decompose_range",
    "interval_set",
    "intervals_of_order",
    "num_orders",
    "derivative",
    "integrate",
    "change_count",
    "partial_sum",
    "partial_sums_of_order",
    "all_partial_sums",
    "DyadicTree",
    "flat_node_count",
    "flat_offsets",
    "prefix_decomposition_indices",
    "prefix_decomposition_matrix",
    "reconstruct_all_prefixes",
]
