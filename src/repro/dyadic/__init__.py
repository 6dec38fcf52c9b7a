"""Dyadic-interval algebra: the hierarchical-aggregation substrate (Section 3).

This subpackage implements Definitions 3.1–3.4 and Fact 3.8 of the paper:

* :mod:`repro.dyadic.intervals` — dyadic intervals ``I_{h,j}``, the collections
  ``ISet[h]``, and the dyadic decomposition ``C(t)`` of a prefix ``[1..t]``
  (and of general intervals ``[l..r]``).
* :mod:`repro.dyadic.partial_sums` — per-user partial sums ``S_u(I_{h,j})``;
  the order-0 sums are the data derivative ``X_u`` of Definition 3.1.
* :mod:`repro.dyadic.tree` — a dyadic interval tree for hierarchical
  aggregation and range reconstruction.
* :mod:`repro.dyadic.prefix_matrix` — precomputed prefix-decomposition
  operators (index arrays) over the flattened tree, turning
  "all d prefix reconstructions" into one vectorized scatter-add.
"""

from repro.dyadic.intervals import (
    DyadicInterval,
    decompose_prefix,
    decompose_range,
    interval_set,
    intervals_of_order,
)
from repro.dyadic.prefix_matrix import (
    flat_node_count,
    flat_offsets,
    prefix_decomposition_indices,
    reconstruct_all_prefixes,
)
from repro.dyadic.partial_sums import (
    all_partial_sums,
    partial_sums_of_order,
)
from repro.dyadic.tree import DyadicTree

__all__ = [
    "DyadicInterval",
    "decompose_prefix",
    "decompose_range",
    "interval_set",
    "intervals_of_order",
    "partial_sums_of_order",
    "all_partial_sums",
    "DyadicTree",
    "flat_node_count",
    "flat_offsets",
    "prefix_decomposition_indices",
    "reconstruct_all_prefixes",
]
