"""Offline full-tree protocol — a comparator in the spirit of Zhou et al. (2021).

Zhou et al.'s offline protocol (Section 6, "Offline Setting") has each user
hash the coordinates of its sparse derivative into a table and report one
perturbed table; because table cells depend on *all* coordinates, the protocol
cannot run online.  Their code and exact construction are unavailable, so —
per the substitution policy in DESIGN.md — this module implements an offline
protocol with the same structural properties and error *shape*:

* each user reports its **entire** dyadic tree of partial sums (a vector of
  ``2d - 1`` values in {-1, 0, 1}, with at most ``k (1 + log2 d)`` non-zeros
  by Observation 3.6 applied per order) in one shot;
* the whole vector is randomized by one composed randomizer calibrated to
  sparsity ``k (1 + log2 d)`` — a single ``epsilon``-LDP report;
* optionally, coordinates are first hashed into ``B`` buckets (communication
  compression as in Zhou et al.; within-user collisions are rare for
  ``B >> (k log d)^2`` and are clamped, a documented approximation);
* the server debiases and reconstructs all ``d`` prefixes at the end — the
  protocol is *offline* (nothing can be released before all reports are in,
  because the randomizer's sparsity budget spans the whole horizon).

There is no ``(1 + log2 d)`` order-sampling inflation (every user contributes
to every order), but ``c_gap`` degrades from ``eps/sqrt(k)`` to
``eps/sqrt(k log d)`` — matching the offline bound's trade-off of sampling
variance for composition overhead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.annulus import AnnulusLaw
from repro.core.composed_randomizer import ComposedRandomizer
from repro.core.future_rand import randomize_matrix_with_sampler
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.core.vectorized import group_partial_sums, validate_states
from repro.dyadic.intervals import decompose_prefix
from repro.utils.rng import as_generator

__all__ = ["run_offline_tree", "flatten_tree_partial_sums"]


def flatten_tree_partial_sums(states: np.ndarray) -> np.ndarray:
    """Return the ``(n, 2d - 1)`` matrix of every user's full dyadic tree.

    Columns are ordered by increasing order then index (the layout of
    :func:`repro.dyadic.intervals.interval_set`).
    """
    matrix = np.asarray(states, dtype=np.int8)
    d = matrix.shape[1]
    blocks = [group_partial_sums(matrix, order) for order in range(d.bit_length())]
    return np.concatenate(blocks, axis=1)


def run_offline_tree(
    states: np.ndarray,
    params: ProtocolParams,
    rng: Optional[np.random.Generator] = None,
    *,
    buckets: Optional[int] = None,
) -> ProtocolResult:
    """Execute the offline full-tree protocol.

    Parameters
    ----------
    buckets:
        If given, each user's tree coordinates are hashed into this many
        buckets before randomization (Zhou et al.-style compression).  Must be
        at least ``4 * (k * (1 + log2 d))**2`` to keep within-user collisions
        rare; collisions clamp the bucket value into {-1, 0, 1} and the
        resulting bias is the documented approximation.
    """
    matrix = validate_states(states, params)
    rng = as_generator(rng)

    n, d = matrix.shape
    num_orders = d.bit_length()
    tree_sparsity = params.k * num_orders  # Observation 3.6, once per order
    tree_width = 2 * d - 1

    law = AnnulusLaw.for_future_rand(tree_sparsity, params.epsilon)
    sampler = ComposedRandomizer(law)
    flat = flatten_tree_partial_sums(matrix)

    if buckets is None:
        reports = randomize_matrix_with_sampler(flat, tree_sparsity, sampler, rng)
        debiased = reports.sum(axis=0).astype(np.float64) / law.c_gap
        node_estimates = debiased
    else:
        minimum = 4 * tree_sparsity**2
        if buckets < minimum:
            raise ValueError(
                f"buckets must be at least 4*(k*(1+log2 d))^2 = {minimum}, "
                f"got {buckets}"
            )
        # Per-user uniform hashing of tree coordinates into buckets; the
        # server knows every user's hash (public randomness).
        hashes = rng.integers(0, buckets, size=(n, tree_width))
        tables = np.zeros((n, buckets), dtype=np.int64)
        rows = np.repeat(np.arange(n), tree_width)
        np.add.at(tables, (rows, hashes.ravel()), flat.ravel())
        tables = np.clip(tables, -1, 1).astype(np.int8)  # rare-collision clamp
        reports = randomize_matrix_with_sampler(tables, tree_sparsity, sampler, rng)
        debiased_tables = reports.astype(np.float64) / law.c_gap
        # Un-hash: the estimate of user u's coordinate c is their debiased
        # bucket value at hashes[u, c]; summing over users per coordinate.
        node_estimates = np.zeros(tree_width, dtype=np.float64)
        for user in range(n):
            node_estimates += debiased_tables[user, hashes[user]]

    # Reconstruct prefix estimates from the flat node layout.
    order_offsets = np.cumsum([0, *(d >> order for order in range(num_orders))])
    estimates = np.empty(d, dtype=np.float64)
    for t in range(1, d + 1):
        total = 0.0
        for interval in decompose_prefix(t):
            position = order_offsets[interval.order] + interval.index - 1
            total += node_estimates[position]
        estimates[t - 1] = total

    true_counts = matrix.sum(axis=0).astype(np.float64)
    return ProtocolResult(
        estimates=estimates,
        true_counts=true_counts,
        c_gap=law.c_gap,
        family_name="offline_tree" if buckets is None else "offline_tree_hashed",
        orders=None,
    )
