"""Vectorized batch execution of the protocol (numerically faithful fast path).

Runs the same protocol as the per-user object reference (the
``future_rand_object`` registry entry, one :class:`~repro.core.client.Client`
per user) but over the whole population at once with numpy kernels:

1. sample every user's order ``h_u`` in one draw;
2. per order group, compute the ``(n_h, d/2^h)`` matrix of partial sums from
   boundary-state differences (Observation 3.7);
3. randomize the whole group matrix through the family's vectorized path
   (for FutureRand: one batched ``R~(1^k)`` draw per user, then sign algebra);
4. aggregate per-interval column sums into a dyadic tree and read all ``d``
   prefix reconstructions.

The outputs follow exactly the same distribution as the object driver — the
randomizer kernels are shared — which the integration tests verify
statistically.  Use this driver for experiments (millions of user-periods per
second); use the object driver to exercise the deployment-shaped API.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.core.interfaces import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult, default_family
from repro.dyadic.prefix_matrix import reconstruct_all_prefixes
from repro.utils.rng import as_generator

__all__ = [
    "run_batch",
    "collect_tree_reports",
    "family_randomizer",
    "group_partial_sums",
    "iter_group_reports",
    "node_scales",
    "order_probabilities",
    "partition_rows_by_order",
    "randomize_block",
    "validate_states",
    "BatchTreeReports",
]


def group_partial_sums(states: np.ndarray, order: int) -> np.ndarray:
    """Return the ``(rows, d / 2^order)`` matrix of order-``order`` partial sums.

    Row ``u``, column ``j-1`` holds ``S_u(I_{order, j})`` computed as the
    boundary-state difference of Observation 3.7.
    """
    width = 1 << order
    boundary = states[:, width - 1 :: width].astype(np.int8)
    previous = np.zeros_like(boundary)
    previous[:, 1:] = boundary[:, :-1]
    return (boundary - previous).astype(np.int8)


@dataclass(frozen=True)
class BatchTreeReports:
    """The full per-node output of one batch protocol run.

    ``node_sums[h][j-1]`` holds the raw (un-scaled) sum of reports for the
    dyadic interval ``I_{h,j}``; ``node_scales[h]`` converts a raw sum into an
    unbiased estimate of ``S(I_{h,j})``.  Exposing the tree (rather than only
    the prefix reconstructions) enables post-processing such as hierarchical
    consistency enforcement (:mod:`repro.postprocess`).
    """

    node_sums: list[np.ndarray]
    node_scales: np.ndarray
    group_sizes: np.ndarray
    order_probabilities: np.ndarray
    c_gap: float
    family_name: str
    true_counts: np.ndarray
    orders: np.ndarray = field(repr=False, default=None)

    @property
    def num_orders(self) -> int:
        """``1 + log2(d)``."""
        return len(self.node_sums)

    @property
    def horizon(self) -> int:
        """The number of time periods ``d``."""
        return self.node_sums[0].size

    def node_estimates(self) -> list[np.ndarray]:
        """Unbiased estimates ``S_hat(I_{h,j})`` per order."""
        return [
            self.node_scales[order] * self.node_sums[order]
            for order in range(self.num_orders)
        ]

    def node_variances(self) -> list[np.ndarray]:
        """Upper-bound variances of the node estimates, per order.

        Each of the ``group_sizes[h]`` member reports is a +-1 value scaled by
        ``node_scales[h]``, so the variance of a node estimate is at most
        ``group_sizes[h] * node_scales[h]^2`` (cross-user independence holds;
        weak within-user correlation across nodes is ignored — see
        :mod:`repro.postprocess.consistency`).
        """
        return [
            np.full(
                self.node_sums[order].size,
                float(self.group_sizes[order]) * float(self.node_scales[order]) ** 2,
            )
            for order in range(self.num_orders)
        ]

    def prefix_estimates(self) -> np.ndarray:
        """Algorithm 2's estimates ``a_hat[1..d]`` from the raw tree.

        One vectorized pass: scale each order's node sums, flatten, and apply
        the precomputed prefix-decomposition operator shared with
        :meth:`repro.core.server.Server.all_estimates`.
        """
        return reconstruct_all_prefixes(
            np.concatenate(self.node_estimates()), self.horizon
        )

    def to_result(self) -> ProtocolResult:
        """Collapse into the standard :class:`ProtocolResult`."""
        return ProtocolResult(
            estimates=self.prefix_estimates(),
            true_counts=self.true_counts,
            c_gap=self.c_gap,
            family_name=self.family_name,
            orders=self.orders,
        )


#: Row-block granularity of the validation pass.  Temporaries are bounded by
#: ``_VALIDATE_BLOCK_ROWS * d`` bytes regardless of ``n``, so validating never
#: doubles the caller's peak memory (the historical ``np.isin`` check
#: allocated a second full ``(n, d)`` boolean array).
_VALIDATE_BLOCK_ROWS = 1024


def _check_binary_entries(block: np.ndarray) -> None:
    """Raise unless every entry of ``block`` is 0 or 1 (dtype-aware).

    Boolean blocks are 0/1 by construction; integer blocks need only two
    O(1)-memory reductions (min/max); anything else (floats, objects) falls
    back to the exact membership test, whose temporary is bounded by the
    caller's block size.
    """
    if block.dtype.kind == "b":
        return
    if block.dtype.kind in "iu":
        if block.size and (block.min() < 0 or block.max() > 1):
            raise ValueError("states entries must all be 0 or 1")
        return
    if not np.isin(block, (0, 1)).all():
        raise ValueError("states entries must all be 0 or 1")


def validate_states(
    states: np.ndarray, params: ProtocolParams, *, rows: Optional[int] = None
) -> np.ndarray:
    """Validate an ``(n, d)`` Boolean population matrix against ``params``.

    Checks shape, 0/1 entries, and the per-user change budget ``k`` (counting
    the implicit ``st_u[0] = 0`` boundary); returns the matrix as an array.
    Shared by the batch drivers.

    ``rows`` overrides the expected row count (the chunked pipeline validates
    per-chunk slices of a conceptual ``(params.n, d)`` population).  The scan
    runs in bounded row blocks: peak extra allocation is O(block), never a
    second full-size matrix.
    """
    matrix = np.asarray(states)
    if matrix.ndim != 2:
        raise ValueError(f"states must be 2-D (n, d), got shape {matrix.shape}")
    expected_rows = params.n if rows is None else rows
    if matrix.shape != (expected_rows, params.d):
        raise ValueError(
            f"states shape {matrix.shape} disagrees with params "
            f"(n={expected_rows}, d={params.d})"
        )
    for start in range(0, matrix.shape[0], _VALIDATE_BLOCK_ROWS):
        block = matrix[start : start + _VALIDATE_BLOCK_ROWS]
        _check_binary_entries(block)
        # Change count per user: boundary transitions within the row plus the
        # implicit st_u[0] = 0 start (no full-matrix diff/prepend temporary).
        changes = np.count_nonzero(block[:, 1:] != block[:, :-1], axis=1)
        changes += block[:, 0] != 0
        if (changes > params.k).any():
            raise ValueError(
                f"a user changes {int(changes.max())} times, "
                f"exceeding k={params.k}"
            )
    return matrix


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _order_weights_key(
    d: int, order_weights: Optional[Sequence[float]]
) -> Optional[tuple[float, ...]]:
    """Hashable cache key for an ``order_weights`` spec (shape-validated)."""
    if order_weights is None:
        return None
    probabilities = np.asarray(order_weights, dtype=np.float64)
    num_orders = d.bit_length()
    if probabilities.shape != (num_orders,):
        raise ValueError(
            f"order_weights must have length {num_orders}, got "
            f"{probabilities.shape}"
        )
    return tuple(probabilities.tolist())


@functools.lru_cache(maxsize=256)
def _order_probabilities_cached(
    d: int, weights_key: Optional[tuple[float, ...]]
) -> np.ndarray:
    num_orders = d.bit_length()
    if weights_key is None:
        return _readonly(np.full(num_orders, 1.0 / num_orders))
    probabilities = np.array(weights_key, dtype=np.float64)
    if not np.isfinite(probabilities).all():
        raise ValueError(f"order_weights must all be finite, got {list(weights_key)}")
    if (probabilities <= 0).any():
        raise ValueError("order_weights must all be positive")
    return _readonly(probabilities / probabilities.sum())


def order_probabilities(
    d: int, order_weights: Optional[Sequence[float]] = None
) -> np.ndarray:
    """Normalized order-sampling distribution over ``[0 .. log2 d]``.

    ``None`` gives the paper's uniform sampling; an explicit weight vector
    (the ablation knob of :func:`collect_tree_reports`) is validated and
    normalized.  Shared by the monolithic and chunked drivers so both use
    the identical distribution (and debias scales).

    Results are cached per ``(d, order_weights)`` — repeated trials in a
    sweep hit the cache — and returned as *read-only* arrays; copy before
    mutating.
    """
    return _order_probabilities_cached(d, _order_weights_key(d, order_weights))


@functools.lru_cache(maxsize=256)
def _node_scales_cached(
    d: int, weights_key: Optional[tuple[float, ...]], c_gap: float
) -> np.ndarray:
    return _readonly(1.0 / (_order_probabilities_cached(d, weights_key) * c_gap))


def node_scales(
    d: int, c_gap: float, order_weights: Optional[Sequence[float]] = None
) -> np.ndarray:
    """Per-order debias scales ``1 / (Pr[h] * c_gap)``, cached and read-only.

    The expression is unchanged from the historical inline computation, so
    the cached values are bit-identical to it; the cache just stops every
    trial of a sweep from recomputing the same constants.
    """
    return _node_scales_cached(d, _order_weights_key(d, order_weights), float(c_gap))


def partition_rows_by_order(
    orders: np.ndarray, num_orders: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable group partition of row indices by sampled order.

    Returns ``(sort_index, group_sizes, boundaries)`` where
    ``sort_index[boundaries[h]:boundaries[h+1]]`` are the rows of order
    ``h`` in increasing row order — exactly the membership (and ordering)
    the historical per-order ``np.flatnonzero(orders == order)`` produced,
    from a single stable argsort instead of ``num_orders`` full scans.
    """
    sort_index = np.argsort(orders, kind="stable")
    group_sizes = np.bincount(orders, minlength=num_orders).astype(np.int64)
    boundaries = np.concatenate(([0], np.cumsum(group_sizes)))
    return sort_index, group_sizes, boundaries


def iter_group_reports(
    matrix: np.ndarray,
    orders: np.ndarray,
    num_orders: int,
    randomize: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    rng: np.random.Generator,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(order, members, reports)`` per non-empty order group, ascending.

    ``reports`` is one ``randomize`` call on the members' partial sums, so
    the rng consumption is a fixed function of ``orders``.
    """
    sort_index, _, boundaries = partition_rows_by_order(orders, num_orders)
    for order in range(num_orders):
        members = sort_index[boundaries[order] : boundaries[order + 1]]
        if members.size:
            partials = group_partial_sums(matrix[members], order)
            yield order, members, randomize(partials, rng)


def randomize_block(
    matrix: np.ndarray,
    rng: np.random.Generator,
    randomize: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    probabilities: np.ndarray,
    node_sums: list[np.ndarray],
    node_counts: list[np.ndarray],
    drop_rate: float = 0.0,
) -> np.ndarray:
    """Algorithm 1's client side for one block of users; returns the orders.

    One ``choice`` draws the orders, then each group's report sums and
    delivered counts are added into ``node_sums`` / ``node_counts``.  With
    ``drop_rate > 0`` each report is lost independently, drawn right after
    its group's randomization; at 0 no extra randomness is consumed.
    """
    num_orders = probabilities.size
    orders = rng.choice(num_orders, size=matrix.shape[0], p=probabilities)
    for order, members, reports in iter_group_reports(
        matrix, orders, num_orders, randomize, rng
    ):
        if drop_rate:
            kept = rng.random(reports.shape) >= drop_rate
            node_sums[order] += np.where(kept, reports, 0).sum(axis=0)
            node_counts[order] += kept.sum(axis=0)
        else:
            node_sums[order] += reports.sum(axis=0)
            node_counts[order] += members.size
    return orders


def family_randomizer(
    family: RandomizerFamily, kernel=None
) -> Callable[[np.ndarray, np.random.Generator], np.ndarray]:
    """Bind a kernel backend onto ``family.randomize_matrix``.

    ``kernel=None`` returns the bound method untouched — third-party
    families with the historical two-argument signature keep working, and
    the default path stays byte-identical.
    """
    if kernel is None:
        return family.randomize_matrix
    return functools.partial(family.randomize_matrix, kernel=kernel)


def collect_tree_reports(
    states: np.ndarray,
    params: ProtocolParams,
    rng: Optional[np.random.Generator] = None,
    *,
    family: Optional[RandomizerFamily] = None,
    order_weights: Optional[Sequence[float]] = None,
    chunk_size: Optional[int] = None,
    kernel=None,
) -> BatchTreeReports:
    """Run the client side of the protocol and aggregate raw report sums.

    ``order_weights`` optionally replaces the paper's uniform order sampling
    with an arbitrary distribution over ``[0 .. log2 d]`` (an ablation knob;
    the per-order debias scale becomes ``1 / (Pr[h] * c_gap)``, keeping the
    estimator unbiased).

    ``chunk_size`` switches to the streaming-aggregation mode: ``states`` may
    then be an iterable of row chunks (or a full matrix, processed in
    ``chunk_size``-row slices) and the per-node sums are folded into a running
    accumulator without ever holding full-population report matrices — see
    :mod:`repro.sim.chunked` for the seeding contract.

    ``kernel`` selects the randomizer backend (:mod:`repro.kernels`):
    ``None``/``"reference"`` is the frozen bit-exact path, ``"fast"`` the
    statistically-identical high-throughput path.
    """
    if chunk_size is not None:
        # Imported lazily: repro.sim.chunked is a consumer-layer module that
        # itself imports this one (a module-level import would be cyclic).
        from repro.sim.chunked import collect_tree_reports_chunked

        return collect_tree_reports_chunked(
            states,
            params,
            rng,
            chunk_size=chunk_size,
            family=family,
            order_weights=order_weights,
            kernel=kernel,
        )
    matrix = validate_states(states, params)
    d = matrix.shape[1]
    rng = as_generator(rng)
    if family is None:
        family = default_family(params)

    num_orders = d.bit_length()
    probabilities = order_probabilities(d, order_weights)
    randomize = family_randomizer(family, kernel)
    node_sums = [np.zeros(d >> order) for order in range(num_orders)]
    node_counts = [np.zeros(d >> order, dtype=np.int64) for order in range(num_orders)]
    orders = randomize_block(
        matrix, rng, randomize, probabilities, node_sums, node_counts
    )

    return BatchTreeReports(
        node_sums=node_sums,
        node_scales=node_scales(d, family.c_gap, order_weights),
        group_sizes=np.bincount(orders, minlength=num_orders),
        order_probabilities=probabilities,
        c_gap=family.c_gap,
        family_name=family.name,
        true_counts=matrix.sum(axis=0).astype(np.float64),
        orders=orders,
    )


def run_batch(
    states: np.ndarray,
    params: ProtocolParams,
    rng: Optional[np.random.Generator] = None,
    *,
    family: Optional[RandomizerFamily] = None,
    order_weights: Optional[Sequence[float]] = None,
    chunk_size: Optional[int] = None,
    kernel=None,
) -> ProtocolResult:
    """Vectorized equivalent of the ``future_rand_object`` reference driver.

    Same result type; see the module docstring for the
    execution strategy.  ``order_weights`` is the ablation knob documented on
    :func:`collect_tree_reports`; ``chunk_size`` selects the memory-bounded
    streaming-aggregation mode (see :mod:`repro.sim.chunked`); ``kernel``
    selects the randomizer backend (:mod:`repro.kernels`).
    """
    reports = collect_tree_reports(
        states,
        params,
        rng,
        family=family,
        order_weights=order_weights,
        chunk_size=chunk_size,
        kernel=kernel,
    )
    return reports.to_result()
