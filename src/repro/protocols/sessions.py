"""Streaming sessions: period-by-period executions of every mechanism.

Each class here implements the :class:`~repro.protocols.base.ProtocolSession`
contract for one mechanism family, holding exactly the state a real
deployment would hold between periods:

* :class:`HierarchicalStreamingSession` — Algorithms 1 + 2 for any
  composed-randomizer family (FutureRand, Bun et al.), vectorized across the
  population.  The "randomize the future" pre-computation is what makes this
  possible: all per-user noise ``b~ = R~(1^k)`` is drawn at :meth:`prepare`
  time, so each period's reports are a deterministic function of pre-drawn
  noise and the inputs seen so far — no future data needed.
* :class:`ObjectStreamingSession` — the same protocol through real
  :class:`~repro.core.client.Client` state machines (deployment-shaped, O(n)
  Python per period; use for fidelity, not scale).
* :class:`ErlingssonStreamingSession` — derivative-slot sampling + basic
  randomizer, streamed (the slot decision is made online: a user keeps the
  ``s``-th change the moment it happens).
* :class:`RepeatedRRSession` / :class:`MemoizationSession` — the per-period
  randomized-response baselines (memoryless / memoized, trivially online).
* :class:`CentralTreeStreamingSession` — the central-model binary mechanism,
  online: each dyadic node is noised the moment its interval completes
  (Chan et al.'s continual-release shape).
* :class:`BufferedOfflineSession` — wrapper for genuinely offline protocols
  (the full-tree comparator): buffers the horizon, runs the one-shot driver
  at the end, raises :class:`EstimatesNotReady` before that.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.core.basic_randomizer import basic_c_gap
from repro.core.client import Client, Report
from repro.core.interfaces import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ItemDomainResult, ProtocolResult
from repro.core.server import Server
from repro.dyadic.intervals import decompose_prefix
from repro.protocols.sketch_layer import (
    SIGNS,
    BooleanDyadicStream,
    multiply_shift_bucket,
    random_odd_multiplier,
)
from repro.protocols.base import EstimatesNotReady, ProtocolSession
from repro.utils.rng import spawn_generators

__all__ = [
    "HierarchicalStreamingSession",
    "ObjectStreamingSession",
    "ErlingssonStreamingSession",
    "RepeatedRRSession",
    "MemoizationSession",
    "CentralTreeStreamingSession",
    "BufferedOfflineSession",
    "CategoricalStreamingSession",
    "HashedFrequencyStreamingSession",
    "SketchMedianStreamingSession",
    "HeavyHittersStreamingSession",
]

_SIGNS = SIGNS


class HierarchicalStreamingSession(ProtocolSession):
    """Streaming Algorithms 1 + 2 over any composed-randomizer family.

    Per-user state is O(1) exactly as the paper promises: the pre-drawn noise
    vector ``b~``, the running non-zero count, and the boundary state of the
    user's current dyadic interval.  Each period the emitting order groups'
    reports are formed with numpy sign algebra and delivered through
    :meth:`~repro.core.server.Server.receive_batch`.
    """

    def __init__(
        self,
        params: ProtocolParams,
        family: RandomizerFamily,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> None:
        super().__init__(
            params, rng, c_gap=family.c_gap, family_name=family.name
        )
        # Resolved once; None keeps the historical bit-exact draw paths.
        from repro.kernels import resolve_kernel

        self._kernel = resolve_kernel(kernel)
        # The client side (order sampling, b~ pre-draw, per-period report
        # emission) is the shared sketch-layer stream; this session's only
        # job is routing the emissions into the prefix tree.
        self._stream = BooleanDyadicStream(
            params.n,
            params.d,
            family,
            self._rng,
            chunk_size=chunk_size,
            kernel=self._kernel,
        )
        self._server = Server(params.d, family.c_gap)

    @property
    def server(self) -> Server:
        """The live aggregator (inspectable mid-stream)."""
        return self._server

    def _ingest(self, values: np.ndarray) -> int:
        t = self._period
        self._server.advance_to(t)
        delivered = 0
        for order, index, _members, bits in self._stream.emissions(t, values):
            delivered += self._server.receive_batch(order, index, bits)
        self._released.append(self._server.estimate(t))
        return delivered

    def range_change(self, left: int, right: int) -> float:
        """Estimate the net change ``a[right] - a[left - 1]`` (post-processing).

        Answered from the already-received reports by
        :meth:`~repro.core.server.Server.estimate_range_change` — no extra
        privacy budget.  Raises ``ValueError`` unless
        ``1 <= left <= right <= d``, and :class:`EstimatesNotReady` while
        period ``right`` has not been ingested (the session is online).
        """
        estimate = self._server.estimate_range_change(left, right)  # bounds first
        if right > self._period:
            raise EstimatesNotReady(
                f"range [{left}..{right}] queries period {right} but only "
                f"{self._period} periods have been ingested"
            )
        return estimate

    def window_change_series(self, window: int) -> np.ndarray:
        """Trailing-``window`` net-change series (requires the full horizon)."""
        series = self._server.window_change_series(window)  # validates window
        if not self.complete:
            raise EstimatesNotReady(
                f"only {self._period} of {self._params.d} periods ingested; "
                "the window series requires the full horizon"
            )
        return series

    def _orders_for_result(self) -> np.ndarray:
        return self._stream.orders.copy()


class ObjectStreamingSession(ProtocolSession):
    """Deployment-shaped streaming: one :class:`Client` object per user.

    Works for *any* :class:`RandomizerFamily` (only ``spawn`` is required);
    every report goes through ``Server.receive`` with full registration and
    duplicate bookkeeping.  O(n) Python per period — the faithful reference,
    not the fast path.  This is the one object-form period loop: the
    ``future_rand_object`` protocol and
    :class:`~repro.sim.engine.SimulationEngine` both play through it.
    """

    def __init__(
        self,
        params: ProtocolParams,
        family: RandomizerFamily,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(
            params, rng, c_gap=family.c_gap, family_name=family.name
        )
        client_rngs = spawn_generators(self._rng, params.n)
        self._clients = [
            Client(user_id=u, d=params.d, family=family, rng=client_rngs[u])
            for u in range(params.n)
        ]
        self._server = Server(params.d, family.c_gap)
        for client in self._clients:
            self._server.register(client.user_id, client.order)

    @property
    def server(self) -> Server:
        """The live aggregator (inspectable mid-stream)."""
        return self._server

    def _ingest(self, values: np.ndarray) -> int:
        self._server.advance_to(self._period)
        reports = self._delivered(
            [
                report
                for client in self._clients
                if (report := client.step(int(values[client.user_id]))) is not None
            ]
        )
        for report in reports:
            self._server.receive(report)
        self._released.append(self._server.estimate(self._period))
        return len(reports)

    def _delivered(self, reports: list[Report]) -> list[Report]:
        """The emitted reports that reach the server (all of them here).

        The fault-injection seam of :class:`repro.sim.engine.SimulationEngine`,
        which overrides it to lose reports in transit.
        """
        return reports

    def _orders_for_result(self) -> np.ndarray:
        return np.array([client.order for client in self._clients])


class ErlingssonStreamingSession(ProtocolSession):
    """The Erlingsson et al. (2020) protocol, streamed.

    The derivative-coordinate sampling is made online: each user draws its
    slot ``s`` up front and keeps the ``s``-th change of its sequence *the
    moment that change happens* (changes are observed as they occur, so no
    future data is needed).  Kept partial sums go through the basic
    randomizer at ``eps/2``; the estimator carries the ``x k`` slot-sampling
    debias.
    """

    def __init__(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        eps_tilde = params.epsilon / 2.0
        super().__init__(
            params,
            rng,
            c_gap=basic_c_gap(eps_tilde),
            family_name="erlingsson2020",
        )
        n, d = params.n, params.d
        rng = self._rng
        num_orders = d.bit_length()
        self._flip_probability = 1.0 / (math.exp(eps_tilde) + 1.0)
        # Uniform over k phantom-padded slots (unbiasedness detail in
        # repro.baselines.erlingsson).
        self._slots = rng.integers(0, params.k, size=n)
        self._orders = rng.integers(0, num_orders, size=n)
        self._members = [
            np.flatnonzero(self._orders == order) for order in range(num_orders)
        ]
        self._changes_seen = np.zeros(n, dtype=np.int64)
        self._kept_value = np.zeros(n, dtype=np.int8)  # cumsum of kept derivative
        self._kept_previous = np.zeros(n, dtype=np.int8)
        self._boundary = np.zeros(n, dtype=np.int8)
        self._raw_sums = [
            np.zeros(d >> order, dtype=np.float64) for order in range(num_orders)
        ]
        self._scale = params.k * num_orders / self._c_gap

    def _ingest(self, values: np.ndarray) -> int:
        t = self._period
        # Online slot sampling: a change occurring now is kept iff it is the
        # (slot+1)-th change of this user's sequence.
        delta = (values - self._kept_previous).astype(np.int8)
        changed = delta != 0
        keep = changed & (self._changes_seen == self._slots)
        self._kept_value[keep] += delta[keep]
        self._changes_seen += changed
        self._kept_previous = values
        delivered = 0
        for order in range(self._params.d.bit_length()):
            if t % (1 << order):
                continue
            members = self._members[order]
            if members.size == 0:
                continue
            partials = self._kept_value[members] - self._boundary[members]
            self._boundary[members] = self._kept_value[members]
            flips = self._rng.random(members.size) < self._flip_probability
            perturbed = np.where(flips, -partials, partials)
            noise = self._rng.choice(_SIGNS, size=members.size)
            reports = np.where(partials == 0, noise, perturbed)
            self._raw_sums[order][(t >> order) - 1] = float(reports.sum())
            delivered += members.size
        total = 0.0
        for interval in decompose_prefix(t):
            total += self._raw_sums[interval.order][interval.index - 1]
        self._released.append(self._scale * total)
        return delivered

    def _orders_for_result(self) -> np.ndarray:
        return self._orders.copy()


class RepeatedRRSession(ProtocolSession):
    """Per-period randomized response (memoryless — trivially streaming).

    ``per_period_epsilon = epsilon / d`` is the budget-split (LDP) variant;
    the full ``epsilon`` per period is the privacy-violating strawman.
    """

    def __init__(
        self,
        params: ProtocolParams,
        per_period_epsilon: float,
        family_name: str,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(
            params,
            rng,
            c_gap=basic_c_gap(per_period_epsilon),
            family_name=family_name,
            enforce_k_changes=False,
        )
        self._flip_probability = 1.0 / (math.exp(per_period_epsilon) + 1.0)

    def _ingest(self, values: np.ndarray) -> int:
        signs = (2 * values - 1).astype(np.int8)
        flips = self._rng.random(values.size) < self._flip_probability
        reports = np.where(flips, -signs, signs)
        self._released.append(self._debiased_count(float(reports.sum())))
        return int(values.size)


class MemoizationSession(ProtocolSession):
    """Permanent randomized response, streamed.

    Each user's two memoized answers are drawn at preparation; every period
    simply replays the answer for the currently-held value.  (The replayed
    stream is what leaks change times — see
    :mod:`repro.baselines.memoization`.)
    """

    def __init__(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(
            params,
            rng,
            c_gap=basic_c_gap(params.epsilon),
            family_name="memoization(NOT sequence-LDP)",
            enforce_k_changes=False,
        )
        flip_probability = 1.0 / (math.exp(params.epsilon) + 1.0)
        rng = self._rng
        flips_for_zero = rng.random(params.n) < flip_probability
        flips_for_one = rng.random(params.n) < flip_probability
        self._answer_for_zero = np.where(flips_for_zero, 1, -1).astype(np.int8)
        self._answer_for_one = np.where(flips_for_one, -1, 1).astype(np.int8)

    def _ingest(self, values: np.ndarray) -> int:
        reports = np.where(values == 1, self._answer_for_one, self._answer_for_zero)
        self._released.append(self._debiased_count(float(reports.sum())))
        return int(values.size)


class CentralTreeStreamingSession(ProtocolSession):
    """Central-model binary mechanism in its continual-release (online) form.

    The trusted curator sees exact per-period counts; each dyadic node
    ``I_{h,j}`` is perturbed with user-level Laplace noise the moment its
    interval completes (time ``j * 2^h``), so prefix estimates are released
    online — the shape of Chan et al.'s continual counting.  The one-shot
    :func:`~repro.baselines.central.run_central_tree` noises the same nodes
    with the same scale, so the output distributions coincide.
    """

    def __init__(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(
            params,
            rng,
            c_gap=1.0,
            family_name="central_tree",
            enforce_k_changes=False,
        )
        d = params.d
        # User-level sensitivity: 2 k (1 + log2 d) — see CentralTreeMechanism.
        self._noise_scale = 2.0 * params.k * d.bit_length() / params.epsilon
        self._noisy_nodes = [
            np.zeros(d >> order, dtype=np.float64) for order in range(d.bit_length())
        ]
        # Exact population counts a[0..d] (a[0] = 0); node I_{h,j} sums the
        # increment stream over its interval, i.e. a[j 2^h] - a[(j-1) 2^h].
        self._counts = np.zeros(d + 1, dtype=np.float64)

    def _ingest(self, values: np.ndarray) -> int:
        t = self._period
        self._counts[t] = float(values.sum())
        for order in range(self._params.d.bit_length()):
            if t % (1 << order):
                continue
            index = t >> order
            exact = self._counts[t] - self._counts[t - (1 << order)]
            self._noisy_nodes[order][index - 1] = exact + self._rng.laplace(
                0.0, self._noise_scale
            )
        total = 0.0
        for interval in decompose_prefix(t):
            total += self._noisy_nodes[interval.order][interval.index - 1]
        self._released.append(total)
        return 0  # the curator ingests raw data; no randomized reports travel


class BufferedOfflineSession(ProtocolSession):
    """Session wrapper for genuinely offline one-shot drivers.

    Buffers the population columns; once the horizon has elapsed, hands the
    reassembled ``(n, d)`` matrix to the wrapped runner.  Querying estimates
    earlier raises :class:`EstimatesNotReady` — that *is* the offline
    capability, surfaced through the session API.
    """

    def __init__(
        self,
        params: ProtocolParams,
        runner: Callable[..., ProtocolResult],
        family_name: str,
        rng: Optional[np.random.Generator] = None,
        *,
        enforce_k_changes: bool = True,
    ) -> None:
        super().__init__(
            params,
            rng,
            c_gap=1.0,  # provisional; replaced by the runner's exact value
            family_name=family_name,
            enforce_k_changes=enforce_k_changes,
        )
        self._runner = runner
        self._columns = np.zeros((params.n, params.d), dtype=np.int8)
        self._final: Optional[ProtocolResult] = None

    def _ingest(self, values: np.ndarray) -> int:
        self._columns[:, self._period - 1] = values
        return 0  # nothing is released until the horizon closes

    def _finalize(self) -> ProtocolResult:
        if self._final is None:
            self._final = self._runner(self._columns, self._params, self._rng)
            self._c_gap = self._final.c_gap
            self._family_name = self._final.family_name
        return self._final

    def estimates(self) -> np.ndarray:
        if not self.complete:
            raise EstimatesNotReady(
                f"{self._family_name} is offline: estimates are available only "
                f"after all {self._params.d} periods "
                f"(ingested {self._period})"
            )
        return self._finalize().estimates

    def result(self) -> ProtocolResult:
        if not self.complete:
            raise EstimatesNotReady(
                f"only {self._period} of {self._params.d} periods ingested; "
                "the result requires the full horizon"
            )
        return self._finalize()


class _HashedOracleState:
    """One user block's sign-hash frequency oracle (stream + decode arrays).

    The decode identity: with per-user public sign hashes ``signs[u, v]`` and
    per-emission accumulation ``acc[h][j-1, :] += bits @ signs[members]``,

        ``freq_hat(v, t) = 2 * scale * sum_{I in C(t)} acc[I.order][I.index-1, v]
                           - sum_u signs[u, v]``

    equals the classic per-user estimator ``sum_u signs[u, v] *
    (2 * st_hat_u[t] - 1)`` exactly (each user's own order contributes at
    most one interval to ``C(t)``), but needs only O(nodes x m) memory and
    no per-user estimate matrix.
    """

    def __init__(
        self,
        size: int,
        d: int,
        coordinate_domain: int,
        family: RandomizerFamily,
        rng: np.random.Generator,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> None:
        self.size = int(size)
        self.signs = rng.choice(SIGNS, size=(self.size, coordinate_domain))
        self.stream = BooleanDyadicStream(
            self.size, d, family, rng, chunk_size=chunk_size, kernel=kernel
        )
        self.acc = [
            np.zeros((d >> order, coordinate_domain), dtype=np.float64)
            for order in range(d.bit_length())
        ]
        self.total_signs = self.signs.sum(axis=0, dtype=np.float64)
        self.scale = d.bit_length() / family.c_gap
        self._row_index = np.arange(self.size)

    def ingest(self, t: int, coordinates: np.ndarray) -> int:
        """Feed period ``t``'s block coordinates; return reports delivered."""
        boolean = (self.signs[self._row_index, coordinates] == 1).astype(np.int8)
        delivered = 0
        for order, index, members, bits in self.stream.emissions(t, boolean):
            self.acc[order][index - 1] += bits.astype(np.float64) @ self.signs[members]
            delivered += bits.size
        return delivered

    def decode(self, t: int) -> np.ndarray:
        """All-coordinate count estimates for this block at period ``t``."""
        total = np.zeros(self.signs.shape[1], dtype=np.float64)
        for interval in decompose_prefix(t):
            total += self.acc[interval.order][interval.index - 1]
        return 2.0 * self.scale * total - self.total_signs

    def decode_at(self, t: int, coordinate: int) -> float:
        """Count estimate for one coordinate at period ``t``."""
        total = 0.0
        for interval in decompose_prefix(t):
            total += self.acc[interval.order][interval.index - 1, coordinate]
        return 2.0 * self.scale * total - float(self.total_signs[coordinate])


class _ItemStreamingSession(ProtocolSession):
    """Shared base for the item-domain sessions (items from ``[0, m)``).

    Reuses the Boolean session plumbing with three overridden hooks: columns
    hold item ids (validated against ``domain_size``), a user's *initial*
    item is free under the ``k`` budget (a period-1 item is not a change;
    only a switch from one item to a different item at a later period
    counts against ``k``), and scalar ground
    truth follows the tracked-item convention — ``true_counts[t-1]`` counts
    the users holding **item 1** — so 0/1 Boolean inputs reproduce the
    Boolean protocols' scalar semantics exactly and every scalar consumer
    (sweeps, error metrics, conformance bounds) works unchanged.  Exact
    per-item counts are kept sparsely per period and materialized into the
    :class:`~repro.core.protocol.ItemDomainResult` when ``d * m`` is small
    enough to be worth holding.
    """

    #: Materialize ``(d, m)`` item matrices only below this cell count; the
    #: huge-domain sketch path never builds per-item vectors.
    _MATERIALIZE_CELLS = 1 << 22

    def __init__(
        self,
        params: ProtocolParams,
        domain_size: int,
        rng: Optional[np.random.Generator] = None,
        *,
        c_gap: float,
        family_name: str,
    ) -> None:
        if domain_size < 2:
            raise ValueError(f"domain_size must be at least 2, got {domain_size}")
        super().__init__(params, rng, c_gap=c_gap, family_name=family_name)
        self._m = int(domain_size)
        self._previous_values = np.zeros(params.n, dtype=np.int64)
        self._truth_sparse: list[tuple[np.ndarray, np.ndarray]] = []

    @property
    def domain_size(self) -> int:
        """``m``: number of distinct items."""
        return self._m

    def _coerce_column(self, column: np.ndarray) -> np.ndarray:
        if not np.issubdtype(column.dtype, np.integer):
            raise ValueError(
                f"item values must be integers, got dtype {column.dtype}"
            )
        column = column.astype(np.int64)
        if column.min() < 0 or column.max() >= self._m:
            raise ValueError(f"item values must lie in [0, {self._m})")
        return column

    def _count_changes(self, column: np.ndarray) -> None:
        # self._period still holds the previous period here; the first
        # column initializes items without spending the change budget.
        if self._period:
            self._change_counts += column != self._previous_values

    def _record_truth(self, column: np.ndarray) -> None:
        self._true_counts[self._period - 1] = float(
            np.count_nonzero(column == 1)
        )
        values, counts = np.unique(column, return_counts=True)
        self._truth_sparse.append((values, counts.astype(np.float64)))

    def _materializable(self) -> bool:
        return self._params.d * self._m <= self._MATERIALIZE_CELLS

    def item_estimates(self) -> Optional[np.ndarray]:
        """``(period, m)`` per-item estimates so far; ``None`` at huge ``m``."""
        if not self._materializable() or self._period == 0:
            return None if not self._materializable() else np.zeros((0, self._m))
        return np.vstack(
            [self._item_estimate_row(t) for t in range(1, self._period + 1)]
        )

    def _item_estimate_row(self, t: int) -> np.ndarray:
        """The ``(m,)`` per-item estimate vector at period ``t``."""
        raise NotImplementedError

    def _true_item_counts(self) -> Optional[np.ndarray]:
        if not self._materializable():
            return None
        matrix = np.zeros((self._params.d, self._m), dtype=np.float64)
        for t, (values, counts) in enumerate(self._truth_sparse):
            matrix[t, values] = counts
        return matrix

    def _heavy_hitters_for_result(self) -> Optional[tuple]:
        return None

    def result(self) -> ItemDomainResult:
        if not self.complete:
            raise EstimatesNotReady(
                f"only {self._period} of {self._params.d} periods ingested; "
                "the result requires the full horizon"
            )
        estimates = np.asarray(self.estimates(), dtype=np.float64)
        return ItemDomainResult(
            estimates=estimates,
            true_counts=self._true_counts.copy(),
            c_gap=self._c_gap,
            family_name=self._family_name,
            orders=self._orders_for_result(),
            domain_size=self._m,
            item_estimates=self.item_estimates(),
            true_item_counts=self._true_item_counts(),
            heavy_hitters=self._heavy_hitters_for_result(),
        )


class CategoricalStreamingSession(_ItemStreamingSession):
    """One-hot coordinate sampling over the Boolean dyadic stream.

    The streaming form of the coordinate-sampling frequency oracle: each
    user samples one one-hot coordinate ``c_u`` uniformly and runs the
    Boolean protocol on the indicator ``item_u[t] == c_u``; the server
    buckets each emission's reports by coordinate and rescales by ``m``.
    """

    def __init__(
        self,
        params: ProtocolParams,
        domain_size: int,
        family: RandomizerFamily,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> None:
        super().__init__(
            params,
            domain_size,
            rng,
            c_gap=family.c_gap,
            family_name=f"categorical[{family.name}]",
        )
        from repro.kernels import resolve_kernel

        kernel = resolve_kernel(kernel)
        rng = self._rng
        d = params.d
        self._num_orders = d.bit_length()
        self._coordinates = rng.integers(0, self._m, size=params.n)
        self._stream = BooleanDyadicStream(
            params.n, d, family, rng, chunk_size=chunk_size, kernel=kernel
        )
        self._raw = [
            np.zeros((self._m, d >> order), dtype=np.float64)
            for order in range(self._num_orders)
        ]
        self._scale = self._m * self._num_orders / family.c_gap

    def _ingest(self, values: np.ndarray) -> int:
        t = self._period
        boolean = (values == self._coordinates).astype(np.int8)
        delivered = 0
        for order, index, members, bits in self._stream.emissions(t, boolean):
            np.add.at(
                self._raw[order][:, index - 1],
                self._coordinates[members],
                bits.astype(np.float64),
            )
            delivered += bits.size
        total = 0.0
        for interval in decompose_prefix(t):
            total += self._raw[interval.order][1, interval.index - 1]
        self._released.append(self._scale * total)
        return delivered

    def _item_estimate_row(self, t: int) -> np.ndarray:
        totals = np.zeros(self._m, dtype=np.float64)
        for interval in decompose_prefix(t):
            totals += self._raw[interval.order][:, interval.index - 1]
        return self._scale * totals

    def _orders_for_result(self) -> np.ndarray:
        return self._stream.orders.copy()


class HashedFrequencyStreamingSession(_ItemStreamingSession):
    """Sign-hash frequency oracle over the Boolean dyadic stream.

    The streaming form of the hashed oracle: each user tracks the Boolean
    value ``h_u(item_u[t]) = +1`` under a public per-user sign hash; the
    decode accumulators of :class:`_HashedOracleState` recover every item's
    count without ever materializing per-user estimate matrices.
    """

    def __init__(
        self,
        params: ProtocolParams,
        domain_size: int,
        family: RandomizerFamily,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> None:
        super().__init__(
            params,
            domain_size,
            rng,
            c_gap=family.c_gap,
            family_name=f"hashed_frequency[{family.name}]",
        )
        from repro.kernels import resolve_kernel

        kernel = resolve_kernel(kernel)
        self._oracle = _HashedOracleState(
            params.n,
            params.d,
            self._m,
            family,
            self._rng,
            chunk_size=chunk_size,
            kernel=kernel,
        )

    def _ingest(self, values: np.ndarray) -> int:
        t = self._period
        delivered = self._oracle.ingest(t, values)
        self._released.append(self._oracle.decode_at(t, 1))
        return delivered

    def _item_estimate_row(self, t: int) -> np.ndarray:
        return self._oracle.decode(t)

    def _orders_for_result(self) -> np.ndarray:
        return self._oracle.stream.orders.copy()


class SketchMedianStreamingSession(_ItemStreamingSession):
    """Median over disjoint-cohort sign-hash oracles, streamed.

    Users are split into ``repetitions`` near-equal cohorts; each cohort
    runs its own :class:`_HashedOracleState` and estimates full-population
    counts by rescaling with ``n / cohort_size``; every query answers with
    the per-item median over cohorts (count-sketch aggregation).
    """

    def __init__(
        self,
        params: ProtocolParams,
        domain_size: int,
        family: RandomizerFamily,
        repetitions: int,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> None:
        super().__init__(
            params,
            domain_size,
            rng,
            c_gap=family.c_gap,
            family_name=f"sketch_median[{family.name}]",
        )
        if repetitions < 1 or repetitions % 2 == 0:
            raise ValueError(
                f"repetitions must be odd for an unambiguous median, got "
                f"{repetitions}"
            )
        if params.n < repetitions:
            raise ValueError(
                f"need at least {repetitions} users, got {params.n}"
            )
        from repro.kernels import resolve_kernel

        kernel = resolve_kernel(kernel)
        rng = self._rng
        self._repetitions = int(repetitions)
        assignment = rng.permutation(params.n) % self._repetitions
        cohort_rngs = spawn_generators(rng, self._repetitions)
        self._cohorts = []
        for cohort in range(self._repetitions):
            members = np.flatnonzero(assignment == cohort)
            oracle = _HashedOracleState(
                members.size,
                params.d,
                self._m,
                family,
                cohort_rngs[cohort],
                chunk_size=chunk_size,
                kernel=kernel,
            )
            self._cohorts.append((members, oracle))

    def _ingest(self, values: np.ndarray) -> int:
        t = self._period
        delivered = 0
        for members, oracle in self._cohorts:
            delivered += oracle.ingest(t, values[members])
        n = self._params.n
        per_cohort = [
            oracle.decode_at(t, 1) * (n / members.size)
            for members, oracle in self._cohorts
        ]
        self._released.append(float(np.median(per_cohort)))
        return delivered

    def _item_estimate_row(self, t: int) -> np.ndarray:
        n = self._params.n
        per_cohort = np.stack(
            [
                oracle.decode(t) * (n / members.size)
                for members, oracle in self._cohorts
            ]
        )
        return np.median(per_cohort, axis=0)


class HeavyHittersStreamingSession(_ItemStreamingSession):
    """Huge-domain heavy hitters: count-sketch rows with bit-channel decoding.

    The succinct-histogram construction (Bassily-Smith style) on the sketch
    layer: ``repetitions`` independent sketch rows each hash the item domain
    into ``width`` buckets via a public multiply-shift hash; per row, one
    *bucket channel* group of users tracks their bucket coordinate through a
    sign-hash oracle over ``[width]``, and ``ceil(log2 m)`` *bit channel*
    groups track ``(bucket, b-th item bit)`` pairs over ``[2 width]``.  Per
    period the decoder takes each row's heaviest buckets, reads the item id
    bit by bit from the bit channels, validates the candidate against the
    row's hash, and reports the top-``r`` candidates by their median-of-rows
    count estimate.  All state is O(width) per group — the item domain size
    ``m`` enters only through ``log2 m`` group count, so ``m ~ 2^20`` runs
    in megabytes.
    """

    def __init__(
        self,
        params: ProtocolParams,
        domain_size: int,
        family: RandomizerFamily,
        rng: Optional[np.random.Generator] = None,
        *,
        width: int = 64,
        repetitions: int = 3,
        top_r: int = 8,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> None:
        super().__init__(
            params,
            domain_size,
            rng,
            c_gap=family.c_gap,
            family_name=f"heavy_hitters[{family.name}]",
        )
        if width < 2 or width & (width - 1):
            raise ValueError(f"width must be a power of two >= 2, got {width}")
        if repetitions < 1 or repetitions % 2 == 0:
            raise ValueError(
                f"repetitions must be odd for an unambiguous median, got "
                f"{repetitions}"
            )
        if top_r < 1:
            raise ValueError(f"top_r must be at least 1, got {top_r}")
        self._width = int(width)
        self._repetitions = int(repetitions)
        self._top_r = int(top_r)
        self._bits_per_item = max(1, (self._m - 1).bit_length())
        self._channels = self._bits_per_item + 1
        groups = self._repetitions * self._channels
        if params.n < groups:
            raise ValueError(
                f"heavy_hitters needs at least {groups} users (repetitions x "
                f"(1 + item bits) = {self._repetitions} x {self._channels}), "
                f"got {params.n}"
            )
        from repro.kernels import resolve_kernel

        kernel = resolve_kernel(kernel)
        rng = self._rng
        assignment = rng.permutation(params.n) % groups
        self._multipliers = [
            random_odd_multiplier(rng) for _ in range(self._repetitions)
        ]
        group_rngs = spawn_generators(rng, groups)
        self._groups = []
        for group in range(groups):
            members = np.flatnonzero(assignment == group)
            channel = group % self._channels
            coordinate_domain = self._width if channel == 0 else 2 * self._width
            oracle = _HashedOracleState(
                members.size,
                params.d,
                coordinate_domain,
                family,
                group_rngs[group],
                chunk_size=chunk_size,
                kernel=kernel,
            )
            self._groups.append((members, oracle))
        self._decoded: list[tuple[tuple[int, float], ...]] = []

    def _bucket_of(self, items: np.ndarray, rep: int) -> np.ndarray:
        return multiply_shift_bucket(items, self._multipliers[rep], self._width)

    def _ingest(self, values: np.ndarray) -> int:
        t = self._period
        delivered = 0
        for group, (members, oracle) in enumerate(self._groups):
            rep, channel = divmod(group, self._channels)
            items = values[members]
            buckets = self._bucket_of(items, rep)
            if channel == 0:
                coordinates = buckets
            else:
                bit = (items >> np.int64(channel - 1)) & np.int64(1)
                coordinates = 2 * buckets + bit
            delivered += oracle.ingest(t, coordinates)
        bucket_tables = [
            self._bucket_estimates(rep, t) for rep in range(self._repetitions)
        ]
        self._released.append(self._scalar_estimate(t, bucket_tables))
        self._decoded.append(self._decode_top(t, bucket_tables))
        return delivered

    def _bucket_estimates(self, rep: int, t: int) -> np.ndarray:
        """Population-scaled per-bucket count estimates for one sketch row."""
        members, oracle = self._groups[rep * self._channels]
        return oracle.decode(t) * (self._params.n / members.size)

    def _median_item_estimate(
        self, item: int, bucket_tables: list[np.ndarray]
    ) -> float:
        items = np.array([item], dtype=np.int64)
        per_rep = [
            bucket_tables[rep][int(self._bucket_of(items, rep)[0])]
            for rep in range(self._repetitions)
        ]
        return float(np.median(per_rep))

    def _scalar_estimate(self, t: int, bucket_tables: list[np.ndarray]) -> float:
        return self._median_item_estimate(1, bucket_tables)

    def _decode_top(
        self, t: int, bucket_tables: list[np.ndarray]
    ) -> tuple[tuple[int, float], ...]:
        candidates: set[int] = set()
        for rep in range(self._repetitions):
            heaviest = np.argsort(-bucket_tables[rep], kind="stable")[
                : self._top_r
            ]
            bit_rows = [
                self._groups[rep * self._channels + 1 + b][1].decode(t)
                for b in range(self._bits_per_item)
            ]
            for bucket in heaviest:
                bucket = int(bucket)
                item = 0
                for b in range(self._bits_per_item):
                    if bit_rows[b][2 * bucket + 1] > bit_rows[b][2 * bucket]:
                        item |= 1 << b
                if item >= self._m:
                    continue
                probe = np.array([item], dtype=np.int64)
                if int(self._bucket_of(probe, rep)[0]) != bucket:
                    continue
                candidates.add(item)
        scored = sorted(
            (
                (item, self._median_item_estimate(item, bucket_tables))
                for item in candidates
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return tuple(scored[: self._top_r])

    def top_items(self) -> list[list[int]]:
        """Decoded heavy-hitter item ids per ingested period."""
        return [[item for item, _ in period] for period in self._decoded]

    def _heavy_hitters_for_result(self) -> tuple:
        return tuple(self._decoded)

    def _item_estimate_row(self, t: int) -> np.ndarray:
        bucket_tables = [
            self._bucket_estimates(rep, t) for rep in range(self._repetitions)
        ]
        all_items = np.arange(self._m, dtype=np.int64)
        per_rep = np.stack(
            [
                bucket_tables[rep][self._bucket_of(all_items, rep)]
                for rep in range(self._repetitions)
            ]
        )
        return np.median(per_rep, axis=0)
