"""Streaming sessions: period-by-period executions of every mechanism.

Each class here implements the :class:`~repro.protocols.base.ProtocolSession`
contract for one mechanism family, holding exactly the state a real
deployment would hold between periods.  Every local mechanism's noise is
data-independent, so a session draws it at preparation ("randomize the
future") and each period's reports are a deterministic function of that
noise and the inputs seen so far.  Where a protocol's one-shot ``run`` is the
inherited :meth:`~repro.protocols.base.LongitudinalProtocol.run` over its
session, the session *is* the protocol's only implementation.

* :class:`HierarchicalStreamingSession` — Algorithms 1 + 2 for any
  composed-randomizer family (FutureRand, Bun et al.), vectorized across the
  population: orders and the noise ``b~ = R~(1^k)`` are drawn at
  preparation, and each period the emitting order groups' reports go into
  the server's prefix tree.
* :class:`ObjectStreamingSession` — the same protocol through real
  :class:`~repro.core.client.Client` state machines (deployment-shaped, O(n)
  Python per period; use for fidelity, not scale).
* :class:`ErlingssonStreamingSession` — derivative-slot sampling + basic
  randomizer (the slot decision is made online: a user keeps the ``s``-th
  change the moment it happens).
* :class:`RepeatedRRSession` / :class:`MemoizationSession` — the per-period
  randomized-response baselines (memoryless / memoized).
* :class:`CentralTreeStreamingSession` — the central-model binary mechanism,
  online: each dyadic node is released the moment its interval completes
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
from repro.core.composed_randomizer import ComposedRandomizer
from repro.core.future_rand import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.core.server import Server
from repro.dyadic.intervals import decompose_prefix
from repro.dyadic.prefix_matrix import flat_offsets
from repro.protocols.base import EstimatesNotReady, ProtocolSession
from repro.utils.chunking import plan_row_blocks
from repro.utils.rng import spawn_generators

__all__ = [
    "HierarchicalStreamingSession",
    "ObjectStreamingSession",
    "ErlingssonStreamingSession",
    "RepeatedRRSession",
    "MemoizationSession",
    "CentralTreeStreamingSession",
    "BufferedOfflineSession",
]

_SIGNS = np.array([-1, 1], dtype=np.int8)

#: Cells per row tile of :class:`RepeatedRRSession`'s coin draw: 64K float64
#: uniforms (512 KB) at a time, whatever ``n`` and ``d``.
_TILE_CELLS = 1 << 16


class HierarchicalStreamingSession(ProtocolSession):
    """Streaming Algorithms 1 + 2 over any composed-randomizer family.

    Per-user state is O(1) exactly as the paper promises: the pre-drawn noise
    vector ``b~``, the running non-zero count, and the boundary state of the
    user's current dyadic interval.  At preparation every user samples an
    order and ``b~ = R~(1^k)`` (chunk-bounded when ``chunk_size`` is set);
    each period the emitting order groups' ``{-1,+1}`` reports are formed with
    numpy sign algebra and delivered through
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
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        # Resolved once; None keeps the historical bit-exact draw paths.
        from repro.kernels import resolve_kernel

        self._kernel = resolve_kernel(kernel)
        n, k, rng = params.n, family.k, self._rng
        num_orders = params.d.bit_length()
        # Algorithm 1 line 1, for every user at once: sample orders.
        self._orders = rng.integers(0, num_orders, size=n)
        self._members = [
            np.flatnonzero(self._orders == order) for order in range(num_orders)
        ]
        # M.init for every user: b~ = R~(1^k) (randomize the future).
        sampler = ComposedRandomizer(family.law)
        ones = np.ones(k, dtype=np.int8)
        if chunk_size is None:
            self._b_tilde = sampler.sample_batch(ones, n, rng, kernel=self._kernel)
        else:
            # Bounded pre-draw: the retained b~ is (n, k) int8 either way, but
            # sample_batch's float transients now peak at chunk_size rows.
            self._b_tilde = np.empty((n, k), dtype=np.int8)
            for start, stop in plan_row_blocks(n, chunk_size):
                self._b_tilde[start:stop] = sampler.sample_batch(
                    ones, stop - start, rng, kernel=self._kernel
                )
        self._nnz = np.zeros(n, dtype=np.int64)
        self._boundary = np.zeros(n, dtype=np.int8)
        self._server = Server(params.d, family.c_gap)

    def _ingest(self, values: np.ndarray) -> int:
        t = self._period
        self._server.advance_to(t)
        delivered = 0
        for order, members in enumerate(self._members):
            if t % (1 << order) or members.size == 0:
                continue  # a group emits only at multiples of 2^order
            # Observation 3.7: the partial sum is a boundary-state difference.
            partials = values[members] - self._boundary[members]
            self._boundary[members] = values[members]
            nonzero = partials != 0
            # Property III noise; the kernel backend (when set) draws the
            # same uniform-sign law from raw bits.
            bits = (
                self._rng.choice(_SIGNS, size=members.size)
                if self._kernel is None
                else self._kernel.uniform_signs((members.size,), self._rng)
            )
            signal_users = members[nonzero]
            if signal_users.size:
                positions = self._nnz[signal_users]
                if (positions >= self._b_tilde.shape[1]).any():
                    raise RuntimeError(
                        "a user produced more than k non-zero partial sums; "
                        "the privacy calibration assumed k-sparsity"
                    )
                bits[nonzero] = (
                    partials[nonzero] * self._b_tilde[signal_users, positions]
                ).astype(np.int8)
                self._nnz[signal_users] += 1
            delivered += self._server.receive_batch(order, t >> order, bits)
        self._released.append(self._server.estimate(t))
        return delivered

    def _orders_for_result(self) -> np.ndarray:
        return self._orders.copy()


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
    """The Erlingsson et al. (2020) online protocol (Section 6, "Online Setting").

    It differs from the paper's protocol in one step: *before* sampling the
    dyadic order, each user samples one of ``k`` derivative slots uniformly
    and keeps only that change of its sequence.  The kept change's partial
    sums are 1-sparse at every order, so the basic randomizer at budget
    ``eps/2`` suffices, giving ``c_gap = tanh(eps/4)``.  The price is the
    estimator inflation: the server multiplies by an extra ``k`` to undo the
    slot sampling, which is where the *linear* ``k`` in their error bound
    comes from.

    Unbiasedness: a user whose sequence has ``k_u <= k`` changes samples its
    slot uniformly from ``k`` slots, of which ``k - k_u`` are phantoms holding
    no change, so the expected kept derivative is ``X_u[t] / k`` exactly and
    the ``x k`` debias is unbiased for every user.

    Slot sampling is online: a user keeps its ``s``-th change *the moment
    that change happens* (changes are observed as they occur, so no future
    data is needed).  Every coin is drawn at preparation: the slots, the
    orders, then for each non-empty order group ``h`` in ascending order its
    ``(m_h, d >> h)`` flips and uniform signs, one column per interval the
    group will report.
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
        flip_probability = 1.0 / (math.exp(eps_tilde) + 1.0)
        self._slots = rng.integers(0, params.k, size=n)
        self._orders = rng.integers(0, num_orders, size=n)
        self._members = [
            np.flatnonzero(self._orders == order) for order in range(num_orders)
        ]
        # Per non-empty order group, one row per reporting interval (the
        # transpose of the (m_h, d >> h) draw), so each period reads
        # contiguous coins.
        self._flips: dict[int, np.ndarray] = {}
        self._noise: dict[int, np.ndarray] = {}
        for order, members in enumerate(self._members):
            if members.size == 0:
                continue
            shape = (members.size, d >> order)
            flips = rng.random(shape) < flip_probability
            self._flips[order] = np.ascontiguousarray(flips.T)
            self._noise[order] = np.ascontiguousarray(rng.choice(_SIGNS, size=shape).T)
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
        for order, members in enumerate(self._members):
            if t % (1 << order) or members.size == 0:
                continue
            column = (t >> order) - 1
            partials = self._kept_value[members] - self._boundary[members]
            self._boundary[members] = self._kept_value[members]
            perturbed = np.where(self._flips[order][column], -partials, partials)
            reports = np.where(partials == 0, self._noise[order][column], perturbed)
            self._raw_sums[order][column] = float(reports.sum())
            delivered += members.size
        total = 0.0
        for interval in decompose_prefix(t):
            total += self._raw_sums[interval.order][interval.index - 1]
        self._released.append(self._scale * total)
        return delivered

    def _orders_for_result(self) -> np.ndarray:
        return self._orders.copy()


class RepeatedRRSession(ProtocolSession):
    """Repeated randomized response: every period, a fresh report per user.

    Each user encodes its current value as a sign ``2 st - 1`` and sends it
    through the basic randomizer; the server inverts
    ``E[w] = c_gap (2 st - 1)``.  Re-running a one-shot LDP protocol every
    period composes privacy loss linearly, so ``per_period_epsilon =
    epsilon / d`` is the budget-split (``epsilon``-LDP) variant, whose error
    grows linearly in ``d``.  The full ``epsilon`` per period is **not**
    ``epsilon``-LDP (its end-to-end budget is ``d * epsilon``); it is kept
    only to show the accuracy that silently degrading privacy would buy.

    The coins are data-independent, so all ``n * d`` of them are drawn at
    preparation, as one ``(n, d)`` uniform draw made in row tiles (no
    ``(n, d)`` float64 array exists) and kept as booleans, one row per period.
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
        flip_probability = 1.0 / (math.exp(per_period_epsilon) + 1.0)
        n, d = params.n, params.d
        # Generator.random fills C order from one stream, so tile after tile
        # consumes it exactly as one rng.random((n, d)) would.
        self._flips = np.empty((d, n), dtype=bool)
        for start, stop in plan_row_blocks(n, max(1, _TILE_CELLS // d)):
            tile = self._rng.random((stop - start, d))
            np.less(tile.T, flip_probability, out=self._flips[:, start:stop])

    def _ingest(self, values: np.ndarray) -> int:
        signs = (2 * values - 1).astype(np.int8)
        reports = np.where(self._flips[self._period - 1], -signs, signs)
        self._released.append(self._debiased_count(float(reports.sum())))
        return int(values.size)


class MemoizationSession(ProtocolSession):
    """Permanent randomized response (Section 6, "Local Model": [5, 9]).

    RAPPOR-style memoization: each user's two memoized answers, one per
    value, are drawn at preparation; every period replays the answer for the
    currently-held value.  Replayed answers add no fresh privacy loss for
    the *value*, so accuracy does not decay with ``d``.  But, as Ding et al.
    [5] point out and the paper reiterates, the scheme is **not**
    ``epsilon``-LDP for the sequence: a user's report switches only when
    their value switches, and does so whenever their two answers differ.  A
    passive observer therefore recovers each such change time with
    certainty.  Kept as the cautionary baseline: near-unsplit accuracy,
    broken longitudinal privacy.
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
    """Central-model binary (tree) mechanism in its continual-release form.

    Dwork et al. (2010) and Chan et al. (2011) count a Boolean stream under
    *central* differential privacy: each dyadic node's partial sum gets
    Laplace noise and every prefix is rebuilt from at most ``1 + log2 d``
    nodes.  The trusted curator sees the exact per-period counts; each node
    ``I_{h,j}`` is released the moment its interval completes (time
    ``j * 2^h``), so prefix estimates come out online.

    Privacy here is *user-level*: one user contributes at most ``k`` changes,
    each touching one node per order, so the L1 sensitivity of the node
    vector is ``2 k (1 + log2 d)`` (the user's ``k`` changes disappear and
    ``k`` new ones appear).  Each node's Laplace scale is therefore
    ``2 k (1 + log2 d) / epsilon``, for error ``O((k / epsilon) polylog d)``
    — *independent of n*, the point of experiment E10: the local model must
    pay ``sqrt(n)``.  The noise is data-independent, so all ``2d - 1`` node
    draws are made at preparation, in flat node order (order-major, the
    layout of :func:`~repro.dyadic.prefix_matrix.flat_offsets`).
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
        )
        d = params.d
        noise_scale = 2.0 * params.k * d.bit_length() / params.epsilon
        self._offsets = flat_offsets(d)
        # Each node holds its noise until its interval closes, then its count
        # is added in.
        self._nodes = self._rng.laplace(0.0, noise_scale, size=2 * d - 1)
        # Exact population counts a[0..d] (a[0] = 0); node I_{h,j} sums the
        # increment stream over its interval, i.e. a[j 2^h] - a[(j-1) 2^h].
        self._counts = np.zeros(d + 1, dtype=np.float64)

    def _ingest(self, values: np.ndarray) -> int:
        t = self._period
        self._counts[t] = float(values.sum())
        for order, offset in enumerate(self._offsets):
            if t % (1 << order):
                continue
            exact = self._counts[t] - self._counts[t - (1 << order)]
            self._nodes[offset + (t >> order) - 1] += exact
        total = 0.0
        for interval in decompose_prefix(t):
            total += self._nodes[self._offsets[interval.order] + interval.index - 1]
        self._released.append(total)
        return 0  # the curator ingests raw data; no randomized reports travel


class BufferedOfflineSession(ProtocolSession):
    """Session wrapper for genuinely offline one-shot drivers.

    Buffers the population columns; once the horizon has elapsed, hands the
    reassembled ``(n, d)`` matrix to the wrapped runner.  Querying estimates
    earlier raises :class:`EstimatesNotReady` — that *is* the offline
    capability, surfaced through the session API.  ``c_gap`` is the
    protocol's exact constant, reported from the first period on.
    """

    def __init__(
        self,
        params: ProtocolParams,
        runner: Callable[..., ProtocolResult],
        family_name: str,
        rng: Optional[np.random.Generator] = None,
        *,
        c_gap: float,
    ) -> None:
        super().__init__(params, rng, c_gap=c_gap, family_name=family_name)
        self._runner = runner
        self._columns = np.zeros((params.n, params.d), dtype=np.int8)
        self._final: Optional[ProtocolResult] = None

    def _ingest(self, values: np.ndarray) -> int:
        self._columns[:, self._period - 1] = values
        return 0  # nothing is released until the horizon closes

    def _finalize(self) -> ProtocolResult:
        if self._final is None:
            self._final = self._runner(self._columns, self._params, self._rng)
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
