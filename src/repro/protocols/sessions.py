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
from repro.core.protocol import ProtocolResult
from repro.core.server import Server
from repro.dyadic.intervals import decompose_prefix
from repro.protocols.sketch_layer import SIGNS, BooleanDyadicStream
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
]


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
        # emission) is the Boolean dyadic stream; this session's only job is
        # routing the emissions into the prefix tree.
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
            noise = self._rng.choice(SIGNS, size=members.size)
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
        enforce_k_changes: bool = True,
    ) -> None:
        super().__init__(
            params,
            rng,
            c_gap=c_gap,
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
