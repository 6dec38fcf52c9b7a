"""The unified protocol surface: interface + streaming session contract.

Every longitudinal frequency-estimation mechanism in this repository — the
FutureRand drivers, all paper baselines, the central-model reference — is
exposed through one interface, :class:`LongitudinalProtocol`, with two ways
to execute it:

* **one-shot**: :meth:`LongitudinalProtocol.run` takes the full ``(n, d)``
  population state matrix and returns a
  :class:`~repro.core.protocol.ProtocolResult` — the classic
  ``(states, params, rng)`` runner signature every driver and baseline has
  always shared (protocol instances are themselves valid
  :class:`~repro.sim.runner.ProtocolRunner` callables);
* **streaming**: :meth:`LongitudinalProtocol.prepare` returns a
  :class:`ProtocolSession` which is fed one period's population column at a
  time via :meth:`ProtocolSession.ingest` and queried with
  :meth:`ProtocolSession.estimates` — the deployment shape, where period
  ``t``'s data does not exist before period ``t``.

Protocols advertise capabilities as class attributes (``online``,
``privacy_model``, ``sequence_ldp``) so consumers can filter the registry:
*online* protocols release ``a_hat[t]`` the moment period ``t`` closes, while
*offline* protocols (e.g. the full-tree comparator) buffer the horizon and
only answer once every period has been ingested — their sessions raise
:class:`EstimatesNotReady` before then.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Optional

import numpy as np

from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.core.vectorized import _check_binary_entries
from repro.utils.rng import as_generator

__all__ = [
    "EstimatesNotReady",
    "LongitudinalProtocol",
    "ProtocolSession",
]


class EstimatesNotReady(RuntimeError):
    """Raised when an offline session is queried before the horizon elapsed."""


class ProtocolSession(abc.ABC):
    """One streaming execution of a protocol over its ``d``-period horizon.

    The session owns all per-user state (pre-drawn randomness, boundary
    states, the server's dyadic tree, ...).  Drive it with ``ingest(t,
    values)`` for ``t = 1..d`` in order, where ``values`` is the ``(n,)``
    Boolean column of the population at period ``t``; read the released
    estimates with :meth:`estimates` and the final
    :class:`~repro.core.protocol.ProtocolResult` with :meth:`result`.

    Ground truth is accumulated internally for evaluation only — the
    simulated server never sees it.
    """

    def __init__(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        c_gap: float,
        family_name: str,
        enforce_k_changes: bool = True,
    ) -> None:
        self._params = params
        self._rng = as_generator(rng)
        self._c_gap = float(c_gap)
        self._family_name = str(family_name)
        self._period = 0
        self._true_counts = np.zeros(params.d, dtype=np.float64)
        # Online sessions append one released estimate per ingested period;
        # the default estimates() serves them.  Offline sessions override.
        self._released: list[float] = []
        self._enforce_k_changes = bool(enforce_k_changes)
        self._previous_values = np.zeros(params.n, dtype=np.int8)
        self._change_counts = np.zeros(params.n, dtype=np.int64)

    @property
    def params(self) -> ProtocolParams:
        """The problem parameters this session was prepared for."""
        return self._params

    @property
    def period(self) -> int:
        """The latest period ingested (0 before any data arrived)."""
        return self._period

    @property
    def horizon(self) -> int:
        """The time horizon ``d``."""
        return self._params.d

    @property
    def complete(self) -> bool:
        """Whether every period of the horizon has been ingested."""
        return self._period == self._params.d

    @property
    def c_gap(self) -> float:
        """The debiasing gap constant of the deployed randomizer."""
        return self._c_gap

    @property
    def family_name(self) -> str:
        """Mechanism name stamped on the final :class:`ProtocolResult`."""
        return self._family_name

    def ingest(self, period: int, values: np.ndarray) -> int:
        """Feed period ``period``'s population column; return reports delivered.

        ``period`` must advance one at a time from 1 to ``d`` (the online
        clock cannot skip or rewind); ``values`` is the length-``n`` Boolean
        vector of every user's state at that period.
        """
        if period != self._period + 1:
            raise ValueError(
                f"periods must be ingested in order; expected {self._period + 1}, "
                f"got {period}"
            )
        if period > self._params.d:
            raise ValueError(f"the horizon d={self._params.d} has already elapsed")
        column = np.asarray(values)
        if column.shape != (self._params.n,):
            raise ValueError(
                f"values must have shape ({self._params.n},), got {column.shape}"
            )
        try:
            _check_binary_entries(column)
        except ValueError:
            raise ValueError("values entries must all be 0 or 1") from None
        column = column.astype(np.int8)
        if self._enforce_k_changes:
            # A switch away from the implicit st_u[0]=0 start counts (the
            # paper's convention).
            self._change_counts += column != self._previous_values
            if (self._change_counts > self._params.k).any():
                worst = int(self._change_counts.max())
                raise ValueError(
                    f"a user changed {worst} times, exceeding k={self._params.k}"
                )
        self._previous_values = column
        self._period = period
        self._true_counts[period - 1] = float(column.sum())
        return self._ingest(column)

    @abc.abstractmethod
    def _ingest(self, values: np.ndarray) -> int:
        """Protocol-specific ingestion of one validated ``(n,)`` int8 column.

        ``self._period`` is already advanced to the period being ingested.
        Returns the number of reports delivered to the aggregator this period
        (0 for protocols that buffer and report later).
        """

    def estimates(self) -> np.ndarray:
        """Return the estimates released so far, ``a_hat[1..period]``.

        Online protocols answer after every ingested period (the default
        implementation returns what ``_ingest`` appended to
        ``self._released``); offline protocols override this to raise
        :class:`EstimatesNotReady` until the horizon has elapsed, then
        return all ``d`` estimates.
        """
        return np.array(self._released, dtype=np.float64)

    def _debiased_count(self, sign_sum: float) -> float:
        """Invert ``E[w] = c_gap * (2 st - 1)``: count-of-ones from a sign sum.

        The shared estimator of every randomized-response-style session:
        ``a_hat = (sum_u w_u / c_gap + n) / 2``.
        """
        return (sign_sum / self._c_gap + self._params.n) / 2.0

    def result(self) -> ProtocolResult:
        """Return the final :class:`ProtocolResult` (requires a full horizon)."""
        if not self.complete:
            raise EstimatesNotReady(
                f"only {self._period} of {self._params.d} periods ingested; "
                "the result requires the full horizon"
            )
        estimates = np.asarray(self.estimates(), dtype=np.float64)
        return ProtocolResult(
            estimates=estimates,
            true_counts=self._true_counts.copy(),
            c_gap=self._c_gap,
            family_name=self._family_name,
            orders=self._orders_for_result(),
        )

    def _orders_for_result(self) -> Optional[np.ndarray]:
        """Per-user dyadic orders, for protocols that sample them."""
        return None


class LongitudinalProtocol(abc.ABC):
    """One longitudinal frequency-estimation mechanism, capability-tagged.

    Subclasses are stateless factories: all execution state lives in the
    :class:`ProtocolSession` returned by :meth:`prepare` (or inside one
    :meth:`run` call).  Instances are therefore safe to share — the registry
    holds singletons.

    Class attributes
    ----------------
    name:
        Stable registry key (``repro.protocols.get_protocol(name)``).
    privacy_model:
        ``"local"`` (no trusted curator) or ``"central"`` (trusted curator).
    online:
        Whether ``a_hat[t]`` is released the moment period ``t`` closes.
    sequence_ldp:
        Whether the mechanism is end-to-end ``epsilon``-DP for the *entire
        longitudinal sequence* — the paper's privacy standard.  False flags
        the cautionary baselines (memoization leaks change times; unsplit
        repetition composes to ``d * epsilon``).
    """

    name: ClassVar[str] = "abstract"
    privacy_model: ClassVar[str] = "local"
    online: ClassVar[bool] = True
    sequence_ldp: ClassVar[bool] = True
    description: ClassVar[str] = ""
    #: Whether ``run`` accepts ``chunk_size`` (the memory-bounded chunked
    #: mode of :mod:`repro.core.vectorized`).  True on the
    #: batch-engine-backed hierarchical adapters.
    supports_chunk_size: ClassVar[bool] = False
    #: Whether ``run``/``prepare`` accept ``kernel`` (randomizer backend
    #: selection, :mod:`repro.kernels`).  True on the composed-randomizer
    #: adapters whose hot path goes through ``randomize_matrix``.
    supports_kernel: ClassVar[bool] = False

    @abc.abstractmethod
    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
    ) -> ProtocolSession:
        """Set up a streaming session (pre-draw randomness, spawn state).

        Every local mechanism's noise is data-independent, so sessions draw
        it here, before any data exists.  What a session then holds depends
        on the mechanism:

        * the hierarchical sessions hold O(n k): orders, ``b~`` and boundary
          states;
        * repeated RR holds every coin, ``n * d`` bools (the coins are drawn
          in row tiles, so no ``(n, d)`` float64 array ever exists);
        * Erlingsson et al. hold each order group's flips and signs, about
          ``4 n d / (1 + log2 d)`` bytes;
        * memoization holds two answers per user, the central tree one
          noise value per dyadic node, and the offline tree buffers the
          ``(n, d)`` int8 horizon.

        ``chunk_size`` is advisory: sessions that pre-draw per-user noise in
        one bulk call use it to bound the transient working set of that draw;
        sessions with nothing to chunk ignore it.
        """

    @abc.abstractmethod
    def c_gap(self, params: ProtocolParams) -> float:
        """The exact debiasing gap the mechanism achieves at these parameters.

        The central-model reference reports 1.0 (no local randomization to
        invert).
        """

    def expected_report_bits(self, params: ProtocolParams) -> float:
        """Expected total bits one user sends across the horizon."""
        from repro.analysis.communication import expected_report_bits

        return expected_report_bits(params, self.communication_key)

    #: Key into :func:`repro.analysis.communication.expected_report_bits`.
    communication_key: ClassVar[str] = "future_rand"

    def run(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> ProtocolResult:
        """Execute the protocol on a full ``(n, d)`` state matrix.

        Drives the streaming session :meth:`prepare` returns, period by
        period, over one contiguous copy of the matrix's columns.  Every
        protocol whose noise is drawn at preparation runs this way, so its
        session is its only implementation; the composed-randomizer adapters
        override it with the batch engine (same output distribution, shared
        randomizer kernels).
        """
        matrix = np.asarray(states)
        if matrix.ndim != 2:
            raise ValueError(f"states must be 2-D (n, d), got shape {matrix.shape}")
        if matrix.shape != (params.n, params.d):
            raise ValueError(
                f"states shape {matrix.shape} disagrees with params "
                f"(n={params.n}, d={params.d})"
            )
        session = self.prepare(params, rng)
        for t, column in enumerate(np.ascontiguousarray(matrix.T), start=1):
            session.ingest(t, column)
        return session.result()

    def __call__(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> ProtocolResult:
        """Protocol instances are valid :class:`ProtocolRunner` callables."""
        return self.run(states, params, rng)

    def capabilities(self) -> dict[str, object]:
        """Metadata dict (the ``repro protocols`` CLI listing row)."""
        return {
            "name": self.name,
            "privacy_model": self.privacy_model,
            "online": self.online,
            "sequence_ldp": self.sequence_ldp,
            "description": self.description,
            "supports_chunk_size": self.supports_chunk_size,
            "supports_kernel": self.supports_kernel,
        }
