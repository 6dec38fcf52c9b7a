"""Instrumented online event loop (deployment-shaped simulation).

``SimulationEngine`` plays the protocol with real :class:`Client` objects and
a real :class:`Server`, period by period — through the one object-form step,
:class:`~repro.protocols.sessions.ObjectStreamingSession` — invoking a
caller-supplied callback with a :class:`StepSnapshot` after every period: the
hook the examples use to print live dashboards, measure online error
trajectories, or inject faults (e.g. drop a fraction of reports to study
robustness).  :func:`replay_online` is the same period loop over precomputed
per-node reports, shared by both modes of
:class:`repro.sim.batch_engine.BatchSimulationEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.client import Report
from repro.core.future_rand import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult, default_family
from repro.core.server import Server
from repro.core.vectorized import validate_states
from repro.protocols.sessions import ObjectStreamingSession
from repro.utils.rng import as_generator

__all__ = ["OnlineEngineBase", "SimulationEngine", "StepSnapshot", "replay_online"]


@dataclass(frozen=True)
class StepSnapshot:
    """What the engine exposes after each period."""

    t: int
    estimate: float
    true_count: int
    reports_this_period: int


def replay_online(
    server: Server,
    node_reports: Callable[[int, int], tuple[float, int]],
    true_counts: np.ndarray,
    callback: Optional[Callable[[StepSnapshot], None]],
) -> np.ndarray:
    """Replay Algorithm 2's period loop over precomputed per-node reports.

    At each period ``t`` the server clock advances to ``t``, every dyadic
    node ``I_{h,j}`` closing at ``t = j * 2^h`` is folded in (orders
    ascending) with the ``(total, count)`` that ``node_reports(h, j)``
    returns, and ``a_hat[t]`` is released to ``callback`` as a
    :class:`StepSnapshot`.  Returns the released estimates.
    """
    d = len(true_counts)
    estimates = np.empty(d, dtype=np.float64)
    for t in range(1, d + 1):
        server.advance_to(t)
        delivered = 0
        for order in range(d.bit_length()):
            if t & ((1 << order) - 1):
                continue  # order-h nodes close only at multiples of 2^h
            total, count = node_reports(order, t >> order)
            delivered += server.receive_aggregate(order, t >> order, total, count)
        estimates[t - 1] = server.estimate(t)
        if callback is not None:
            callback(
                StepSnapshot(t, estimates[t - 1], int(true_counts[t - 1]), delivered)
            )
    return estimates


class OnlineEngineBase:
    """Shared construction and fault-model validation for the online engines.

    Subclasses (:class:`SimulationEngine` here, and
    :class:`repro.sim.batch_engine.BatchSimulationEngine`) provide ``run``;
    the constructor contract — params, family default, rng coercion,
    drop-rate validation — is deliberately identical so the engines stay
    drop-in replacements for each other.
    """

    def __init__(
        self,
        params: ProtocolParams,
        *,
        family: Optional[RandomizerFamily] = None,
        rng: Optional[np.random.Generator] = None,
        report_drop_rate: float = 0.0,
    ) -> None:
        self._params = params
        self._family = family if family is not None else default_family(params)
        self._rng = as_generator(rng)
        if not 0.0 <= report_drop_rate < 1.0:
            raise ValueError(
                f"report_drop_rate must be in [0, 1), got {report_drop_rate}"
            )
        self._drop_rate = float(report_drop_rate)


class SimulationEngine(OnlineEngineBase):
    """Online protocol simulation with per-period callbacks.

    >>> import numpy as np
    >>> from repro.workloads import BoundedChangePopulation
    >>> params = ProtocolParams(n=50, d=8, k=2, epsilon=1.0)
    >>> states = BoundedChangePopulation(8, 2).sample(50, np.random.default_rng(0))
    >>> engine = SimulationEngine(params, rng=np.random.default_rng(1))
    >>> result = engine.run(states)
    >>> result.estimates.shape
    (8,)
    """

    def run(
        self,
        states: np.ndarray,
        callback: Optional[Callable[[StepSnapshot], None]] = None,
    ) -> ProtocolResult:
        """Play the protocol over ``states``; invoke ``callback`` per period.

        With ``report_drop_rate > 0`` each report is independently lost with
        that probability (an unreliable-network fault model); the estimates
        become biased towards zero proportionally, quantifying the protocol's
        sensitivity to missing reports.  Invalid ``states`` raise before any
        period is played.
        """
        matrix = validate_states(states, self._params)
        session = _LossyObjectSession(
            self._params, self._family, self._rng, self._drop_rate
        )
        for t in range(1, matrix.shape[1] + 1):
            delivered = session.ingest(t, matrix[:, t - 1])
            if callback is not None:
                callback(
                    StepSnapshot(
                        t=t,
                        estimate=session.estimates()[-1],
                        true_count=int(matrix[:, t - 1].sum()),
                        reports_this_period=delivered,
                    )
                )
        return session.result()


class _LossyObjectSession(ObjectStreamingSession):
    """The object session with reports lost in transit at ``drop_rate``.

    Clients draw only from their own spawned streams, so filtering after
    emission takes the drop draws from the shared generator in the same
    order as an interleaved loop would: one per emitted report, in user
    order, and none at all when ``drop_rate`` is 0.
    """

    def __init__(
        self,
        params: ProtocolParams,
        family: RandomizerFamily,
        rng: np.random.Generator,
        drop_rate: float,
    ) -> None:
        super().__init__(params, family, rng)
        self._drop_rate = drop_rate

    def _delivered(self, reports: list[Report]) -> list[Report]:
        if not self._drop_rate:
            return reports
        return [report for report in reports if self._rng.random() >= self._drop_rate]
