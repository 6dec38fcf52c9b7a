"""Named scenario presets for the examples and experiment narratives.

Each scenario bundles a generated population with the story it models and the
protocol parameters a deployment would pick.  They correspond to the paper's
introduction: search-engine providers tracking popular URLs, and telemetry
platforms tracking feature flags (the Microsoft/Ding et al. use case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core.params import ProtocolParams
from repro.utils.rng import as_generator
from repro.workloads.generators import (
    BoundedChangePopulation,
    ChurnPopulation,
    TrendPopulation,
)
from repro.workloads.traffic import TrafficModel

if TYPE_CHECKING:  # runtime import would be cyclic at package-init time
    from repro.protocols import ProtocolLike

__all__ = [
    "Scenario",
    "SCENARIOS",
    "url_tracking_scenario",
    "telemetry_fleet_scenario",
    "churn_scenario",
    "flash_crowd_scenario",
]


@dataclass(frozen=True)
class Scenario:
    """A generated population plus its narrative and protocol parameters.

    ``traffic`` is the scenario's delivery model — a first-class knob next
    to the population itself: ``repro serve-sim --scenario`` plays the
    scenario through the asyncio ingestion service under that model (bursts,
    stragglers, retransmit duplicates, clock skew; see
    :mod:`repro.workloads.traffic`).  ``None`` means smooth fault-free
    delivery.
    """

    name: str
    description: str
    params: ProtocolParams
    states: np.ndarray
    traffic: Optional[TrafficModel] = None

    @property
    def true_counts(self) -> np.ndarray:
        """Ground-truth ``a[t]`` per period (evaluation only)."""
        return self.states.sum(axis=0)

    def run(
        self,
        rng: Optional[np.random.Generator] = None,
        *,
        protocol: Optional["ProtocolLike"] = None,
        report_drop_rate: float = 0.0,
        callback: Optional[Callable] = None,
    ):
        """Play the scenario through any registered protocol.

        ``protocol`` is a :mod:`repro.protocols` registry name or a
        :class:`~repro.protocols.LongitudinalProtocol` instance; ``None``
        (the default) selects ``"future_rand"`` through the batched online
        engine, exactly as before.  ``report_drop_rate`` injects the
        unreliable-network fault model (engine-backed FutureRand only);
        ``callback`` receives a :class:`repro.sim.engine.StepSnapshot` per
        period — for non-default protocols it is served by driving the
        protocol's streaming session, so it requires an online protocol.
        Returns a :class:`repro.core.protocol.ProtocolResult`.
        """
        # Imported here: repro.sim.runner imports repro.workloads, so a
        # module-level import would be cyclic at package-init time.
        from repro.protocols import resolve_runner
        from repro.sim.batch_engine import BatchSimulationEngine

        if protocol is None:
            name, runner = "future_rand", None
        else:
            name, runner = resolve_runner(protocol)
        if name == "future_rand":
            # Engine-backed fast path: the one surface with fault injection.
            engine = BatchSimulationEngine(
                self.params, rng=rng, report_drop_rate=report_drop_rate
            )
            return engine.run(self.states, callback)
        if report_drop_rate:
            raise ValueError(
                "report_drop_rate is only supported by the engine-backed "
                "future_rand protocol"
            )
        if callback is None:
            return runner(self.states, self.params, rng)
        return self._run_streaming(name, runner, rng, callback)

    def _run_streaming(self, name, runner, rng, callback):
        """Drive a protocol's streaming session, emitting per-period snapshots."""
        from repro.protocols import LongitudinalProtocol
        from repro.sim.engine import StepSnapshot

        if not isinstance(runner, LongitudinalProtocol) or not runner.online:
            raise ValueError(
                f"per-period callbacks require an online registered protocol; "
                f"{name!r} does not support them"
            )
        session = runner.prepare(self.params, rng)
        for t in range(1, self.params.d + 1):
            delivered = session.ingest(t, self.states[:, t - 1])
            callback(
                StepSnapshot(
                    t=t,
                    estimate=float(session.estimates()[-1]),
                    true_count=int(self.states[:, t - 1].sum()),
                    reports_this_period=delivered,
                )
            )
        return session.result()


def url_tracking_scenario(
    n: int = 20_000,
    d: int = 256,
    k: int = 6,
    epsilon: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> Scenario:
    """Users flagging whether a URL is in their frequently-visited list.

    A user's list "changes little every day" (Section 1): membership of a
    given URL toggles rarely and at unpredictable times — modelled as a
    uniform bounded-change population with a minority of initial members.
    """
    rng = as_generator(rng)
    params = ProtocolParams(n=n, d=d, k=k, epsilon=epsilon)
    population = BoundedChangePopulation(d, k, mode="uniform", start_prob=0.2)
    states = population.sample(n, rng)
    return Scenario(
        name="url_tracking",
        description=(
            "Does each user's frequently-visited list contain the tracked URL? "
            "Membership toggles rarely; the server monitors the URL's "
            "popularity every period."
        ),
        params=params,
        states=states,
    )


def telemetry_fleet_scenario(
    n: int = 20_000,
    d: int = 256,
    k: int = 4,
    epsilon: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> Scenario:
    """Devices reporting whether a feature flag is enabled, under an adoption ramp.

    Models continuous telemetry collection (Ding et al. 2017): the population
    adopts the feature along a sigmoid ramp, each device re-evaluating at most
    ``k`` times — a non-stationary count that one-shot protocols cannot track.
    """
    rng = as_generator(rng)
    params = ProtocolParams(n=n, d=d, k=k, epsilon=epsilon)
    population = TrendPopulation(d, k, curve="sigmoid")
    states = population.sample(n, rng)
    return Scenario(
        name="telemetry_fleet",
        description=(
            "Is the feature flag enabled on each device? Adoption follows a "
            "sigmoid ramp; the server monitors fleet-wide enablement."
        ),
        params=params,
        states=states,
    )


def churn_scenario(
    n: int = 20_000,
    d: int = 256,
    k: int = 6,
    epsilon: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> Scenario:
    """A churning fleet: users arrive and depart mid-horizon.

    Devices enroll at random times and retire after a geometric lifetime; an
    absent device holds value 0 (per-user activity masks, see
    :class:`~repro.workloads.generators.ChurnPopulation`).  The tracked count
    therefore rises and falls with fleet composition, not just with value
    changes — the population-turnover stress case missing from the stationary
    scenarios.
    """
    rng = as_generator(rng)
    params = ProtocolParams(n=n, d=d, k=k, epsilon=epsilon)
    population = ChurnPopulation(d, k)
    states = population.sample(n, rng)
    return Scenario(
        name="churn",
        description=(
            "Devices enroll and retire mid-horizon; an absent device "
            "contributes 0. The server monitors a count driven by fleet "
            "turnover as much as by value changes."
        ),
        params=params,
        states=states,
    )


def flash_crowd_scenario(
    n: int = 20_000,
    d: int = 256,
    k: int = 4,
    epsilon: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> Scenario:
    """A viral adoption spike hammering the ingestion tier.

    The population adopts along a spike curve (everyone piles in inside a
    short window), and the *delivery layer* misbehaves exactly when load
    peaks: arrivals clump into bursts, stragglers deliver periods late,
    lost acks trigger retransmit duplicates, and skewed client clocks
    submit reports before their interval closes.  This is the traffic-model
    stress case the batch engines cannot express — play it with
    :meth:`Scenario.serve`, which routes it through the asyncio ingestion
    service (:func:`Scenario.run` still works and simply ignores the
    delivery faults).
    """
    rng = as_generator(rng)
    params = ProtocolParams(n=n, d=d, k=k, epsilon=epsilon)
    population = TrendPopulation(d, k, curve="spike")
    states = population.sample(n, rng)
    return Scenario(
        name="flash_crowd",
        description=(
            "A spike-curve adoption wave arrives through a misbehaving "
            "delivery layer: bursty arrivals, 5% stragglers, 1% retransmit "
            "duplicates, and bounded clock skew. Stresses the ingestion "
            "service, not just the estimator."
        ),
        params=params,
        states=states,
        traffic=TrafficModel(
            name="flash_crowd",
            burst_factor=16.0,
            late_rate=0.05,
            duplicate_rate=0.01,
            max_lateness=8,
            max_skew=2,
        ),
    )


#: Named scenario presets, one factory per workload family — the registry the
#: docs and examples enumerate.  Every factory shares the
#: ``(n, d, k, epsilon, rng) -> Scenario`` signature.
SCENARIOS = {
    "url_tracking": url_tracking_scenario,
    "telemetry_fleet": telemetry_fleet_scenario,
    "churn": churn_scenario,
    "flash_crowd": flash_crowd_scenario,
}
