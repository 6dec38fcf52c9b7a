"""Synthetic longitudinal workloads (the paper's motivating scenarios).

The paper evaluates no dataset (pure theory); its guarantees depend only on
``(n, d, k, epsilon, beta)`` and where users' changes fall.  These generators
produce Boolean populations with a controlled change budget, covering the
introduction's motivating applications (frequently-visited URLs, telemetry):

* :class:`BoundedChangePopulation` — i.i.d. users, change times uniform /
  early-biased / late-biased / bursty; the workhorse for parameter sweeps.
* :class:`TrendPopulation` — a global adoption curve (sigmoid/linear/spike)
  modulating per-user flip probabilities; produces non-stationary counts.
* :class:`PeriodicPopulation` — users toggling on a shared period with phase
  jitter (e.g. weekday/weekend behaviour).
* :class:`ChurnPopulation` — users arriving/departing mid-horizon with
  per-user activity masks (fleet turnover; absent users hold 0).
* :mod:`repro.workloads.scenarios` — named, documented scenario presets
  (URL tracking, telemetry fleet, churn, flash crowd) in the
  :data:`SCENARIOS` registry.
* :mod:`repro.workloads.traffic` — delivery-layer traffic models (arrival
  bursts, stragglers, retransmit duplicates, clock skew) in the
  :data:`TRAFFIC_MODELS` registry, consumed by the asyncio ingestion
  service (:mod:`repro.sim.service`).

Every generator also exposes ``sample_chunks(n, chunk_size, seed)``: an
out-of-core stream of user chunks whose concatenation is bit-identical for
any chunk size (fixed per-block seeding from a root ``SeedSequence``) — the
entry point of the memory-bounded chunked mode of
:func:`repro.core.vectorized.run_batch`.
"""

from repro.workloads.adversarial import (
    BoundaryPopulation,
    OscillationPopulation,
    SpikePopulation,
)
from repro.workloads.generators import (
    BoundedChangePopulation,
    ChurnPopulation,
    PeriodicPopulation,
    Population,
    TrendPopulation,
)
from repro.workloads.scenarios import (
    SCENARIOS,
    Scenario,
    churn_scenario,
    flash_crowd_scenario,
    telemetry_fleet_scenario,
    url_tracking_scenario,
)
from repro.workloads.traffic import TRAFFIC_MODELS, TrafficModel

__all__ = [
    "Population",
    "BoundedChangePopulation",
    "BoundaryPopulation",
    "ChurnPopulation",
    "OscillationPopulation",
    "PeriodicPopulation",
    "SpikePopulation",
    "TrendPopulation",
    "Scenario",
    "SCENARIOS",
    "TRAFFIC_MODELS",
    "TrafficModel",
    "churn_scenario",
    "flash_crowd_scenario",
    "telemetry_fleet_scenario",
    "url_tracking_scenario",
]
