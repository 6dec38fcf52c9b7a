"""The benchmark's workloads: fixed shapes, seeded inputs, pinned outputs.

Each workload loads a different layer of ``repro.sim.service.run_service``,
so that a change to one layer moves one workload and leaves the others
unchanged:

* ``population`` -- clients sample and randomize their own blocks in the
  process pool; ``Population.sample`` and the FutureRand kernel dominate.
* ``fan-in`` -- a pre-sampled matrix cut into many small shards; message
  build, traffic scheduling, the asyncio queue and
  ``Server.receive_aggregate`` dominate.
* ``durable`` -- a pre-sampled matrix served with a write-ahead journal and
  a snapshot every 8 periods; ``ServiceJournal.append`` and
  ``IngestionService.snapshot_state`` dominate.

The load is closed loop: period ``t + 1`` opens only after ``a_hat[t]`` is
released, so a release interval is the service time of one period.

``fan-in`` is defined and runnable (``--workload fan-in``, traced too) but
not listed in ``BENCHMARK.json``: its object-heavy fold is the path most
sensitive to other tenants on a shared host, and its run-to-run spread
(15-27 % over ten runs) came too close to the 0.25 bound to gate on.  The
fold layer it targets is still traced on ``durable``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from repro.core.params import ProtocolParams
from repro.workloads.generators import BoundedChangePopulation

#: The seed whose released estimates are pinned in ``PINNED_DIGESTS``.
DEFAULT_SEED = 0

#: Every workload uses the paper's default privacy budget.
EPSILON = 1.0


@dataclass(frozen=True)
class Workload:
    """One fixed ``run_service`` configuration.

    ``presampled`` workloads draw their ``(n, d)`` states matrix during
    set-up; the others hand ``run_service`` the population object, whose
    blocks the workers sample themselves.  ``snapshot_every`` is ``None``
    for a run without a journal.  ``targets`` names the per-layer metrics
    whose sum should exceed half of a traced pass's wall time.
    """

    name: str
    why: str
    n: int
    d: int
    k: int
    block_rows: int
    traffic: str
    workers: int
    presampled: bool
    snapshot_every: Optional[int]
    targets: tuple[str, ...]

    def params(self) -> ProtocolParams:
        return ProtocolParams(n=self.n, d=self.d, k=self.k, epsilon=EPSILON)

    def population(self) -> BoundedChangePopulation:
        return BoundedChangePopulation(self.d, self.k, exact_k=True)

    def describe(self) -> dict:
        body = asdict(self)
        del body["why"], body["targets"]
        body["epsilon"] = EPSILON
        body["journal"] = (
            "temporary directory inside the checkout"
            if self.snapshot_every is not None
            else None
        )
        return body


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="population",
            why=(
                "clients do the work: workers sample their own blocks and "
                "run the FutureRand kernel in the process pool"
            ),
            n=200_000,
            d=256,
            k=4,
            block_rows=8192,
            traffic="uniform",
            workers=2,
            presampled=False,
            snapshot_every=None,
            targets=("generators.sample_s", "kernel.randomize_s"),
        ),
        Workload(
            name="fan-in",
            why=(
                "many small shards move the work into message build, "
                "traffic scheduling, the asyncio queue and the server fold"
            ),
            n=16_384,
            d=1024,
            k=4,
            block_rows=256,
            traffic="soak",
            workers=1,
            presampled=True,
            snapshot_every=None,
            targets=("service.plan_s", "service.serve_s"),
        ),
        Workload(
            name="durable",
            why=(
                "the fan-in fold state written out: a journal append every "
                "period and a full snapshot every 8 periods"
            ),
            n=32_768,
            d=256,
            k=4,
            block_rows=1024,
            traffic="soak",
            workers=1,
            presampled=True,
            snapshot_every=8,
            targets=("journal.append_s", "journal.snapshot_s"),
        ),
    )
}

#: sha256 of the released estimates (little-endian float64) at DEFAULT_SEED.
#: The same-bits contract makes any change to these a failure.
PINNED_DIGESTS: dict[str, str] = {
    "population": "b97f9f3c226b1be47d2baee9fce386544a75535d0bd6301624922a5bf0fe1a50",
    "fan-in": "cc12489c4850e5ef5203fec288eca4d5accebd0d7c429fcf3a65db4f7e1ddec6",
    "durable": "b5ac2f3dc82991d943c13bc957f52b2c4cd3313bd1e83fc003509c7cd86d065b",
}


def seeds(seed: int) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """The input stream and the ``run_service`` root, both from ``seed``."""
    return (
        np.random.SeedSequence(seed, spawn_key=(0,)),
        np.random.SeedSequence(seed, spawn_key=(1,)),
    )


def make_inputs(workload: Workload, seed: int):
    """What ``run_service`` receives: a population or a sampled matrix."""
    population = workload.population()
    if not workload.presampled:
        return population
    input_seed, _ = seeds(seed)
    return population.sample(workload.n, np.random.default_rng(input_seed))


def estimates_digest(estimates: np.ndarray) -> str:
    """sha256 of a released-estimate vector, independent of host byte order."""
    return hashlib.sha256(
        np.ascontiguousarray(estimates, dtype="<f8").tobytes()
    ).hexdigest()
