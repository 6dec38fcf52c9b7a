"""repro — reproduction of "Randomize the Future" (Ohrimenko, Wirth & Wu, PODS 2022).

A production-quality implementation of the asymptotically optimal locally
private frequency-estimation protocol for longitudinal Boolean data, together
with every substrate and baseline needed to reproduce the paper's claims:

* the FutureRand randomizer (composed randomized response conditioned on an
  annulus, made online via pre-computation),
* the dyadic hierarchical aggregation framework (Algorithms 1 and 2),
* exact analysis tooling (privacy envelopes, ``c_gap``, error bounds),
* baselines (Erlingsson et al. 2020, naive repeated RR, memoization, Bun et
  al. composed randomizer, central-model tree mechanism, offline full tree),
* workload generators, a simulation engine and an experiment registry.

Quickstart — every mechanism is discoverable by name through the protocol
registry (:mod:`repro.protocols`), one-shot or streaming::

    import numpy as np
    from repro import ProtocolParams
    from repro.protocols import get_protocol
    from repro.workloads import BoundedChangePopulation

    params = ProtocolParams(n=10_000, d=256, k=4, epsilon=1.0)
    states = BoundedChangePopulation(params.d, params.k).sample(
        params.n, np.random.default_rng(0)
    )
    protocol = get_protocol("future_rand")       # or "erlingsson", ...
    result = protocol.run(states, params, np.random.default_rng(1))
    print(result.max_abs_error)

    session = protocol.prepare(params, np.random.default_rng(2))
    for t in range(1, params.d + 1):             # deployment shape: one
        session.ingest(t, states[:, t - 1])      # period at a time
    print(session.result().max_abs_error)
"""

from repro.core import (
    AnnulusLaw,
    Client,
    ComposedRandomizer,
    FutureRand,
    FutureRandFamily,
    ProtocolParams,
    ProtocolResult,
    RandomizerFamily,
    Report,
    Server,
    run_batch,
)

__version__ = "1.0.0"

__all__ = [
    "AnnulusLaw",
    "Client",
    "ComposedRandomizer",
    "FutureRand",
    "FutureRandFamily",
    "ProtocolParams",
    "ProtocolResult",
    "RandomizerFamily",
    "Report",
    "Server",
    "run_batch",
    "__version__",
]
