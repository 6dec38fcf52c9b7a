"""repro.protocols — the one public surface for running any longitudinal
mechanism.

Every protocol this repository implements — the paper's FutureRand (batch
and object drivers), the Bun et al. randomizer, the Erlingsson et al.
protocol, the randomized-response and offline-tree baselines, and the
central-model reference — is exposed behind one interface with two
execution modes:

One-shot (the classic runner signature, now discoverable by name)::

    from repro.protocols import get_protocol
    result = get_protocol("future_rand").run(states, params, rng)

Streaming (deployment-shaped: one period at a time)::

    session = get_protocol("future_rand").prepare(params, rng)
    for t in range(1, params.d + 1):
        session.ingest(t, states[:, t - 1])      # this period's column
        print(t, session.estimates()[-1])        # released online
    result = session.result()

Discovery and capability filtering::

    from repro.protocols import PROTOCOLS, list_protocols
    sorted(PROTOCOLS)                            # every registered name
    list_protocols(online=True, privacy_model="local")

Consumers accept any :data:`ProtocolLike`: registry names
(``sweep(["future_rand", "erlingsson"], ...)``), protocol instances, or the
historical bare ``(states, params, rng)`` callables.  New mechanisms plug in
by subclassing :class:`LongitudinalProtocol` and registering — no consumer
changes needed.
"""

from repro.protocols.adapters import (
    BunComposedProtocol,
    CentralTreeProtocol,
    ErlingssonProtocol,
    FutureRandObjectProtocol,
    FutureRandProtocol,
    MemoizationProtocol,
    NaiveSplitProtocol,
    NaiveUnsplitProtocol,
    OfflineTreeProtocol,
)
from repro.protocols.base import (
    EstimatesNotReady,
    LongitudinalProtocol,
    ProtocolSession,
)
from repro.protocols.registry import (
    PROTOCOLS,
    ProtocolLike,
    get_protocol,
    list_protocols,
    resolve_runner,
)
from repro.protocols.sessions import (
    BufferedOfflineSession,
    CentralTreeStreamingSession,
    ErlingssonStreamingSession,
    HierarchicalStreamingSession,
    MemoizationSession,
    ObjectStreamingSession,
    RepeatedRRSession,
)

__all__ = [
    # interface
    "LongitudinalProtocol",
    "ProtocolSession",
    "EstimatesNotReady",
    # registry
    "PROTOCOLS",
    "ProtocolLike",
    "get_protocol",
    "list_protocols",
    "resolve_runner",
    # adapters
    "FutureRandProtocol",
    "FutureRandObjectProtocol",
    "BunComposedProtocol",
    "ErlingssonProtocol",
    "NaiveSplitProtocol",
    "NaiveUnsplitProtocol",
    "MemoizationProtocol",
    "OfflineTreeProtocol",
    "CentralTreeProtocol",
    # sessions
    "HierarchicalStreamingSession",
    "ObjectStreamingSession",
    "ErlingssonStreamingSession",
    "RepeatedRRSession",
    "MemoizationSession",
    "CentralTreeStreamingSession",
    "BufferedOfflineSession",
]
