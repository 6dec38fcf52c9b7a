"""Adapters: every mechanism behind the unified protocol interface.

Each adapter binds one mechanism to :class:`LongitudinalProtocol`:
``prepare`` returns the mechanism's streaming session, and the class
attributes advertise capabilities for registry filtering.  ``run`` is the
inherited stream over that session, so the session is the mechanism's one
implementation and one seed gives the same bits either way.  The exception
is the composed-randomizer pair (``future_rand``, ``bun_composed``), whose
``run`` is the batch engine: it shares their randomizer kernels but draws in
a different order, so the two paths agree in distribution only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.bun_composed import BunComposedFamily
from repro.baselines.offline_tree import run_offline_tree
from repro.core.annulus import AnnulusLaw
from repro.core.basic_randomizer import basic_c_gap
from repro.core.future_rand import FutureRandFamily, RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.protocols.base import LongitudinalProtocol, ProtocolSession
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
    "FutureRandProtocol",
    "FutureRandObjectProtocol",
    "BunComposedProtocol",
    "ErlingssonProtocol",
    "NaiveSplitProtocol",
    "NaiveUnsplitProtocol",
    "MemoizationProtocol",
    "OfflineTreeProtocol",
    "CentralTreeProtocol",
]


class _ComposedFamilyProtocol(LongitudinalProtocol):
    """Shared base for the hierarchical composed-randomizer mechanisms."""

    supports_chunk_size = True
    supports_kernel = True

    def family(self, params: ProtocolParams) -> RandomizerFamily:
        """The randomizer family deployed client-side at these parameters."""
        raise NotImplementedError

    def c_gap(self, params: ProtocolParams) -> float:
        return self.family(params).c_gap

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> ProtocolSession:
        return HierarchicalStreamingSession(
            params, self.family(params), rng, chunk_size=chunk_size, kernel=kernel
        )

    def run(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> ProtocolResult:
        # Imported here: repro.sim.batch_engine is a consumer-layer module
        # and protocol adapters are imported during repro.sim package init.
        from repro.sim.batch_engine import run_batch_engine

        return run_batch_engine(
            states,
            params,
            rng,
            family=self.family(params),
            chunk_size=chunk_size,
            kernel=kernel,
        )


class FutureRandProtocol(_ComposedFamilyProtocol):
    """The paper's protocol, batch-engine backed (the production fast path)."""

    name = "future_rand"
    privacy_model = "local"
    online = True
    sequence_ldp = True
    communication_key = "future_rand"
    description = (
        "FutureRand (Alg. 3) over the dyadic framework; error "
        "O(sqrt(nk) polylog d / eps)."
    )

    def family(self, params: ProtocolParams) -> RandomizerFamily:
        return FutureRandFamily(params.k, params.epsilon)


class FutureRandObjectProtocol(FutureRandProtocol):
    """FutureRand through per-user Client objects (deployment-shaped).

    Statistically identical to :class:`FutureRandProtocol`; use it to
    exercise per-report server ingestion, registration and duplicate
    bookkeeping at small scale.
    """

    name = "future_rand_object"
    supports_chunk_size = False  # per-user Client objects; nothing to chunk
    supports_kernel = False  # per-user objects go through spawn(), not kernels
    description = (
        "FutureRand via one Client state machine per user; the faithful "
        "O(n*d) reference driver."
    )

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
    ) -> ProtocolSession:
        return ObjectStreamingSession(params, self.family(params), rng)

    # One-shot runs stream the object session (not the batch engine).
    run = LongitudinalProtocol.run


class BunComposedProtocol(_ComposedFamilyProtocol):
    """Bun et al.'s composed randomizer in the same dyadic framework."""

    name = "bun_composed"
    privacy_model = "local"
    online = True  # online via FutureRand's pre-computation wrapper
    sequence_ldp = True
    communication_key = "bun_composed"
    description = (
        "Bun-Nelson-Stemmer randomizer (Alg. 4); loses a sqrt(log) gap "
        "factor vs FutureRand (Thm. A.8)."
    )

    def family(self, params: ProtocolParams) -> RandomizerFamily:
        return BunComposedFamily(params.k, params.epsilon)


class ErlingssonProtocol(LongitudinalProtocol):
    """Erlingsson et al. (2020): derivative-slot sampling, error linear in k."""

    name = "erlingsson"
    privacy_model = "local"
    online = True
    sequence_ldp = True
    communication_key = "erlingsson2020"
    description = (
        "Erlingsson et al. 2020 online protocol; basic randomizer at eps/2, "
        "x k estimator inflation."
    )

    def c_gap(self, params: ProtocolParams) -> float:
        return basic_c_gap(params.epsilon / 2.0)

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
    ) -> ProtocolSession:
        return ErlingssonStreamingSession(params, rng)


class NaiveSplitProtocol(LongitudinalProtocol):
    """Repeated RR with per-period budget ``eps/d`` (the Section 1 strawman)."""

    name = "naive_split"
    privacy_model = "local"
    online = True
    sequence_ldp = True
    communication_key = "naive_rr_split"
    description = (
        "Repeated randomized response at eps/d per period; eps-LDP overall, "
        "error linear in d."
    )

    def c_gap(self, params: ProtocolParams) -> float:
        return basic_c_gap(params.epsilon / params.d)

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
    ) -> ProtocolSession:
        return RepeatedRRSession(
            params, params.epsilon / params.d, "naive_rr_split", rng
        )


class NaiveUnsplitProtocol(LongitudinalProtocol):
    """Repeated RR spending the full ``eps`` per period — NOT eps-LDP."""

    name = "naive_unsplit"
    privacy_model = "local"
    online = True
    sequence_ldp = False  # composes to d * epsilon end-to-end
    communication_key = "naive_rr_unsplit"
    description = (
        "Repeated randomized response at full eps per period; accurate but "
        "spends d*eps privacy budget."
    )

    def c_gap(self, params: ProtocolParams) -> float:
        return basic_c_gap(params.epsilon)

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
    ) -> ProtocolSession:
        return RepeatedRRSession(
            params, params.epsilon, "naive_rr_unsplit", rng
        )


class MemoizationProtocol(LongitudinalProtocol):
    """RAPPOR-style permanent RR — leaks change times (cautionary baseline)."""

    name = "memoization"
    privacy_model = "local"
    online = True
    sequence_ldp = False  # report stream switches exactly when the value does
    communication_key = "memoization"
    description = (
        "Permanent randomized response; near-unsplit accuracy but change "
        "times leak with certainty."
    )

    def c_gap(self, params: ProtocolParams) -> float:
        return basic_c_gap(params.epsilon)

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
    ) -> ProtocolSession:
        return MemoizationSession(params, rng)


class OfflineTreeProtocol(LongitudinalProtocol):
    """Offline full-tree comparator (Zhou et al. 2021 error shape)."""

    name = "offline_tree"
    privacy_model = "local"
    online = False  # the randomizer's sparsity budget spans the whole horizon
    sequence_ldp = True
    communication_key = "offline_tree"
    description = (
        "One-shot full dyadic tree per user; offline (nothing released "
        "before the horizon closes)."
    )

    def c_gap(self, params: ProtocolParams) -> float:
        tree_sparsity = params.k * params.num_orders
        return AnnulusLaw.for_future_rand(tree_sparsity, params.epsilon).c_gap

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
    ) -> ProtocolSession:
        return BufferedOfflineSession(
            params, run_offline_tree, "offline_tree", rng, c_gap=self.c_gap(params)
        )


class CentralTreeProtocol(LongitudinalProtocol):
    """Central-model binary mechanism — the trusted-curator reference."""

    name = "central_tree"
    privacy_model = "central"
    online = True  # continual-release form: nodes noised as intervals complete
    sequence_ldp = True  # user-level central DP (a trusted curator required)
    communication_key = "central_tree"
    description = (
        "Dwork/Chan binary mechanism with user-level Laplace noise; error "
        "independent of n."
    )

    def c_gap(self, params: ProtocolParams) -> float:
        return 1.0  # no local randomization to invert

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
    ) -> ProtocolSession:
        return CentralTreeStreamingSession(params, rng)
