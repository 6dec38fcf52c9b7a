"""Adapters: every driver and baseline behind the unified protocol interface.

Each adapter binds one mechanism to :class:`LongitudinalProtocol`:
``prepare`` returns the mechanism's streaming session, ``run`` delegates to
the existing vectorized one-shot driver (the two share randomizer kernels,
so their outputs are identically distributed), and the class attributes
advertise capabilities for registry filtering.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.bun_composed import BunComposedFamily
from repro.baselines.central import run_central_tree
from repro.baselines.erlingsson import run_erlingsson
from repro.baselines.memoization import run_memoization
from repro.baselines.naive import run_naive_split, run_naive_unsplit
from repro.baselines.offline_tree import run_offline_tree
from repro.core.annulus import AnnulusLaw
from repro.core.basic_randomizer import basic_c_gap
from repro.core.future_rand import FutureRandFamily
from repro.core.interfaces import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.protocols.base import LongitudinalProtocol, ProtocolSession
from repro.protocols.sessions import (
    BufferedOfflineSession,
    CategoricalStreamingSession,
    CentralTreeStreamingSession,
    ErlingssonStreamingSession,
    HashedFrequencyStreamingSession,
    HeavyHittersStreamingSession,
    HierarchicalStreamingSession,
    MemoizationSession,
    ObjectStreamingSession,
    RepeatedRRSession,
    SketchMedianStreamingSession,
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
    "CategoricalItemProtocol",
    "HashedFrequencyItemProtocol",
    "SketchMedianProtocol",
    "HeavyHittersProtocol",
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

    def run(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> ProtocolResult:
        return run_erlingsson(states, params, rng)


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

    def run(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> ProtocolResult:
        return run_naive_split(states, params, rng)


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

    def run(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> ProtocolResult:
        return run_naive_unsplit(states, params, rng)


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

    def run(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> ProtocolResult:
        return run_memoization(states, params, rng)


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
        return BufferedOfflineSession(params, run_offline_tree, "offline_tree", rng)

    def run(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> ProtocolResult:
        return run_offline_tree(states, params, rng)


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

    def run(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> ProtocolResult:
        return run_central_tree(states, params, rng)


class _ItemDomainProtocol(LongitudinalProtocol):
    """Shared base for the item-domain (sketch-layer) protocols.

    These mechanisms track a population holding *items* from ``[0,
    domain_size)``: each user reduces their item to one Boolean coordinate
    (one-hot slice, hashed sign, or sketch bucket) and runs the paper's
    hierarchical Boolean mechanism on that coordinate stream — so each of
    them is a single run of the eps-LDP binary protocol per user, and the
    sequence-LDP guarantee carries over unchanged.

    The one real deviation from the Boolean adapters: an item changing
    ``k`` times induces up to ``k + 1`` coordinate flips (the move away
    *and* the move onto a tracked value both flip a Boolean view), so the
    deployed binary family spends a ``min(k + 1, d)`` sparsity budget.

    Instances carry a ``domain_size`` knob (the registry singleton uses
    :attr:`default_domain_size`); :meth:`with_domain_size` clones the
    protocol at another domain size for huge-domain runs.
    """

    privacy_model = "local"
    online = True
    sequence_ldp = True
    supports_chunk_size = True
    supports_kernel = True
    communication_key = "future_rand"
    #: Domain size of the shared registry singleton; ``with_domain_size``
    #: re-targets an instance at any other ``m >= 2``.
    default_domain_size = 16

    def __init__(self, domain_size: Optional[int] = None) -> None:
        size = self.default_domain_size if domain_size is None else int(domain_size)
        if size < 2:
            raise ValueError(f"domain_size must be at least 2, got {size}")
        self.domain_size: Optional[int] = size

    def with_domain_size(self, domain_size: int) -> "_ItemDomainProtocol":
        """Return a copy of this protocol targeting ``[0, domain_size)``."""
        return type(self)(domain_size)

    def binary_family(self, params: ProtocolParams) -> RandomizerFamily:
        """The Boolean family each user's coordinate stream deploys.

        Budget ``min(k + 1, d)``: ``k`` item changes flip any fixed Boolean
        view of the item at most ``k + 1`` times (the initial item is free,
        but a flip onto *and* off a tracked value each count), capped by the
        horizon itself.
        """
        return FutureRandFamily(min(params.k + 1, params.d), params.epsilon)

    def c_gap(self, params: ProtocolParams) -> float:
        return self.binary_family(params).c_gap

    def run(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> ProtocolResult:
        matrix = np.vstack(list(states)) if not hasattr(states, "ndim") else states
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"states must be 2-D (n, d), got shape {matrix.shape}")
        if matrix.shape != (params.n, params.d):
            raise ValueError(
                f"states shape {matrix.shape} disagrees with params "
                f"(n={params.n}, d={params.d})"
            )
        session = self.prepare(params, rng, chunk_size=chunk_size, kernel=kernel)
        for t in range(1, params.d + 1):
            session.ingest(t, matrix[:, t - 1])
        return session.result()


class CategoricalItemProtocol(_ItemDomainProtocol):
    """Exact per-item tracking via uniformly sampled one-hot coordinates."""

    name = "categorical"
    description = (
        "Item-domain tracking via sampled one-hot coordinates; unbiased "
        "per-item counts at x m estimator inflation."
    )

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> ProtocolSession:
        return CategoricalStreamingSession(
            params,
            self.domain_size,
            self.binary_family(params),
            rng,
            chunk_size=chunk_size,
            kernel=kernel,
        )


class HashedFrequencyItemProtocol(_ItemDomainProtocol):
    """Random-sign hashing: every item estimable, variance ~ n not ~ n*m."""

    name = "hashed_frequency"
    description = (
        "Item-domain tracking via random +-1 hashing of items; constant-"
        "factor estimator inflation, cross-item hash noise."
    )

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> ProtocolSession:
        return HashedFrequencyStreamingSession(
            params,
            self.domain_size,
            self.binary_family(params),
            rng,
            chunk_size=chunk_size,
            kernel=kernel,
        )


class SketchMedianProtocol(_ItemDomainProtocol):
    """Median over independent hashed-frequency cohorts (outlier robustness)."""

    name = "sketch_median"
    description = (
        "Median-of-cohorts hashed frequency sketch; robust to per-cohort "
        "hash collisions at x repetitions user cost."
    )

    def __init__(
        self, domain_size: Optional[int] = None, repetitions: int = 3
    ) -> None:
        super().__init__(domain_size)
        if repetitions < 1 or repetitions % 2 == 0:
            raise ValueError(
                f"repetitions must be odd and positive, got {repetitions}"
            )
        self.repetitions = int(repetitions)

    def with_domain_size(self, domain_size: int) -> "SketchMedianProtocol":
        return type(self)(domain_size, self.repetitions)

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> ProtocolSession:
        return SketchMedianStreamingSession(
            params,
            self.domain_size,
            self.binary_family(params),
            self.repetitions,
            rng,
            chunk_size=chunk_size,
            kernel=kernel,
        )


class HeavyHittersProtocol(_ItemDomainProtocol):
    """Succinct-histogram heavy hitters: count-sketch buckets + bit channels.

    The Bassily-Smith reduction on top of the longitudinal mechanism: users
    split across ``repetitions x (bit_length + 1)`` groups, each group runs
    one hashed-frequency oracle over a small bucket domain (``width`` or
    ``2 * width`` cells), and top-r items are decoded bit-by-bit from the
    noisy sketches — memory and decode cost scale with ``width * log2 m``,
    never with the item domain ``m``, which is what makes ``m ~ 2^20``
    viable inside the 1 GB discipline.
    """

    name = "heavy_hitters"
    description = (
        "Bassily-Smith style succinct histogram over the longitudinal "
        "mechanism; decodes top-r items from noisy count sketches without "
        "materializing the item domain."
    )
    default_domain_size = 1024

    def __init__(
        self,
        domain_size: Optional[int] = None,
        *,
        width: int = 64,
        repetitions: int = 3,
        top_r: int = 8,
    ) -> None:
        super().__init__(domain_size)
        self.width = int(width)
        self.repetitions = int(repetitions)
        self.top_r = int(top_r)

    def with_domain_size(self, domain_size: int) -> "HeavyHittersProtocol":
        return type(self)(
            domain_size,
            width=self.width,
            repetitions=self.repetitions,
            top_r=self.top_r,
        )

    def prepare(
        self,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
        *,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> ProtocolSession:
        return HeavyHittersStreamingSession(
            params,
            self.domain_size,
            self.binary_family(params),
            rng,
            width=self.width,
            repetitions=self.repetitions,
            top_r=self.top_r,
            chunk_size=chunk_size,
            kernel=kernel,
        )
