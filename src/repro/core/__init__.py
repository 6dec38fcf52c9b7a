"""The paper's primary contribution: FutureRand and the longitudinal protocol.

Layering (bottom-up):

* :mod:`repro.core.basic_randomizer` — Warner's randomized response ``R`` (Eq. 14).
* :mod:`repro.core.annulus` — the exact output law of the composed randomizer
  (annulus bounds, ``g``, ``P*_out``, privacy envelope, ``c_gap``).
* :mod:`repro.core.composed_randomizer` — the ``R~`` sampler (Algorithm 3).
* :mod:`repro.core.future_rand` — the online randomizer ``M`` with the
  pre-computation trick (``b~ = R~(1^k)``).
* :mod:`repro.core.simple_randomizer` — Example 4.2's independent randomizer.
* :mod:`repro.core.client` / :mod:`repro.core.server` — Algorithms 1 and 2.
* :mod:`repro.core.protocol` — the result types every driver returns.
* :mod:`repro.core.vectorized` — the batch/vectorized end-to-end driver (the
  per-user object reference is the ``future_rand_object`` registry entry).
"""

from repro.core.annulus import AnnulusLaw, future_rand_bounds, future_rand_eps_tilde
from repro.core.basic_randomizer import BasicRandomizer, basic_c_gap, flip_probability
from repro.core.client import Client, Report
from repro.core.composed_randomizer import ComposedRandomizer
from repro.core.future_rand import FutureRand, FutureRandFamily
from repro.core.interfaces import RandomizerFamily, SequenceRandomizer
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.core.server import Server
from repro.core.simple_randomizer import SimpleRandomizer, SimpleRandomizerFamily
from repro.core.vectorized import run_batch

__all__ = [
    "AnnulusLaw",
    "future_rand_bounds",
    "future_rand_eps_tilde",
    "BasicRandomizer",
    "basic_c_gap",
    "flip_probability",
    "Client",
    "Report",
    "ComposedRandomizer",
    "FutureRand",
    "FutureRandFamily",
    "RandomizerFamily",
    "SequenceRandomizer",
    "ProtocolParams",
    "ProtocolResult",
    "Server",
    "SimpleRandomizer",
    "SimpleRandomizerFamily",
    "run_batch",
]
