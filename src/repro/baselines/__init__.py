"""Comparator building blocks that live outside a streaming session.

Every baseline the paper is evaluated against is a registry protocol
(:func:`repro.protocols.get_protocol`).  Naive repeated randomized response,
memoization, Erlingsson et al. (2020) and the central-model tree mechanism
are implemented once, as their streaming sessions in
:mod:`repro.protocols.sessions`.  This package holds the two pieces that are
not sessions:

* :mod:`repro.baselines.bun_composed` — the Bun–Nelson–Stemmer composed
  randomizer (Algorithm 4, Appendix A.2) as a drop-in randomizer family.
* :mod:`repro.baselines.offline_tree` — an offline full-tree protocol
  approximating the error shape of Zhou et al. (2021); its session buffers
  the horizon and runs it once at the end.
"""

from repro.baselines.bun_composed import (
    BunComposedFamily,
    bun_annulus_law,
    select_bun_parameters,
)
from repro.baselines.offline_tree import run_offline_tree

__all__ = [
    "BunComposedFamily",
    "bun_annulus_law",
    "select_bun_parameters",
    "run_offline_tree",
]
