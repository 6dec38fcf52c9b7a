"""Comparator protocols: every baseline the paper is evaluated against.

* :mod:`repro.baselines.erlingsson` — the Erlingsson et al. (2020) online
  protocol (derivative-coordinate sampling + basic randomizer at ``eps/2``,
  estimator inflated by ``k``); error linear in ``k``.
* :mod:`repro.baselines.naive` — repeated randomized response with per-period
  budget ``eps/d`` (error linear in ``d``), plus the privacy-violating
  unsplit variant kept for illustrating why budget splitting is forced.
* :mod:`repro.baselines.bun_composed` — the Bun–Nelson–Stemmer composed
  randomizer (Algorithm 4, Appendix A.2) as a drop-in randomizer family.
* :mod:`repro.baselines.central` — the central-model binary (tree) mechanism
  with Laplace noise; the trusted-curator reference point.
* :mod:`repro.baselines.offline_tree` — an offline full-tree protocol
  approximating the error shape of Zhou et al. (2021).
"""

from repro.baselines.bun_composed import (
    BunComposedFamily,
    bun_annulus_law,
    select_bun_parameters,
)
from repro.baselines.central import CentralTreeMechanism, run_central_tree
from repro.baselines.erlingsson import run_erlingsson
from repro.baselines.naive import run_naive_split, run_naive_unsplit
from repro.baselines.offline_tree import run_offline_tree

__all__ = [
    "BunComposedFamily",
    "bun_annulus_law",
    "select_bun_parameters",
    "CentralTreeMechanism",
    "run_central_tree",
    "run_erlingsson",
    "run_naive_split",
    "run_naive_unsplit",
    "run_offline_tree",
]
