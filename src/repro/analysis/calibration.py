"""Exact budget calibration: reclaim the slack in Lemma 5.2's 5*sqrt(k) split.

Experiment E7 shows the paper's setting ``eps_tilde = eps / (5 sqrt(k))``
spends at most ~47% of the privacy budget — the worst-casing in the proof is
the price of a closed-form guarantee.  Because this library evaluates the
client report's privacy ratio *exactly* (closed form, any ``L``), the
calibration can instead be solved numerically: find the largest

    ``eps_tilde = multiplier * eps / (5 sqrt(k))``

whose exact client ratio still satisfies ``<= eps``.  The resulting
randomizer is a drop-in replacement (``CalibratedFutureRandFamily``) whose
``c_gap`` is typically ~2x the paper's — a free constant-factor accuracy win
that requires no new analysis, only exact computation.  The privacy claim
rests on the same closed form the test suite cross-validates by brute force.
"""

from __future__ import annotations

import math

from repro.analysis.privacy import client_report_log_ratio
from repro.core.annulus import AnnulusLaw, future_rand_bounds
from repro.core.future_rand import RandomizerFamily
from repro.sim.results import ResultTable
from repro.utils.validation import ensure_positive

__all__ = [
    "calibrated_law",
    "calibration_multiplier",
    "CalibratedFutureRandFamily",
    "calibration_table",
]

#: Bisection resolution on the multiplier.
_RESOLUTION = 1e-3
#: Never push the per-coordinate budget beyond Lemma 5.2's analyzed regime
#: scaled by this factor (the exact check is the authority; the cap bounds
#: the search).
_MAX_MULTIPLIER = 25.0


def _law_at(k: int, epsilon: float, multiplier: float) -> AnnulusLaw:
    eps_tilde = multiplier * epsilon / (5.0 * math.sqrt(k))
    lower, upper = future_rand_bounds(k, eps_tilde)
    return AnnulusLaw(k, eps_tilde, lower, upper)


def calibration_multiplier(k: int, epsilon: float) -> float:
    """Return the largest admissible eps_tilde multiplier (exact check).

    Bisects on the multiplier; admissibility is the *exact* client-report
    ratio staying at most ``epsilon``.  The paper's setting is multiplier 1.
    """
    k = ensure_positive(k, "k")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    def admissible(multiplier: float) -> bool:
        try:
            law = _law_at(k, epsilon, multiplier)
        except ValueError:
            return False  # degenerate annulus at extreme budgets
        return client_report_log_ratio(law) <= epsilon + 1e-12

    if not admissible(1.0):
        raise AssertionError(
            "the paper's own calibration failed the exact check — "
            "this would contradict Lemma 5.2"
        )
    low, high = 1.0, 2.0
    while high < _MAX_MULTIPLIER and admissible(high):
        low, high = high, high * 2.0
    high = min(high, _MAX_MULTIPLIER)
    while high - low > _RESOLUTION:
        mid = (low + high) / 2.0
        if admissible(mid):
            low = mid
        else:
            high = mid
    return low


def calibrated_law(k: int, epsilon: float) -> AnnulusLaw:
    """Return the annulus law at the exactly-calibrated budget."""
    return _law_at(k, epsilon, calibration_multiplier(k, epsilon))


class CalibratedFutureRandFamily(RandomizerFamily):
    """FutureRand with the numerically maximal per-coordinate budget.

    Same pre-computation wrapper and vectorized kernels as the paper's
    family; only the annulus law differs.  Privacy: the exact client-report
    ratio is at most ``epsilon`` by construction (and re-checked in tests).
    """

    name = "future_rand_calibrated"

    def __init__(self, k: int, epsilon: float) -> None:
        super().__init__(epsilon, calibrated_law(k, epsilon))


def calibration_table(ks: list[int], epsilon: float) -> ResultTable:
    """Tabulate paper-vs-calibrated constants across ``ks``."""
    table = ResultTable(
        title=f"Exact budget calibration (epsilon={epsilon})",
        columns=[
            "k",
            "multiplier",
            "cgap_paper",
            "cgap_calibrated",
            "gain",
            "exact_ratio",
        ],
    )
    for k in ks:
        paper = AnnulusLaw.for_future_rand(k, epsilon)
        multiplier = calibration_multiplier(k, epsilon)
        refined = _law_at(k, epsilon, multiplier)
        table.add_row(
            k=k,
            multiplier=multiplier,
            cgap_paper=paper.c_gap,
            cgap_calibrated=refined.c_gap,
            gain=refined.c_gap / paper.c_gap,
            exact_ratio=client_report_log_ratio(refined),
        )
    table.notes = (
        "gain is the free accuracy factor from replacing the closed-form "
        "5*sqrt(k) calibration with the exact privacy check."
    )
    return table
