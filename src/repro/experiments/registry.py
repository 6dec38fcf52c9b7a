"""Registry binding experiment ids to their runnable modules.

Every entry corresponds to one row of the DESIGN.md experiment index and one
benchmark in ``benchmarks/``; ``repro.cli`` exposes them on the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments import (
    e01_figure1,
    e02_error_vs_k,
    e03_error_vs_d,
    e04_error_vs_n_eps,
    e05_vs_erlingsson,
    e06_cgap,
    e07_privacy,
    e08_bun,
    e09_concentration,
    e10_landscape,
    e11_consistency,
    e12_order_allocation,
    e13_microstructure,
    e14_calibration,
)
from repro.sim.results import ResultTable

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment: id, paper claim, runnable."""

    experiment_id: str
    title: str
    paper_claim: str
    run: Callable[..., ResultTable]


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "E1",
            "Figure 1 / Examples 3.3 & 3.5",
            "Dyadic intervals, partial sums and C(3) for d=4, X_u=(0,1,0,-1).",
            e01_figure1.run,
        ),
        ExperimentSpec(
            "E2",
            "Error vs k",
            "Theorem 4.1: l-inf error scales like sqrt(k).",
            e02_error_vs_k.run,
        ),
        ExperimentSpec(
            "E3",
            "Error vs d",
            "Theorem 4.1: l-inf error grows ~log d (sub-polynomial).",
            e03_error_vs_d.run,
        ),
        ExperimentSpec(
            "E4",
            "Error vs n and epsilon",
            "Theorem 4.1: error scales like sqrt(n) and 1/epsilon.",
            e04_error_vs_n_eps.run,
        ),
        ExperimentSpec(
            "E5",
            "FutureRand vs Erlingsson et al.",
            "sqrt(k)-vs-k separation; FutureRand wins beyond the crossover.",
            e05_vs_erlingsson.run,
        ),
        ExperimentSpec(
            "E6",
            "Exact c_gap constants",
            "Lemma 5.3/Theorem 4.4: c_gap * sqrt(k)/eps bounded below.",
            e06_cgap.run,
        ),
        ExperimentSpec(
            "E7",
            "Exact privacy verification",
            "Lemma 5.2/Theorem 4.5: output-law ratios at most e^eps.",
            e07_privacy.run,
        ),
        ExperimentSpec(
            "E8",
            "Bun et al. comparison",
            "Theorem A.8: Algorithm 4 loses a sqrt(ln(k/eps)) gap factor.",
            e08_bun.run,
        ),
        ExperimentSpec(
            "E9",
            "Unbiasedness & concentration",
            "Obs. 4.3 and Lemma 4.6/Eq. 13 with explicit constants.",
            e09_concentration.run,
        ),
        ExperimentSpec(
            "E10",
            "Protocol landscape vs d",
            "Naive repetition linear in d; hierarchical protocols polylog; "
            "central model n-independent.",
            e10_landscape.run,
        ),
        ExperimentSpec(
            "E11",
            "Consistency post-processing (ablation)",
            "WLS tree consistency halves the max error at d=256, for free.",
            e11_consistency.run,
        ),
        ExperimentSpec(
            "E12",
            "Order allocation (ablation)",
            "Uniform order sampling is the minimax allocation.",
            e12_order_allocation.run,
        ),
        ExperimentSpec(
            "E13",
            "Dyadic microstructure",
            "Error std at time t tracks sqrt(popcount(t)) exactly "
            "(variance formula implied by Lemma 4.6's proof).",
            e13_microstructure.run,
        ),
        ExperimentSpec(
            "E14",
            "Exact budget calibration (ablation)",
            "Replacing the 5*sqrt(k) split with the exact privacy check "
            "buys 2-4.6x c_gap at identical epsilon.",
            e14_calibration.run,
        ),
    )
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Return the spec for ``experiment_id`` (case-insensitive), or raise."""
    spec = EXPERIMENTS.get(experiment_id.upper())
    if spec is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return spec
