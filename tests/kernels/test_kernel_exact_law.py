"""Exact-law conformance of the fast kernel: provably the same distribution.

The fast backend does not reuse the reference sampling strategy, so "looks
close" is not enough — these tests pin it to the *closed-form* law:

* the empirical flip-**distance** histogram of ``R~(1^k)`` draws must match
  :meth:`AnnulusLaw.distance_pmf` within a total-variation bound, across a
  k/epsilon grid covering the paper's law, the exactly-calibrated law
  (annulus truncated so hard that the uniform-outside branch dominates) and
  the degenerate Bun laws where the annulus covers every distance and the
  outside branch vanishes entirely;
* given the distance, the flipped subset must be **uniform** — checked via
  per-coordinate flip frequencies (exchangeability makes them equal) and via
  exact subset sizes from the partial Fisher–Yates;
* the raw-bit uniform-sign stream must be unbiased.

All checks run at fixed seeds: a failure is a code regression, not an
unlucky draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.calibration import calibrated_law
from repro.baselines.bun_composed import bun_annulus_law
from repro.core.annulus import AnnulusLaw
from repro.kernels import get_kernel

#: (label, law) grid; includes the degenerate uniform-outside modes.
LAWS = [
    ("future_rand_k4", AnnulusLaw.for_future_rand(4, 1.0)),
    ("future_rand_k8", AnnulusLaw.for_future_rand(8, 0.5)),
    ("future_rand_k16", AnnulusLaw.for_future_rand(16, 2.0)),
    ("calibrated_k8", calibrated_law(8, 1.0)),  # outside branch dominates
    ("bun_k4_degenerate", bun_annulus_law(4, 1.0)),  # complement empty
    ("bun_k16", bun_annulus_law(16, 1.0)),
]

_DRAWS = 40_000


def _tv_bound(k: int, draws: int) -> float:
    """A generous deterministic TV envelope for ``draws`` samples, ``k+1`` bins.

    E[TV] <= sqrt((k+1) / (4 * draws)) for any pmf (Cauchy–Schwarz on the
    per-bin binomial deviations); 4x that is far beyond any plausible seed's
    fluctuation while still catching a systematically wrong law.
    """
    return 4.0 * np.sqrt((k + 1) / (4.0 * draws))


def _empirical_distance_pmf(kernel_name: str, law, seed: int) -> np.ndarray:
    kernel = get_kernel(kernel_name)
    b = np.ones(law.k, dtype=np.int8)
    draws = kernel.sample_composed_batch(law, b, _DRAWS, np.random.default_rng(seed))
    assert draws.shape == (_DRAWS, law.k)
    assert draws.dtype == np.int8
    assert set(np.unique(draws)) <= {-1, 1}
    distances = (draws != b[np.newaxis, :]).sum(axis=1)
    return np.bincount(distances, minlength=law.k + 1) / _DRAWS


@pytest.mark.parametrize("kernel_name", ["fast", "reference"])
@pytest.mark.parametrize("label,law", LAWS, ids=[label for label, _ in LAWS])
def test_distance_histogram_matches_exact_pmf(kernel_name, label, law):
    """TV(empirical distances, AnnulusLaw.distance_pmf) below the envelope."""
    empirical = _empirical_distance_pmf(kernel_name, law, seed=1234)
    pmf = law.distance_pmf()
    tv = 0.5 * np.abs(empirical - pmf).sum()
    assert tv <= _tv_bound(law.k, _DRAWS), (
        f"{kernel_name} kernel TV {tv:.4f} exceeds "
        f"{_tv_bound(law.k, _DRAWS):.4f} for {label}"
    )


@pytest.mark.parametrize("label,law", LAWS, ids=[label for label, _ in LAWS])
def test_distances_stay_inside_pmf_support(label, law):
    """No fast-kernel draw lands at a distance the law gives zero mass."""
    empirical = _empirical_distance_pmf("fast", law, seed=99)
    support = law.distance_pmf() > 0
    assert (empirical[~support] == 0).all(), (
        f"fast kernel produced distances outside the support for {label}"
    )


@pytest.mark.parametrize("label,law", LAWS, ids=[label for label, _ in LAWS])
def test_flipped_subsets_are_exchangeable(label, law):
    """Per-coordinate flip frequencies are equal (uniform-subset evidence).

    Under the exact law every coordinate flips with probability
    ``E[distance] / k``; a biased Fisher–Yates (off-by-one ranges, stale
    permutation scratch) shows up here immediately.
    """
    kernel = get_kernel("fast")
    b = np.ones(law.k, dtype=np.int8)
    draws = kernel.sample_composed_batch(law, b, _DRAWS, np.random.default_rng(7))
    pmf = law.distance_pmf()
    expected = float((pmf * np.arange(law.k + 1)).sum()) / law.k
    per_coordinate = (draws == -1).mean(axis=0)
    # Hoeffding at 40k draws: 5 sigma ~ 0.0125; use a flat generous margin.
    tolerance = 5.0 * np.sqrt(0.25 / _DRAWS)
    assert np.abs(per_coordinate - expected).max() <= tolerance, (
        f"coordinate flip frequencies {per_coordinate} deviate from "
        f"{expected:.4f} for {label}"
    )


def test_fast_sampler_respects_general_b():
    """``R~(b)`` for non-ones ``b``: flip pattern applied relative to ``b``."""
    law = AnnulusLaw.for_future_rand(8, 1.0)
    kernel = get_kernel("fast")
    b = np.array([1, -1, 1, -1, 1, -1, 1, -1], dtype=np.int8)
    draws = kernel.sample_composed_batch(law, b, 20_000, np.random.default_rng(3))
    distances = (draws != b[np.newaxis, :]).sum(axis=1)
    pmf = law.distance_pmf()
    tv = 0.5 * np.abs(np.bincount(distances, minlength=9) / 20_000 - pmf).sum()
    assert tv <= _tv_bound(8, 20_000)


def test_fast_subset_sizes_are_exact():
    """The partial Fisher–Yates flips exactly ``size`` distinct positions."""
    kernel = get_kernel("fast")
    rng = np.random.default_rng(11)
    sizes = np.array([0, 1, 3, 7, 12, 12, 5, 0, 2, 9])
    rows, columns = kernel._uniform_subset_indices(10, 12, sizes, rng)
    assert rows.size == sizes.sum()
    for row in range(10):
        chosen = columns[rows == row]
        assert chosen.size == sizes[row]
        assert np.unique(chosen).size == sizes[row], "duplicate flip position"
        assert ((chosen >= 0) & (chosen < 12)).all()


def test_fast_subset_positions_are_uniform():
    """Each position is chosen with probability size/k (marginal uniformity)."""
    kernel = get_kernel("fast")
    rng = np.random.default_rng(5)
    count, k, size = 30_000, 10, 3
    sizes = np.full(count, size)
    rows, columns = kernel._uniform_subset_indices(count, k, sizes, rng)
    frequency = np.bincount(columns, minlength=k) / count
    assert np.abs(frequency - size / k).max() <= 5.0 * np.sqrt(0.25 / count)


def test_uniform_signs_unbiased_and_exactly_binary():
    kernel = get_kernel("fast")
    signs = kernel.uniform_signs((100_000,), np.random.default_rng(17))
    assert set(np.unique(signs)) == {-1, 1}
    assert abs(float(signs.mean())) <= 5.0 * np.sqrt(1.0 / 100_000)


def test_alias_table_matches_pmf():
    from repro.kernels import AliasTable

    pmf = np.array([0.05, 0.4, 0.05, 0.3, 0.2])
    table = AliasTable(pmf)
    draws = table.sample(200_000, np.random.default_rng(2))
    empirical = np.bincount(draws, minlength=5) / 200_000
    assert np.abs(empirical - pmf).max() <= 0.01


def test_alias_table_size_counts_zero_mass_outcomes():
    from repro.kernels import AliasTable

    table = AliasTable(np.array([0.0, 0.7, 0.0, 0.3]))
    draws = table.sample(10_000, np.random.default_rng(3))
    assert set(np.unique(draws).tolist()) == {1, 3}


def test_alias_table_rejects_bad_pmf():
    from repro.kernels import AliasTable

    with pytest.raises(ValueError, match="non-empty"):
        AliasTable(np.array([]))
    with pytest.raises(ValueError, match="non-negative"):
        AliasTable(np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ValueError, match="positive total"):
        AliasTable(np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="non-negative"):
        AliasTable(np.array([np.inf, 1.0]))


def test_alias_table_degenerate_single_outcome():
    from repro.kernels import AliasTable

    table = AliasTable(np.array([1.0]))
    assert (table.sample(100, np.random.default_rng(0)) == 0).all()
