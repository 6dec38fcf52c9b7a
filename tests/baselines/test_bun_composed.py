"""Tests for the Bun et al. composed randomizer (Algorithm 4, App. A.2)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.bun_composed import (
    BunComposedFamily,
    bun_annulus_law,
    select_bun_parameters,
)
from repro.core.annulus import AnnulusLaw


class TestParameterSelection:
    def test_constraints_hold_across_grid(self):
        """Eq. (45) and Eq. (46) both hold for the selected parameters."""
        for k in (1, 2, 4, 16, 64, 256, 1024):
            for epsilon in (0.25, 0.5, 1.0):
                lam, eps_tilde = select_bun_parameters(k, epsilon)
                assert 0 < lam < 1
                ceiling = (eps_tilde * math.sqrt(k) / (2 * (k + 1))) ** (2 / 3)
                assert lam < ceiling
                reconstructed = 6 * eps_tilde * math.sqrt(k * math.log(1 / lam))
                assert reconstructed == pytest.approx(epsilon, rel=1e-9)

    def test_explicit_lambda_validated(self):
        lam, _ = select_bun_parameters(16, 1.0)
        # A slightly smaller lambda is also admissible.
        smaller, eps_tilde = select_bun_parameters(16, 1.0, lam=lam / 2)
        assert smaller == lam / 2
        assert eps_tilde > 0
        with pytest.raises(ValueError):
            select_bun_parameters(16, 1.0, lam=0.9)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            select_bun_parameters(0, 1.0)
        with pytest.raises(ValueError):
            select_bun_parameters(4, 0.0)
        with pytest.raises(ValueError):
            select_bun_parameters(4, 1.0, lam=1.5)

    def test_eps_tilde_smaller_than_future_rand(self):
        """Bun et al. must spend a sqrt(ln(1/lam)) factor more budget per
        coordinate: eps~_bun < eps~_ours = eps/(5 sqrt(k))."""
        for k in (16, 64, 256):
            _, eps_tilde = select_bun_parameters(k, 1.0)
            assert eps_tilde < 1.0 / (5 * math.sqrt(k))


class TestBunLaw:
    def test_law_is_normalized(self):
        law = bun_annulus_law(32, 1.0)
        assert law.distance_pmf().sum() == pytest.approx(1.0, abs=1e-9)

    def test_annulus_symmetric_around_kp(self):
        law = bun_annulus_law(64, 1.0)
        lower, upper = law.real_bounds
        kp = 64 * law.flip_probability
        assert (kp - lower) == pytest.approx(upper - kp, rel=1e-9)

    def test_small_k_full_cover_handled(self):
        """At tiny k the symmetric annulus covers every distance; the law must
        degrade gracefully rather than crash."""
        law = bun_annulus_law(1, 1.0)
        assert (law.lo, law.hi) == (0, law.k)
        assert law.c_gap > 0

    def test_cgap_below_future_rand_for_moderate_k(self):
        for k in (16, 64, 256):
            ours = AnnulusLaw.for_future_rand(k, 1.0).c_gap
            theirs = bun_annulus_law(k, 1.0).c_gap
            assert theirs < ours

    def test_theorem_a8_shape(self):
        """The advantage ratio grows like sqrt(ln(k/eps)): it should be within
        a small constant of that prediction across two decades of k."""
        ratios = []
        for k in (16, 256, 4096):
            ours = AnnulusLaw.for_future_rand(k, 1.0).c_gap
            theirs = bun_annulus_law(k, 1.0).c_gap
            ratios.append((ours / theirs) / math.sqrt(math.log(k)))
        assert max(ratios) / min(ratios) < 1.6


class TestBunFamily:
    def test_spawn_and_online_use(self, rng):
        family = BunComposedFamily(k=8, epsilon=1.0)
        randomizer = family.spawn(16, rng)
        outputs = [randomizer.randomize(v) for v in (0, 1, -1, 0)]
        assert all(value in (-1, 1) for value in outputs)

    def test_vectorized_path(self, rng):
        family = BunComposedFamily(k=4, epsilon=1.0)
        values = np.zeros((50, 8), dtype=np.int8)
        values[:, 3] = 1
        output = family.randomize_matrix(values, rng)
        assert output.shape == (50, 8)
        assert set(np.unique(output).tolist()) <= {-1, 1}

    def test_matrix_gap_matches_cgap(self):
        family = BunComposedFamily(k=4, epsilon=1.0)
        rows = 40_000
        values = np.zeros((rows, 4), dtype=np.int8)
        values[:, 0] = 1
        output = family.randomize_matrix(values, np.random.default_rng(9))
        gap = float((output[:, 0] == 1).mean() - (output[:, 0] == -1).mean())
        assert abs(gap - family.c_gap) < 4 * (2.0 / math.sqrt(rows))

    def test_name(self):
        assert BunComposedFamily(k=4, epsilon=1.0).name == "bun_composed"
