"""Tests for exact budget calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.calibration import (
    CalibratedFutureRandFamily,
    calibrated_law,
    calibration_multiplier,
    calibration_table,
)
from repro.analysis.privacy import client_report_log_ratio
from repro.core.annulus import AnnulusLaw


class TestMultiplier:
    @pytest.mark.slow
    @pytest.mark.parametrize("k", [1, 2, 4, 16, 64, 256])
    @pytest.mark.parametrize("epsilon", [0.25, 1.0])
    def test_calibrated_law_stays_private(self, k, epsilon):
        """The whole point: the exact ratio never exceeds epsilon."""
        law = calibrated_law(k, epsilon)
        assert client_report_log_ratio(law) <= epsilon + 1e-9

    @pytest.mark.parametrize("k", [2, 4, 16, 64])
    def test_gain_is_substantial(self, k):
        paper = AnnulusLaw.for_future_rand(k, 1.0)
        refined = calibrated_law(k, 1.0)
        assert refined.c_gap > 1.5 * paper.c_gap

    @pytest.mark.slow
    def test_multiplier_at_least_one(self):
        for k in (1, 8, 128):
            assert calibration_multiplier(k, 1.0) >= 1.0

    def test_k_one_recovers_basic_randomizer(self):
        """At k=1 the optimal budget is the full epsilon: c_gap = tanh(eps/2)."""
        law = calibrated_law(1, 1.0)
        assert law.c_gap == pytest.approx(math.tanh(0.5), rel=0.02)

    def test_budget_nearly_exhausted(self):
        """Calibration should spend essentially the whole budget."""
        for k in (4, 32):
            law = calibrated_law(k, 1.0)
            assert client_report_log_ratio(law) > 0.99

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            calibration_multiplier(0, 1.0)
        with pytest.raises(ValueError):
            calibration_multiplier(4, 0.0)


class TestCalibratedFamily:
    def test_drop_in_interface(self, rng):
        family = CalibratedFutureRandFamily(k=4, epsilon=1.0)
        assert family.name == "future_rand_calibrated"
        # The budget is pushed beyond the paper's eps/(5 sqrt k).
        assert family.c_gap > AnnulusLaw.for_future_rand(4, 1.0).c_gap
        randomizer = family.spawn(8, rng)
        assert randomizer.randomize(1) in (-1, 1)

    def test_vectorized_path(self, rng):
        family = CalibratedFutureRandFamily(k=2, epsilon=1.0)
        values = np.zeros((30, 6), dtype=np.int8)
        values[:, 1] = 1
        output = family.randomize_matrix(values, rng)
        assert output.shape == (30, 6)
        assert set(np.unique(output).tolist()) <= {-1, 1}

    def test_matrix_gap_matches_calibrated_cgap(self):
        family = CalibratedFutureRandFamily(k=2, epsilon=1.0)
        rows = 40_000
        values = np.zeros((rows, 3), dtype=np.int8)
        values[:, 0] = 1
        output = family.randomize_matrix(values, np.random.default_rng(3))
        gap = float((output[:, 0] == 1).mean() - (output[:, 0] == -1).mean())
        assert abs(gap - family.c_gap) < 4 * (2.0 / math.sqrt(rows))


class TestTable:
    def test_rows_and_gain_column(self):
        table = calibration_table([1, 4], 1.0)
        assert len(table.rows) == 2
        assert all(row["gain"] >= 1.0 for row in table.rows)
        assert all(row["exact_ratio"] <= 1.0 + 1e-9 for row in table.rows)
