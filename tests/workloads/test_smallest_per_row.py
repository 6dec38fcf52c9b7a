"""The shared change-time selection routine against the argsort rank test.

``_smallest_per_row`` replaces a full row sort by a partition, a threshold
and a tie repair; every case here compares it bit for bit with the rank
reference ``argsort(scores[i])[:counts[i]]`` that the samplers used before.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import _smallest_per_row


def _rank_reference(scores: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mark ``argsort(scores[i])[:counts[i]]`` in each row."""
    rows, columns = scores.shape
    mask = np.zeros((rows, columns), dtype=bool)
    mask[np.arange(rows)[:, np.newaxis], scores.argsort(axis=1)] = (
        np.arange(columns) < counts[:, np.newaxis]
    )
    return mask


def _check(scores: np.ndarray, counts: np.ndarray) -> np.ndarray:
    mask = _smallest_per_row(scores, counts)
    assert mask.dtype == np.bool_ and mask.shape == scores.shape
    np.testing.assert_array_equal(mask, _rank_reference(scores, counts))
    np.testing.assert_array_equal(np.count_nonzero(mask, axis=1), counts)
    return mask


def test_uniform_scores_match_reference():
    rng = np.random.default_rng(0)
    scores = rng.random((300, 64))
    _check(scores, rng.integers(0, 5, size=300))


def test_ties_straddling_the_threshold_are_repaired():
    """On a 1/8 grid most rows hold equal scores across the threshold."""
    rng = np.random.default_rng(1)
    scores = rng.integers(0, 8, size=(400, 16)) / 8.0
    counts = rng.integers(0, 17, size=400)
    head = np.sort(scores, axis=1)
    at = np.maximum(counts, 1) - 1
    straddles = (counts > 0) & (counts < 16) & (
        head[np.arange(400), at] == head[np.arange(400), np.minimum(counts, 15)]
    )
    assert straddles.sum() > 100  # the repair path is really exercised
    _check(scores, counts)


def test_infinite_cells_are_never_chosen_before_finite_ones():
    rng = np.random.default_rng(2)
    scores = rng.random((200, 32))
    scores[rng.random((200, 32)) < 0.5] = np.inf
    finite = np.count_nonzero(np.isfinite(scores), axis=1)
    mask = _check(scores, np.minimum(rng.integers(0, 6, size=200), finite))
    assert np.isfinite(scores[mask]).all()


def test_counts_past_the_finite_cells_pick_tied_infinities():
    """A threshold of +inf ties every infinite cell; the repair breaks it."""
    scores = np.array([[np.inf, 0.5, np.inf, np.inf], [0.1, np.inf, 0.2, np.inf]])
    _check(scores, np.array([3, 4]))


def test_zero_counts_mark_nothing():
    scores = np.random.default_rng(3).random((50, 8))
    counts = np.zeros(50, dtype=np.int64)
    counts[::2] = 3
    mask = _check(scores, counts)
    assert not mask[1::2].any()


def test_all_zero_counts_skip_the_partition():
    scores = np.random.default_rng(4).random((10, 8))
    assert not _check(scores, np.zeros(10, dtype=np.int64)).any()


def test_count_equal_to_column_count_marks_the_whole_row():
    rng = np.random.default_rng(5)
    scores = rng.random((40, 8))
    counts = rng.integers(0, 9, size=40)
    counts[:10] = 8
    mask = _check(scores, counts)
    assert mask[:10].all()


@pytest.mark.parametrize("rows", [0, 5])
def test_zero_columns(rows):
    """What ``ItemChangePopulation`` passes at d=1: no switch points."""
    scores = np.empty((rows, 0))
    _check(scores, np.zeros(rows, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=40),
    columns=st.integers(min_value=1, max_value=40),
    levels=st.sampled_from([2, 8, 1 << 20]),
    inf_share=st.sampled_from([0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matches_reference_on_random_grids(rows, columns, levels, inf_share, seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, size=(rows, columns)) / levels
    scores[rng.random((rows, columns)) < inf_share] = np.inf
    _check(scores, rng.integers(0, columns + 1, size=rows))
