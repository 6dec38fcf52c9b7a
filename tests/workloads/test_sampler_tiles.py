"""Row-tiled samplers against their untiled bodies, across tile boundaries.

The vectorized samplers draw and reduce their scores one row tile of about
``_TILE_CELLS`` cells at a time.  Each oracle below is the untiled sampler
body verbatim (one ``rng.random((n, d))`` per score pass), so any tile size
that moved a draw or mixed rows across a tile edge shows up as a mismatch.
Row counts sit just below, at, just past and several times the tile height.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import (
    _TILE_CELLS,
    BoundedChangePopulation,
    ChurnPopulation,
    TrendPopulation,
    _smallest_per_row,
)


def _untiled_bounded(d, k, start_prob, exact_k, n, rng):
    """``BoundedChangePopulation.sample`` in uniform mode, untiled."""
    starts = rng.random(n) < start_prob
    budgets = np.full(n, k, dtype=np.int64)
    budgets[starts] -= 1  # starting at 1 consumes one change (at t=1)
    if not exact_k:
        budgets = rng.integers(0, budgets + 1)

    scores = rng.random((n, d))
    scores[starts, 0] = np.inf  # t=1 is reserved for the start toggle
    toggles = _smallest_per_row(scores, budgets)
    toggles[starts, 0] = True
    return np.logical_xor.accumulate(toggles, axis=1).astype(np.int8)


def _untiled_trend(population, n, rng):
    """``TrendPopulation.sample``, untiled."""
    d, k = population._d, population._k
    curve = population.target_curve()

    counts = rng.integers(1, k + 1, size=n)
    opportunity = _smallest_per_row(rng.random((n, d)), counts)
    # Draw the trend coin at every cell; only opportunity cells matter.
    draws = (rng.random((n, d)) < curve[np.newaxis, :]).astype(np.int8)
    values = np.where(opportunity, draws, np.int8(0))
    # Forward fill: each cell takes the value at its latest opportunity
    # (column 0 acts as a virtual opportunity holding the initial 0).
    columns = np.arange(d)[np.newaxis, :]
    marked = np.where(opportunity, columns, 0)
    latest = np.maximum.accumulate(marked, axis=1)
    values[:, 0] = np.where(opportunity[:, 0], values[:, 0], 0)
    rows = np.arange(n)[:, np.newaxis]
    return values[rows, latest].astype(np.int8)


def _untiled_churn(population, n, rng):
    """``ChurnPopulation.sample_with_activity``, untiled."""
    d = population._d
    arrivals = rng.integers(1, population._arrival_window + 1, size=n)
    lifetimes = rng.geometric(1.0 / population._mean_lifetime, size=n)
    departures = np.minimum(arrivals + lifetimes, d + 1)

    columns = np.arange(d)[np.newaxis, :]
    active = (columns >= arrivals[:, np.newaxis] - 1) & (
        columns < departures[:, np.newaxis] - 1
    )
    widths = departures - arrivals  # active periods per user, always >= 1
    counts = rng.integers(0, np.minimum(population._k - 1, widths) + 1)

    # Toggle at the `counts` smallest-scored *active* cells of each row
    # (inactive cells are pushed past every rank with an infinite score).
    scores = rng.random((n, d))
    scores[~active] = np.inf
    toggles = _smallest_per_row(scores, counts)
    states = np.logical_xor.accumulate(toggles, axis=1)
    # Departure: an absent user holds 0.  If the parity was 1 at the last
    # active period this zeroing is the user's reserved k-th change.
    states &= active
    return states.astype(np.int8), active


_D = st.sampled_from([16, 256, 1024])


@st.composite
def _shapes(draw):
    """``(d, n)`` with ``n`` around the tile height ``_TILE_CELLS // d``."""
    d = draw(_D)
    rows = _TILE_CELLS // d
    n = draw(st.sampled_from([rows - 1, rows, rows + 1, 3 * rows + 7]))
    return d, n


@settings(max_examples=24, deadline=None)
@given(
    shape=_shapes(),
    k=st.integers(1, 8),
    start_prob=st.sampled_from([0.0, 0.3, 0.9]),
    exact_k=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bounded_uniform_matches_untiled(shape, k, start_prob, exact_k, seed):
    d, n = shape
    population = BoundedChangePopulation(
        d, k, start_prob=start_prob, exact_k=exact_k
    )
    states = population.sample(n, np.random.default_rng(seed))
    expected = _untiled_bounded(
        d, k, start_prob, exact_k, n, np.random.default_rng(seed)
    )
    assert states.dtype == np.int8
    np.testing.assert_array_equal(states, expected)


@settings(max_examples=24, deadline=None)
@given(
    shape=_shapes(),
    k=st.integers(1, 8),
    curve=st.sampled_from(["sigmoid", "linear", "spike"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_trend_matches_untiled(shape, k, curve, seed):
    d, n = shape
    population = TrendPopulation(d, k, curve=curve)
    states = population.sample(n, np.random.default_rng(seed))
    expected = _untiled_trend(population, n, np.random.default_rng(seed))
    assert states.dtype == np.int8
    np.testing.assert_array_equal(states, expected)


@settings(max_examples=24, deadline=None)
@given(
    shape=_shapes(),
    k=st.integers(2, 8),
    arrival_fraction=st.sampled_from([0.25, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_churn_matches_untiled(shape, k, arrival_fraction, seed):
    d, n = shape
    population = ChurnPopulation(
        d, k, arrival_window=max(1, int(arrival_fraction * d))
    )
    states, active = population.sample_with_activity(n, np.random.default_rng(seed))
    expected_states, expected_active = _untiled_churn(
        population, n, np.random.default_rng(seed)
    )
    assert states.dtype == np.int8 and active.dtype == np.bool_
    np.testing.assert_array_equal(active, expected_active)
    np.testing.assert_array_equal(states, expected_states)
