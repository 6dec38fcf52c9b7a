"""Population generators with a hard per-user change budget.

Every generator guarantees each user's Boolean sequence changes at most ``k``
times over the ``d`` periods — the structural assumption of the longitudinal
collection problem (Section 2).  Generators return ``(n, d)`` int8 matrices.

For populations too large to materialize, every generator also supports
:meth:`Population.sample_chunks`: an out-of-core stream of row chunks whose
concatenation is *bit-identical for any chunk size* (randomness is attached
to fixed user blocks spawned from a root ``SeedSequence``, and chunks are
re-slices of the block stream — see :mod:`repro.utils.chunking`).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.utils.chunking import DEFAULT_BLOCK_ROWS, iter_row_groups, plan_row_blocks
from repro.utils.rng import SeedLike, as_generator, as_seed_sequence
from repro.utils.validation import check_power_of_two, check_probability, ensure_positive

__all__ = [
    "Population",
    "BoundedChangePopulation",
    "TrendPopulation",
    "PeriodicPopulation",
    "ChurnPopulation",
]

_CHANGE_TIME_MODES = ("uniform", "early", "late", "bursty")

#: Cells per row tile of the vectorized samplers: 64K float64 scores
#: (512 KB) plus their partition copy stay cache-sized at any ``n``.
_TILE_CELLS = 1 << 16


def _check_budget(k: int, d: int) -> int:
    """Return ``k`` as a per-user change budget, which must lie in ``[1, d]``."""
    budget = ensure_positive(k, "k")
    if budget > d:
        raise ValueError(f"k={k} cannot exceed d={d}")
    return budget


def _row_tiles(n: int, d: int) -> list[tuple[int, int]]:
    """Consecutive ``[start, stop)`` row tiles of about ``_TILE_CELLS`` cells.

    Drawing ``rng.random((stop - start, d))`` tile after tile consumes the
    stream exactly as one ``rng.random((n, d))`` does (``Generator.random``
    fills C order from one stream), and every step after the draw works row
    by row, so tiling moves no bit of a sampler's output.
    """
    return plan_row_blocks(n, max(1, _TILE_CELLS // d))


def _smallest_per_row(scores: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``counts[i]`` smallest entries of each row.

    The marked set of row ``i`` is exactly ``argsort(scores[i])[:counts[i]]``
    (every ``counts[i]`` must be at most the column count), found without
    sorting whole rows: one ``np.partition`` at the largest count, a sort of
    only that many leading columns, and a per-row threshold at rank
    ``counts[i] - 1`` (``-inf`` for a zero count).  Marking ``scores <=
    threshold`` marks too many cells only where equal scores straddle the
    threshold; those rows alone are redone with the ``argsort`` scatter, so
    even tied rows match the rank reference bit for bit.
    """
    rows, columns = scores.shape
    most = int(counts.max(initial=0))
    if most == 0:
        return np.zeros(scores.shape, dtype=bool)
    head = np.sort(np.partition(scores, most - 1, axis=1)[:, :most], axis=1)
    threshold = np.where(
        counts > 0, head[np.arange(rows), np.maximum(counts, 1) - 1], -np.inf
    )
    mask = scores <= threshold[:, np.newaxis]
    tied = np.flatnonzero(np.count_nonzero(mask, axis=1) != counts)
    if tied.size:
        order = scores[tied].argsort(axis=1)
        repaired = np.zeros((tied.size, columns), dtype=bool)
        repaired[np.arange(tied.size)[:, np.newaxis], order] = (
            np.arange(columns) < counts[tied, np.newaxis]
        )
        mask[tied] = repaired
    return mask


class Population:
    """Shared out-of-core sampling surface for every population generator.

    Subclasses provide ``sample(n, rng) -> (n, d) int8``; this base adds
    :meth:`sample_chunks`, the memory-bounded streaming equivalent.
    """

    def sample(self, n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        raise NotImplementedError

    def sample_chunks(
        self,
        n: int,
        chunk_size: int,
        seed: SeedLike = None,
        *,
        block_rows: int = DEFAULT_BLOCK_ROWS,
    ) -> Iterator[np.ndarray]:
        """Yield the population in ``chunk_size``-row pieces, out of core.

        Users are generated in fixed blocks of ``block_rows``: block ``b``
        is drawn by ``self.sample`` with a generator seeded from the ``b``-th
        child of the root ``SeedSequence`` (``as_seed_sequence(seed)``), and
        chunks are re-slices of the block stream.  Consequences:

        * the concatenated output depends only on ``(n, seed, block_rows)``
          — **any chunk size yields bit-identical users**;
        * peak memory is O(``max(chunk_size, block_rows) * d``) int8 cells,
          never O(``n * d``); the vectorized samplers draw their float
          scores in row tiles of about 64K cells, so drawing a block adds
          O(tile) float transients, not a block of float64;
        * for ``n <= block_rows`` the stream concatenates to exactly the
          monolithic ``self.sample(n, np.random.default_rng(root.spawn(1)[0]))``
          — the chunked and in-memory paths agree bit for bit.

        Users are i.i.d. in every generator here, so per-block seeding is
        distributionally identical to one monolithic draw.  A ``SeedSequence``
        input is counter-reset before spawning (the stream is always the
        node's *first* children), so the same node always yields the same
        population regardless of earlier spawns from it.
        """
        n = ensure_positive(n, "n")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        blocks = plan_row_blocks(n, block_rows)
        children = as_seed_sequence(seed, reset_spawn_counter=True).spawn(
            len(blocks)
        )

        def block_stream() -> Iterator[np.ndarray]:
            for (start, stop), child in zip(blocks, children, strict=True):
                yield self.sample(stop - start, np.random.default_rng(child))

        yield from iter_row_groups(block_stream(), chunk_size)


class BoundedChangePopulation(Population):
    """Users with i.i.d. change times under a hard ``k``-change budget.

    Parameters
    ----------
    d:
        Horizon (power of two).
    k:
        Maximum changes per user.
    mode:
        Where change times concentrate: ``"uniform"`` across the horizon,
        ``"early"``/``"late"`` (triangular weighting), or ``"bursty"`` (all of
        a user's changes fall inside one short random window — the hardest
        case for per-period mechanisms, easy for sparsity-aware ones).
    start_prob:
        Probability a user starts with value 1 at time 1.  A user starting at
        1 spends one unit of the change budget (``st_u[0] = 0`` convention).
    exact_k:
        If true every user uses the full budget; otherwise each user's change
        count is uniform on ``[0..k]``.
    burst_width:
        Window length for ``"bursty"`` mode (default ``max(k, d // 16)``).

    >>> population = BoundedChangePopulation(d=16, k=3)
    >>> states = population.sample(10, np.random.default_rng(0))
    >>> states.shape
    (10, 16)
    """

    def __init__(
        self,
        d: int,
        k: int,
        *,
        mode: str = "uniform",
        start_prob: float = 0.0,
        exact_k: bool = False,
        burst_width: Optional[int] = None,
    ) -> None:
        self._d = check_power_of_two(d, "d")
        self._k = _check_budget(k, self._d)
        if mode not in _CHANGE_TIME_MODES:
            raise ValueError(f"mode must be one of {_CHANGE_TIME_MODES}, got {mode!r}")
        self._mode = mode
        if start_prob != 0.0:
            check_probability(start_prob, "start_prob")
        self._start_prob = float(start_prob)
        self._exact_k = bool(exact_k)
        self._burst_width = (
            int(burst_width) if burst_width is not None else max(self._k, self._d // 16)
        )
        if self._burst_width < self._k:
            raise ValueError(
                f"burst_width={self._burst_width} cannot hold k={self._k} changes"
            )

    def _change_time_weights(self) -> np.ndarray:
        positions = np.arange(1, self._d + 1, dtype=np.float64)
        if self._mode == "early":
            weights = (self._d + 1 - positions) ** 2
        elif self._mode == "late":
            weights = positions**2
        else:  # uniform (bursty picks windows separately)
            weights = np.ones(self._d)
        return weights / weights.sum()

    def sample(self, n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return an ``(n, d)`` Boolean state matrix."""
        n = ensure_positive(n, "n")
        rng = as_generator(rng)

        starts = rng.random(n) < self._start_prob
        budgets = np.full(n, self._k, dtype=np.int64)
        budgets[starts] -= 1  # starting at 1 consumes one change (at t=1)
        if not self._exact_k:
            budgets = rng.integers(0, budgets + 1)

        if self._mode == "uniform":
            return self._sample_uniform_vectorized(n, starts, budgets, rng)

        deriv = np.zeros((n, self._d), dtype=np.int8)
        weights = self._change_time_weights() if self._mode != "bursty" else None
        for user in range(n):
            count = int(budgets[user])
            offset = 2 if starts[user] else 1  # first free change time
            available = self._d - offset + 1
            count = min(count, available)
            if count > 0:
                if self._mode == "bursty":
                    highest_start = max(self._d - self._burst_width + 1, offset)
                    window_start = int(rng.integers(offset, highest_start + 1))
                    window_end = min(window_start + self._burst_width, self._d + 1)
                    pool = np.arange(window_start, window_end)
                    count = min(count, pool.size)
                else:
                    pool_weights = weights[offset - 1 :]
                    pool_weights = pool_weights / pool_weights.sum()
                    pool = rng.choice(
                        np.arange(offset, self._d + 1),
                        size=min(count, available),
                        replace=False,
                        p=pool_weights,
                    )
                times = np.sort(
                    rng.choice(pool, size=count, replace=False)
                    if self._mode == "bursty"
                    else pool[:count]
                )
                current = 1 if starts[user] else 0
                for t in times:
                    deriv[user, t - 1] = 1 if current == 0 else -1
                    current = 1 - current
            if starts[user]:
                deriv[user, 0] = 1

        return np.cumsum(deriv, axis=1).astype(np.int8)

    def _sample_uniform_vectorized(
        self,
        n: int,
        starts: np.ndarray,
        budgets: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Loop-free sampler for the uniform mode (handles millions of users).

        Each user toggles at ``budget`` uniformly chosen times; a user starting
        at 1 additionally toggles at t=1.  States are the toggle-count parity.

        A user's toggle set is the ``budget`` smallest scores of its row,
        marked by :func:`_smallest_per_row`: a partition at the largest
        budget (at most ``k`` columns are ever sorted) sets a per-row
        threshold, and only rows with a float tie straddling it are redone
        by the ``argsort`` scatter — bit-identical to the full-row rank
        test.  The parity is an in-type xor accumulation rather than an
        int64 ``cumsum``.

        The scores are drawn, reduced and written into the int8 output one
        row tile (:func:`_row_tiles`) at a time, so the float transients are
        O(tile), never ``(n, d)`` float64; the draw is this sampler's last
        RNG call, so the tiles reproduce the untiled bits.
        """
        states = np.empty((n, self._d), dtype=np.int8)
        for start, stop in _row_tiles(n, self._d):
            scores = rng.random((stop - start, self._d))
            tile_starts = starts[start:stop]
            scores[tile_starts, 0] = np.inf  # t=1 is reserved for the start toggle
            toggles = _smallest_per_row(scores, budgets[start:stop])
            toggles[tile_starts, 0] = True
            states[start:stop] = np.logical_xor.accumulate(toggles, axis=1)
        return states


class TrendPopulation(Population):
    """A global adoption curve with per-user change budgets.

    Each user independently follows the population trend ``curve(t)`` (the
    probability of holding value 1 at time ``t``), flipping towards the trend
    at randomly drawn opportunity times, but never more than ``k`` times.
    Produces the non-stationary counts (ramps, spikes) that motivate
    *continuous* monitoring in the paper's introduction.

    ``curve`` options: ``"sigmoid"`` (adoption ramp), ``"linear"``,
    ``"spike"`` (brief surge then decay).
    """

    def __init__(self, d: int, k: int, *, curve: str = "sigmoid") -> None:
        self._d = check_power_of_two(d, "d")
        self._k = _check_budget(k, self._d)
        if curve not in ("sigmoid", "linear", "spike"):
            raise ValueError(f"curve must be sigmoid/linear/spike, got {curve!r}")
        self._curve = curve

    def target_curve(self) -> np.ndarray:
        """Return the population-level probability of value 1 per period."""
        t = np.arange(1, self._d + 1, dtype=np.float64)
        if self._curve == "sigmoid":
            midpoint = self._d / 2.0
            width = max(self._d / 10.0, 1.0)
            return 1.0 / (1.0 + np.exp(-(t - midpoint) / width))
        if self._curve == "linear":
            return t / self._d
        peak = self._d / 4.0
        width = max(self._d / 16.0, 1.0)
        return 0.8 * np.exp(-((t - peak) ** 2) / (2.0 * width**2))

    def sample(self, n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return an ``(n, d)`` matrix of users tracking the trend.

        Opportunity times: each user re-evaluates at up to ``k`` random
        periods and adopts the trend's current coin flip; between
        opportunities the value is held (forward fill), so the change budget
        is respected by construction.  Fully vectorized.

        Two passes over row tiles (:func:`_row_tiles`) keep the stream order
        of the untiled sampler (every opportunity score, then every coin):
        the first reduces score tiles to the opportunity mask, stored in the
        output buffer itself; the second draws coin tiles and forward-fills
        each tile over its own rows.  Float and index transients are O(tile).
        """
        n = ensure_positive(n, "n")
        rng = as_generator(rng)
        d = self._d
        curve = self.target_curve()

        counts = rng.integers(1, self._k + 1, size=n)
        states = np.empty((n, d), dtype=np.int8)
        opportunity = states.view(np.bool_)
        tiles = _row_tiles(n, d)
        for start, stop in tiles:
            opportunity[start:stop] = _smallest_per_row(
                rng.random((stop - start, d)), counts[start:stop]
            )
        columns = np.arange(d)
        for start, stop in tiles:
            tile = opportunity[start:stop]
            # Draw the trend coin at every cell; only opportunity cells matter.
            values = (rng.random((stop - start, d)) < curve) & tile
            # Forward fill: each cell takes the value at its latest opportunity
            # (column 0 acts as a virtual opportunity holding the initial 0).
            latest = np.maximum.accumulate(np.where(tile, columns, 0), axis=1)
            states[start:stop] = np.take_along_axis(values, latest, axis=1)
        return states


class PeriodicPopulation(Population):
    """Users toggling with a shared period and random phases.

    Models weekday/weekend-style behaviour.  The change budget caps how many
    toggles survive: each user toggles every ``period`` steps starting from
    its phase, truncated to the first ``k`` toggles.
    """

    def __init__(self, d: int, k: int, *, period: Optional[int] = None) -> None:
        self._d = check_power_of_two(d, "d")
        self._k = _check_budget(k, self._d)
        self._period = int(period) if period is not None else max(self._d // 8, 1)
        if self._period < 1:
            raise ValueError(f"period must be positive, got {self._period}")

    def sample(self, n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return an ``(n, d)`` matrix of phase-jittered togglers."""
        n = ensure_positive(n, "n")
        rng = as_generator(rng)
        states = np.zeros((n, self._d), dtype=np.int8)
        phases = rng.integers(1, self._period + 1, size=n)
        for user in range(n):
            toggle_times = np.arange(phases[user], self._d + 1, self._period)
            toggle_times = toggle_times[: self._k]
            value = 0
            cursor = 0
            for t in toggle_times:
                states[user, cursor : t - 1] = value
                value = 1 - value
                cursor = t - 1
            states[user, cursor:] = value
        return states


class ChurnPopulation(Population):
    """Users arriving and departing mid-horizon, with per-user activity masks.

    Models fleet churn (devices enrolling/retiring, accounts created/deleted):
    each user is *active* over one contiguous window ``[arrival .. departure)``
    and holds value 0 outside it — an absent user contributes nothing to the
    tracked count.  Inside the window the user toggles at uniformly random
    times, but never more than ``k - 1`` times: the last unit of the change
    budget is reserved for the forced drop to 0 at departure, so every user
    respects the hard ``k``-change budget by construction.

    Parameters
    ----------
    d:
        Horizon (power of two).
    k:
        Maximum changes per user (must be at least 2: one toggle into the
        active value plus the departure drop).
    arrival_window:
        Arrivals are uniform on ``[1 .. arrival_window]`` (default ``d``,
        i.e. users may arrive at any period).
    mean_lifetime:
        Mean of the geometric lifetime distribution (default ``d // 2``);
        lifetimes are truncated at the horizon.

    >>> population = ChurnPopulation(d=16, k=3)
    >>> states = population.sample(10, np.random.default_rng(0))
    >>> states.shape
    (10, 16)
    """

    def __init__(
        self,
        d: int,
        k: int,
        *,
        arrival_window: Optional[int] = None,
        mean_lifetime: Optional[int] = None,
    ) -> None:
        self._d = check_power_of_two(d, "d")
        self._k = _check_budget(k, self._d)
        if self._k < 2:
            raise ValueError(
                f"k must be at least 2 for churn (one toggle plus the "
                f"departure drop), got {k}"
            )
        self._arrival_window = (
            int(arrival_window) if arrival_window is not None else self._d
        )
        if not 1 <= self._arrival_window <= self._d:
            raise ValueError(
                f"arrival_window must be in [1, {self._d}], "
                f"got {self._arrival_window}"
            )
        self._mean_lifetime = (
            int(mean_lifetime) if mean_lifetime is not None else max(self._d // 2, 1)
        )
        if self._mean_lifetime < 1:
            raise ValueError(
                f"mean_lifetime must be positive, got {self._mean_lifetime}"
            )

    def sample_with_activity(
        self, n: int, rng: Optional[np.random.Generator] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(states, active)``: the value matrix and the activity mask.

        ``active[u, t-1]`` is true while user ``u`` is present; ``states`` is
        identically 0 wherever ``active`` is false.  Fully vectorized; the
        toggle scores are drawn and reduced one row tile
        (:func:`_row_tiles`) at a time, after ``active`` and the counts, so
        the float transients are O(tile) and the bits match one full draw.
        """
        n = ensure_positive(n, "n")
        rng = as_generator(rng)
        d = self._d
        arrivals = rng.integers(1, self._arrival_window + 1, size=n)
        lifetimes = rng.geometric(1.0 / self._mean_lifetime, size=n)
        departures = np.minimum(arrivals + lifetimes, d + 1)

        columns = np.arange(d)[np.newaxis, :]
        active = (columns >= arrivals[:, np.newaxis] - 1) & (
            columns < departures[:, np.newaxis] - 1
        )
        widths = departures - arrivals  # active periods per user, always >= 1
        counts = rng.integers(0, np.minimum(self._k - 1, widths) + 1)

        states = np.empty((n, d), dtype=np.int8)
        for start, stop in _row_tiles(n, d):
            tile_active = active[start:stop]
            # Toggle at the `counts` smallest-scored *active* cells of each row
            # (inactive cells are pushed past every rank with an infinite score).
            scores = rng.random((stop - start, d))
            scores[~tile_active] = np.inf
            toggles = _smallest_per_row(scores, counts[start:stop])
            parity = np.logical_xor.accumulate(toggles, axis=1)
            # Departure: an absent user holds 0.  If the parity was 1 at the
            # last active period this zeroing is the user's reserved k-th change.
            states[start:stop] = parity & tile_active
        return states, active

    def sample(self, n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return the ``(n, d)`` state matrix (activity mask discarded)."""
        return self.sample_with_activity(n, rng)[0]
