"""The ``"fast"`` backend: exact-law sampling with cheap randomness.

Same output distribution as ``"reference"`` (proved by the TV-distance
exact-law tests and the statistical-conformance harness), an order of
magnitude less RNG bandwidth and no sorting:

* **Distance-first composed sampling.**  The law of ``R~(b)`` depends on a
  candidate output only through its Hamming distance from ``b``, and given
  the distance the flipped subset is uniform (exchangeability — both the
  inside branch's conditioned Bernoulli vector and the uniform-outside
  branch are permutation-invariant).  So instead of ``k`` float64 Bernoulli
  draws per row plus a rejection loop with a double argsort, the fast path
  samples each row's distance directly from the exact
  :meth:`~repro.core.annulus.AnnulusLaw.distance_pmf` via a cached
  :class:`~repro.kernels.alias.AliasTable` (one integer + one float per
  row), then flips exactly ``distance`` uniformly-chosen positions with a
  vectorized partial Fisher–Yates — O(n · distance) work, int8/int32
  temporaries.  The annulus/complement split disappears: the pmf already
  accounts for both branches, including the degenerate uniform-outside mode
  (laws whose annulus covers every distance, where the pmf is the pure
  binomial branch).
* **Raw-bit uniform signs.**  ``{-1, +1}`` noise (Property III zeros) is
  unpacked from a raw byte stream — exactly Bernoulli(1/2) per bit at 1 bit
  of randomness per report instead of ``Generator.choice``'s 64.
* **Scatter instead of dense algebra.**  ``randomize_matrix`` touches only
  the ``<= n*k`` non-zero entries (one ``np.nonzero`` + scatter) rather
  than materializing full ``(n, L)`` cumsum/gather/where temporaries.
* **Preallocated per-chunk buffers.**  The Fisher–Yates permutation scratch
  is reused across calls of the same shape, which is what the repeated
  fixed-size seed blocks of the chunked mode (:mod:`repro.core.vectorized`)
  hit; outputs are always freshly allocated, so callers may keep them.

Determinism: given the same seeded generator the fast kernel is fully
deterministic, but it consumes the stream differently from the reference
kernel — outputs across backends agree in distribution, never bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.alias import AliasTable
from repro.kernels.base import RandomizerKernel
from repro.utils.validation import check_ternary_matrix

__all__ = ["FastKernel"]


class FastKernel(RandomizerKernel):
    """High-throughput backend: alias-table distances + raw-bit streams."""

    name = "fast"

    def __init__(self) -> None:
        #: Alias tables per law parameters; each is O(k) floats, built once.
        self._tables: dict[tuple, AliasTable] = {}
        #: Reused internal scratch (never returned to callers), keyed by tag.
        self._buffers: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Primitive: uniform {-1, +1} signs from raw bits
    # ------------------------------------------------------------------

    def uniform_signs(
        self, shape: tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        total = int(np.prod(shape))
        if total == 0:
            return np.zeros(shape, dtype=np.int8)
        words = rng.integers(0, 256, size=-(-total // 8), dtype=np.uint8)
        bits = np.unpackbits(words, count=total)
        # In-place 0/1 -> -1/+1: 0 wraps to 255 under uint8, which *is* -1
        # as int8, so the reinterpreting view below is exact and copy-free.
        bits <<= 1
        bits -= 1
        return bits.view(np.int8).reshape(shape)

    # ------------------------------------------------------------------
    # Primitive: exact-size uniform subsets (partial Fisher–Yates)
    # ------------------------------------------------------------------

    def _scratch(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        buffer = self._buffers.get(tag)
        if (
            buffer is None
            or buffer.shape != shape
            or buffer.dtype != np.dtype(dtype)
        ):
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[tag] = buffer
        return buffer

    def _uniform_subset_indices(
        self,
        count: int,
        k: int,
        sizes: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row/column indices of one uniform ``sizes[i]``-subset of ``[0..k)``
        per row — the scatter targets for "flip exactly ``distance`` positions".

        Runs ``max(sizes)`` vectorized partial Fisher–Yates steps: step ``t``
        swaps column ``t`` of a per-row permutation with a uniform column in
        ``[t, k)`` for every row at once, so after ``sizes[i]`` steps the
        permutation prefix of row ``i`` is a uniform subset.  Swapping past a
        row's own size is harmless (positions ``>= sizes[i]`` are never read)
        and keeps every step a fixed-bound draw.
        """
        max_size = int(sizes.max(initial=0))
        if max_size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        perm = self._scratch("fisher_yates_perm", (count, k), np.int32)
        perm[:] = np.arange(k, dtype=np.int32)[np.newaxis, :]
        rows = np.arange(count)
        for step in range(max_size):
            draw = rng.integers(step, k, size=count)
            chosen = perm[rows, draw]
            current = perm[:, step].copy()
            perm[:, step] = chosen
            perm[rows, draw] = current
        prefix = perm[:, :max_size]
        select = np.arange(max_size)[np.newaxis, :] < sizes[:, np.newaxis]
        return np.repeat(rows, sizes), prefix[select].astype(np.int64)

    # ------------------------------------------------------------------
    # Composed randomizer: distance-first exact-law sampling
    # ------------------------------------------------------------------

    def _distance_table(self, law) -> AliasTable:
        key = (law.k, law.eps_tilde, law.lo, law.hi)
        table = self._tables.get(key)
        if table is None:
            table = AliasTable(law.distance_pmf())
            self._tables[key] = table
        return table

    def sample_composed_batch(
        self,
        law,
        b: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        b = np.asarray(b, dtype=np.int8)
        output = np.repeat(b[np.newaxis, :], count, axis=0)
        if count == 0:
            return output
        distances = self._distance_table(law).sample(count, rng)
        rows, columns = self._uniform_subset_indices(count, law.k, distances, rng)
        output[rows, columns] = -output[rows, columns]
        return output

    def randomize_composed_matrix(
        self,
        matrix: np.ndarray,
        k: int,
        sampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        matrix = check_ternary_matrix(matrix, "values")
        users, length = matrix.shape
        if users == 0:
            return np.zeros((0, length), dtype=np.int8)
        signal_rows, signal_columns = np.nonzero(matrix)
        support = np.bincount(signal_rows, minlength=users)
        if signal_rows.size and support.max() > k:
            raise ValueError(
                f"a row has {int(support.max())} non-zero values, exceeding "
                f"the bound k={k}"
            )
        b_tilde = self.sample_composed_batch(
            sampler.law, np.ones(k, dtype=np.int8), users, rng
        )
        output = self.uniform_signs((users, length), rng)
        if signal_rows.size:
            # Rank of each non-zero within its row (np.nonzero is row-major),
            # i.e. the index into that user's b~ — no (n, L) cumsum needed.
            rank = np.arange(signal_rows.size) - (np.cumsum(support) - support)[
                signal_rows
            ]
            output[signal_rows, signal_columns] = (
                matrix[signal_rows, signal_columns] * b_tilde[signal_rows, rank]
            ).astype(np.int8)
        return output
