"""FutureRand — the paper's online sequence randomizer ``M`` (Algorithm 3).

The randomizer "randomizes the future": at initialization it draws
``b~ = R~(1^k)`` — the composed randomizer applied to the all-ones vector —
*before any input arrives*.  By the symmetry of the input space, multiplying
the i-th non-zero input coordinate by ``b~_i`` is distributed exactly as if
the composed randomizer had been applied to the true non-zero coordinates
offline (Section 5.3), so each report can be emitted the moment its value is
known.  Zero coordinates are answered with fresh uniform ``{-1, +1}`` bits
(Property III).

Inputs with fewer than ``k`` non-zeros simply leave a suffix of ``b~`` unused;
Section 5.4 shows the guarantees are unaffected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.annulus import AnnulusLaw
from repro.core.composed_randomizer import ComposedRandomizer
from repro.core.interfaces import RandomizerFamily, SequenceRandomizer
from repro.utils.rng import as_generator
from repro.utils.validation import check_ternary_matrix, ensure_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.kernels import KernelLike

__all__ = [
    "FutureRand",
    "FutureRandFamily",
    "check_sparse_sign_matrix",
    "randomize_matrix_with_sampler",
]


def check_sparse_sign_matrix(matrix: np.ndarray, k: int) -> np.ndarray:
    """Validate a ``(users, L)`` matrix in {-1, 0, 1} with at most ``k`` non-zeros
    per row; return it as an array.  Shared by every kernel backend."""
    matrix = check_ternary_matrix(matrix, "values")
    support = np.count_nonzero(matrix, axis=1)
    if (support > k).any():
        raise ValueError(
            f"a row has {int(support.max())} non-zero values, exceeding the "
            f"bound k={k}"
        )
    return matrix


def _reference_randomize_composed(
    matrix: np.ndarray,
    k: int,
    sampler: ComposedRandomizer,
    rng: np.random.Generator,
) -> np.ndarray:
    """The bit-exact NumPy path (``kernel="reference"``); see module docstring.

    Every frozen-reference and bit-identity test vector in the suite was
    recorded against this randomness consumption order — change it and those
    vectors are invalidated.  Faster strategies belong in a new backend
    (:mod:`repro.kernels`), not here.
    """
    matrix = check_sparse_sign_matrix(matrix, k)
    users, length = matrix.shape
    if users == 0:
        return np.zeros((0, length), dtype=np.int8)
    ones = np.ones(k, dtype=np.int8)
    b_tilde = sampler.sample_batch(ones, users, rng)
    # Index of each entry into its row's b~: the running non-zero count.
    nnz_index = np.cumsum(matrix != 0, axis=1) - 1
    nnz_index = np.clip(nnz_index, 0, k - 1)
    rows = np.arange(users)[:, np.newaxis]
    signal = (matrix * b_tilde[rows, nnz_index]).astype(np.int8)
    noise = rng.choice(np.array([-1, 1], dtype=np.int8), size=matrix.shape)
    return np.where(matrix == 0, noise, signal).astype(np.int8)


def randomize_matrix_with_sampler(
    matrix: np.ndarray,
    k: int,
    sampler: ComposedRandomizer,
    rng: np.random.Generator,
    *,
    kernel: "KernelLike" = None,
) -> np.ndarray:
    """Vectorized FutureRand-style randomization of a ``(users, L)`` matrix.

    Shared kernel for every composed-randomizer family (the paper's law and
    the Bun et al. law differ only in the ``sampler``): each row gets an
    independent pre-computed ``b~ = sampler(1^k)``; the i-th non-zero of row
    ``u`` is multiplied by ``b~[u, i]``; zeros get fresh uniform signs.

    ``kernel`` selects the backend (:mod:`repro.kernels`): ``None`` keeps the
    historical bit-exact NumPy path; ``"fast"`` draws the same distribution
    with batched raw-bit streams and exact annulus-distance sampling.
    """
    if kernel is None:
        return _reference_randomize_composed(matrix, k, sampler, rng)
    # Imported lazily: repro.kernels registers backends that delegate to the
    # reference implementation above (a module-level import would be cyclic).
    from repro.kernels import resolve_kernel

    return resolve_kernel(kernel).randomize_composed_matrix(matrix, k, sampler, rng)


class FutureRand(SequenceRandomizer):
    """One user's FutureRand instance (``M.init`` + ``M^(j)`` of Algorithm 3).

    >>> law = AnnulusLaw.for_future_rand(k=4, epsilon=1.0)
    >>> randomizer = FutureRand(length=8, law=law, rng=np.random.default_rng(1))
    >>> randomizer.randomize(0) in (-1, 1)
    True
    >>> randomizer.randomize(1) in (-1, 1)
    True
    """

    def __init__(
        self,
        length: int,
        law: AnnulusLaw,
        rng: Optional[np.random.Generator] = None,
        *,
        composed: Optional[ComposedRandomizer] = None,
    ) -> None:
        self._length = ensure_positive(length, "length")
        self._law = law
        self._rng = as_generator(rng)
        sampler = composed if composed is not None else ComposedRandomizer(law)
        # --- M.init: the pre-computation step (Algorithm 3, lines 8-11). ---
        ones = np.ones(law.k, dtype=np.int8)
        self._b_tilde = sampler.sample(ones, self._rng)
        self._nnz = 0
        self._position = 0

    @property
    def length(self) -> int:
        """``L``: the number of values this randomizer will be fed."""
        return self._length

    @property
    def sparsity(self) -> int:
        """``k``: the maximum number of non-zero inputs supported."""
        return self._law.k

    @property
    def c_gap(self) -> float:
        """Exact ``c_gap`` of the underlying composed randomizer (Lemma 5.3)."""
        return self._law.c_gap

    @property
    def precomputed_noise(self) -> np.ndarray:
        """A read-only view of ``b~ = R~(1^k)`` (for inspection/testing)."""
        view = self._b_tilde.view()
        view.flags.writeable = False
        return view

    def randomize(self, value: int) -> int:
        """``M^(j)(v_j)`` — perturb the next input value (Algorithm 3, lines 12-17)."""
        if value not in (-1, 0, 1):
            raise ValueError(f"value must be in {{-1, 0, 1}}, got {value}")
        if self._position >= self._length:
            raise RuntimeError(
                f"randomizer already consumed all L={self._length} inputs"
            )
        self._position += 1
        if value == 0:
            return -1 if self._rng.random() < 0.5 else 1
        if self._nnz >= self._law.k:
            raise RuntimeError(
                f"input has more than k={self._law.k} non-zero values; the "
                "privacy calibration assumed k-sparsity"
            )
        self._nnz += 1
        return int(value * self._b_tilde[self._nnz - 1])


class FutureRandFamily(RandomizerFamily):
    """Factory for :class:`FutureRand` instances sharing one exact law.

    The law (and hence ``c_gap``) depends only on ``(k, epsilon)``; per-user
    instances differ only in their sequence length and random stream.
    """

    name = "future_rand"

    def __init__(self, k: int, epsilon: float) -> None:
        super().__init__(k, epsilon)
        self._law = AnnulusLaw.for_future_rand(k, epsilon)
        self._sampler = ComposedRandomizer(self._law)

    @property
    def law(self) -> AnnulusLaw:
        """The shared exact output law."""
        return self._law

    @property
    def c_gap(self) -> float:
        """Exact ``c_gap`` (Lemma 5.3); ``Omega(epsilon / sqrt(k))``."""
        return self._law.c_gap

    def spawn(
        self, length: int, rng: Optional[np.random.Generator] = None
    ) -> FutureRand:
        """Create one user's FutureRand for an ``L = length`` sequence."""
        return FutureRand(length, self._law, rng, composed=self._sampler)

    def randomize_matrix(
        self,
        values: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        *,
        kernel: "KernelLike" = None,
    ) -> np.ndarray:
        """Vectorized FutureRand over a ``(users, L)`` matrix in {-1, 0, 1}.

        Each row gets an independent pre-computed ``b~``; the i-th non-zero of
        row ``u`` is multiplied by ``b~[u, i]``; zeros get fresh uniform signs.
        ``kernel`` selects the backend (see :mod:`repro.kernels`).
        """
        rng = as_generator(rng)
        return randomize_matrix_with_sampler(
            values, self._k, self._sampler, rng, kernel=kernel
        )
