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

:class:`RandomizerFamily` is the one family class: it binds ``epsilon`` to
an :class:`~repro.core.annulus.AnnulusLaw` (which fixes ``k``) and serves
both the per-user :class:`FutureRand` (``spawn``) and the vectorized matrix
path.  The paper's law is :class:`FutureRandFamily`; the exactly calibrated
law (``analysis.calibration``) and the Bun et al. law
(``baselines.bun_composed``) are the other two.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.annulus import AnnulusLaw
from repro.core.composed_randomizer import ComposedRandomizer
from repro.utils.rng import as_generator
from repro.utils.validation import check_ternary_matrix, ensure_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.kernels import KernelLike

__all__ = [
    "FutureRand",
    "FutureRandFamily",
    "RandomizerFamily",
    "check_sparse_sign_matrix",
    "randomize_matrix_with_sampler",
]


def check_sparse_sign_matrix(matrix: np.ndarray, k: int) -> np.ndarray:
    """Validate a ``(users, L)`` matrix in {-1, 0, 1} with at most ``k`` non-zeros
    per row; return it as an array (the reference path's input contract)."""
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


class FutureRand:
    """One user's FutureRand instance (``M.init`` + ``M^(j)`` of Algorithm 3).

    Initialized with ``(L, law)``, then fed one value ``v_j in {-1, 0, 1}``
    at a time, it returns one ``{-1, +1}`` report per value and satisfies
    the three properties of Section 4.2 for any composed ``law``:

    * **Property I** (privacy): the joint law of all ``L`` outputs lies in
      ``[p_min, p_max]`` with ``p_max <= e^eps * p_min`` for every k-sparse input.
    * **Property II** (signal): ``Pr[out = v] - Pr[out = -v] = c_gap`` for
      non-zero inputs ``v``, where ``c_gap`` is the law's (Lemma 5.3).
    * **Property III** (indifference): zero inputs yield uniform ``{-1, +1}``.

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


class RandomizerFamily:
    """A family of composed randomizers sharing one exact law.

    Holds ``epsilon``, the :class:`~repro.core.annulus.AnnulusLaw` it
    calibrates (which fixes ``k``) and one :class:`ComposedRandomizer` over
    it.  Individual users supply their sequence length ``L`` (which depends
    on their sampled order) to :meth:`spawn`; :meth:`randomize_matrix` is the
    vectorized path over a whole ``(users, L)`` matrix.  The named families
    differ only in the law their ``__init__`` builds.
    """

    #: Human-readable name recorded in reports, journals and artifacts.
    name: str = "composed"

    def __init__(self, epsilon: float, law: AnnulusLaw) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self._epsilon = float(epsilon)
        self._law = law
        self._sampler = ComposedRandomizer(law)

    @property
    def k(self) -> int:
        """The sparsity bound the family is calibrated for."""
        return self._law.k

    @property
    def epsilon(self) -> float:
        """The per-user privacy budget."""
        return self._epsilon

    @property
    def law(self) -> AnnulusLaw:
        """The shared exact output law."""
        return self._law

    @property
    def c_gap(self) -> float:
        """The law's exact ``c_gap`` (Lemma 5.3), shared by all members."""
        return self._law.c_gap

    def spawn(
        self, length: int, rng: Optional[np.random.Generator] = None
    ) -> FutureRand:
        """Create one user's online randomizer for an ``L = length`` sequence."""
        return FutureRand(length, self._law, rng, composed=self._sampler)

    def randomize_matrix(
        self,
        values: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        *,
        kernel: "KernelLike" = None,
    ) -> np.ndarray:
        """Randomize a ``(users, L)`` matrix of values in {-1, 0, 1}.

        Rows are independent users; the output is a ``(users, L)`` matrix in
        {-1, +1} with the law of one :meth:`spawn`-ed randomizer per row.
        ``kernel`` selects the backend (see :mod:`repro.kernels`).
        """
        return randomize_matrix_with_sampler(
            values, self._law.k, self._sampler, as_generator(rng), kernel=kernel
        )


class FutureRandFamily(RandomizerFamily):
    """The paper's family: the law depends only on ``(k, epsilon)`` (Lemma 5.2).

    ``c_gap`` is ``Omega(epsilon / sqrt(k))``; per-user instances differ only
    in their sequence length and random stream.
    """

    name = "future_rand"

    def __init__(self, k: int, epsilon: float) -> None:
        super().__init__(epsilon, AnnulusLaw.for_future_rand(k, epsilon))
