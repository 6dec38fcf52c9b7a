"""Kernel backend interface and registry.

A :class:`RandomizerKernel` is one *implementation strategy* for the three
hot sampling primitives every randomizer family reduces to.  Every family is
composed (:class:`repro.core.future_rand.RandomizerFamily`), so the three are
drawing ``b~ = R~(b)`` batches, drawing uniform ``{-1, +1}`` noise, and
running the full composed ``randomize_matrix`` client path.  Backends differ
only in *how* they consume the supplied ``numpy.random.Generator``; the
output **distribution** is part of the contract and is identical for every
backend (enforced by the exact-law TV-distance tests and the
statistical-conformance harness).

Registry semantics mirror :mod:`repro.protocols.registry`: string-keyed
singletons, :func:`get_kernel` lookup with an actionable ``KeyError``,
:func:`register_kernel` for extensions.  :func:`resolve_kernel` is the seam
consumers use: it accepts ``None`` (meaning "the caller's built-in default
path", returned as ``None`` so bit-exact legacy code paths stay untouched),
a registry name, or a kernel instance.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

if TYPE_CHECKING:  # import cycle: core.future_rand imports the kernels
    from repro.core.annulus import AnnulusLaw
    from repro.core.composed_randomizer import ComposedRandomizer

__all__ = [
    "DEFAULT_KERNEL",
    "KERNELS",
    "KernelLike",
    "RandomizerKernel",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "resolve_kernel",
]

#: The backend every driver uses when no ``kernel=`` is supplied: the
#: bit-exact NumPy path the frozen-reference test vectors were recorded on.
DEFAULT_KERNEL = "reference"


class RandomizerKernel(abc.ABC):
    """One backend implementation of the randomizer sampling primitives.

    Kernels may hold internal scratch buffers (the fast backend reuses
    per-chunk temporaries between calls), so instances are not thread-safe;
    the registry singletons are safe under the library's single-threaded /
    multi-*process* execution model (each worker process imports its own
    module copy).

    Every method takes the caller's ``Generator`` and is deterministic given
    it: same seed + same kernel = same output.  Different kernels consume the
    stream differently, so outputs across kernels agree in *distribution*,
    never bit-for-bit.
    """

    #: Stable registry key.
    name: str = "abstract"

    @abc.abstractmethod
    def sample_composed_batch(
        self,
        law: AnnulusLaw,
        b: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return ``count`` independent draws of ``R~(b)`` as ``(count, k)`` int8.

        ``law`` is the :class:`~repro.core.annulus.AnnulusLaw` the draws must
        realize exactly; ``b`` is a validated ``{-1, +1}`` vector of length
        ``law.k``.
        """

    @abc.abstractmethod
    def uniform_signs(
        self, shape: tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Return uniform i.i.d. ``{-1, +1}`` int8 values of ``shape``."""

    @abc.abstractmethod
    def randomize_composed_matrix(
        self,
        matrix: np.ndarray,
        k: int,
        sampler: ComposedRandomizer,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """FutureRand-style randomization of a ``(users, L)`` ternary matrix.

        ``sampler`` is the family's :class:`ComposedRandomizer`; each row
        gets an independent ``b~ = R~(1^k)``, the i-th non-zero of row ``u``
        is multiplied by ``b~[u, i]``, zeros get fresh uniform signs.
        Validates shape, ``{-1, 0, 1}`` entries and k-sparsity.
        """


#: Anything :func:`resolve_kernel` accepts: ``None`` (caller default), a
#: registry name, or a kernel instance.
KernelLike = Union[None, str, RandomizerKernel]

#: Registered kernel backends, keyed by :attr:`RandomizerKernel.name`.
KERNELS: dict[str, RandomizerKernel] = {}


def register_kernel(
    kernel: RandomizerKernel, *, overwrite: bool = False
) -> RandomizerKernel:
    """Add ``kernel`` to the registry under its ``name``; return it.

    Re-registering an existing name raises unless ``overwrite=True`` —
    silently shadowing the reference backend would invalidate every
    bit-identity guarantee downstream.
    """
    if not isinstance(kernel, RandomizerKernel):
        raise TypeError(
            f"expected a RandomizerKernel instance, got {kernel!r}"
        )
    if kernel.name in KERNELS and not overwrite:
        raise ValueError(
            f"kernel {kernel.name!r} is already registered; pass "
            "overwrite=True to replace it"
        )
    KERNELS[kernel.name] = kernel
    return kernel


def get_kernel(name: str) -> RandomizerKernel:
    """Return the registered kernel for ``name``, or raise ``KeyError``."""
    kernel = KERNELS.get(name)
    if kernel is None:
        known = ", ".join(sorted(KERNELS))
        raise KeyError(f"unknown kernel {name!r}; known: {known}")
    return kernel


def available_kernels() -> list[str]:
    """Sorted names of every registered kernel backend."""
    return sorted(KERNELS)


def resolve_kernel(spec: KernelLike) -> Optional[RandomizerKernel]:
    """Normalize a ``kernel=`` argument.

    ``None`` passes through as ``None`` — callers treat it as "use my
    built-in default path", which is how the historical (pre-registry) code
    stays byte-for-byte untouched; a string resolves through the registry;
    a kernel instance is returned as-is.
    """
    if spec is None:
        return None
    if isinstance(spec, RandomizerKernel):
        return spec
    if isinstance(spec, str):
        return get_kernel(spec)
    raise TypeError(
        f"cannot resolve {spec!r} into a kernel; expected None, a registry "
        "name, or a RandomizerKernel instance"
    )
