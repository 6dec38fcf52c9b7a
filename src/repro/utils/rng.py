"""Seeded random-number-generator management.

Experiments must be reproducible and users must be statistically independent.
Independent child generators (one per shard, block or trial) are derived
from a single root seed via numpy's ``SeedSequence`` spawning, which
guarantees independence between streams.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["as_generator", "as_seed_sequence", "spawn_generators"]

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``.

    ``None`` gives fresh OS entropy; an ``int`` or ``SeedSequence`` seeds a new
    PCG64 generator; an existing ``Generator`` is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_seed_sequence(
    seed: SeedLike = None, *, reset_spawn_counter: bool = False
) -> np.random.SeedSequence:
    """Coerce ``seed`` into a ``numpy.random.SeedSequence`` spawn-tree root.

    ``None``/``int`` build a fresh root; a ``SeedSequence`` is returned
    unchanged; a ``Generator`` derives a root from its own stream (the same
    convention as :func:`spawn_generators`, so results stay reproducible
    given the parent generator's state).

    ``reset_spawn_counter=True`` returns a *counter-reset copy* of a
    ``SeedSequence`` input (same entropy and spawn key, zero children
    spawned).  ``SeedSequence.spawn`` mutates a child counter, so a node that
    has already been spawned from would otherwise hand out different
    children — callers that promise "the first ``n`` children of this node"
    (the chunked pipeline's per-block seeding) reset the counter to keep
    that promise independent of the object's history.
    """
    if isinstance(seed, np.random.SeedSequence):
        if reset_spawn_counter and seed.n_children_spawned:
            return np.random.SeedSequence(
                entropy=seed.entropy, spawn_key=seed.spawn_key
            )
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    return np.random.SeedSequence(seed)


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Return ``count`` mutually independent generators derived from ``seed``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's own stream so that the
        # children remain reproducible given the parent's state.
        entropy = int(seed.integers(0, 2**63 - 1))
        root = np.random.SeedSequence(entropy)
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]

