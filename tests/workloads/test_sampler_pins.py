"""Exact draw-stream pins of the vectorized population samplers.

Each digest is the sha256 of a sampler's output bytes for one fixed seed.
Any change to a sampler's RNG call sequence or to which cells it selects
moves a digest, so a rewrite of the selection step must leave every pin
passing unedited.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.workloads.generators import (
    BoundedChangePopulation,
    ChurnPopulation,
    ItemChangePopulation,
    TrendPopulation,
)

PINNED = {
    "bounded-exact-0.0": "513b10b01fac367388c0922053bf03896a29471a28b97af8299afe7ff440bd44",
    "bounded-exact-0.3": "c78c36fe245acf7585317822c4a6ac3505e103a02007db0f258cb3f827550d69",
    "bounded-upto-0.0": "d158c95687a236eaa2384f7d377ebc20471e2662cd5d118489c70b3bf2555573",
    "bounded-upto-0.3": "d92b37eb9d8e76b87291b23f1f1715d131076ce26ad6eb1192154c4c760a1f46",
    "bounded-block": "45e4a5285c3af17a1037bec2742d745b43b4cfc60aaea08c80b58c5ae417d720",
    "item-16-3": "1f668768cd44ce17dfc1231028704b088bcccdd56e84527356f220a15c721205",
    "item-2-2": "3bd7c0e448619b018a60f1f20f1a155575e7e1daf1513b07cf55d0cacbd1bb4e",
    "item-1-1": "8bc465c81277c3b891eabefd4b2f57ad7073b0cc2f1faa1dc59b30775e4884ae",
    "trend-sigmoid": "da013d9277f12c80f616495c9cd9b8dc9e86e4150ec6361de84e2ef5e85cb2e9",
    "trend-spike": "12f2563a5235e7a986266c1f675e9504984054f27a7d838bcfb15812bcf660fa",
    "churn-states": "6f73474686e0b28f9f1f193ed98e44f8639fdfe2c50cad6c9449e19f25b98d5a",
    "churn-active": "396b306b639cfa71280c3fc810271703b76518e801ab779dff6e587ec6c50b7f",
    "bounded-stream": "7dd0e2e4edaa14e76c5b06c6335df5e88421a2a29d6c5dc7e2cd4b783f53ba04",
}


def _digest(array: np.ndarray) -> str:
    """sha256 of an array's C-contiguous bytes (dtype asserted separately)."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("start_prob", [0.0, 0.3])
@pytest.mark.parametrize("exact_k", [True, False])
def test_bounded_uniform_is_pinned(exact_k, start_prob):
    population = BoundedChangePopulation(16, 4, exact_k=exact_k, start_prob=start_prob)
    states = population.sample(500, np.random.default_rng(3))
    assert states.dtype == np.int8
    budget = "exact" if exact_k else "upto"
    assert _digest(states) == PINNED[f"bounded-{budget}-{start_prob}"]


def test_bounded_uniform_block_is_pinned():
    """One full default block at the service benchmark's shape."""
    population = BoundedChangePopulation(256, 4, exact_k=True)
    states = population.sample(8192, np.random.default_rng(0))
    assert _digest(states) == PINNED["bounded-block"]


@pytest.mark.parametrize(("d", "k"), [(16, 3), (2, 2), (1, 1)])
def test_item_change_is_pinned(d, k):
    """Includes d=1, where there are no switch points at all."""
    items = ItemChangePopulation(d, k, 100).sample(400, np.random.default_rng(4))
    assert items.dtype == np.int64
    assert _digest(items) == PINNED[f"item-{d}-{k}"]


@pytest.mark.parametrize("curve", ["sigmoid", "spike"])
def test_trend_is_pinned(curve):
    states = TrendPopulation(64, 4, curve=curve).sample(400, np.random.default_rng(5))
    assert states.dtype == np.int8
    assert _digest(states) == PINNED[f"trend-{curve}"]


def test_churn_states_and_activity_are_pinned():
    states, active = ChurnPopulation(32, 3).sample_with_activity(
        400, np.random.default_rng(6)
    )
    assert states.dtype == np.int8 and active.dtype == np.bool_
    assert _digest(states) == PINNED["churn-states"]
    assert _digest(active) == PINNED["churn-active"]


def test_multi_block_chunk_stream_is_pinned():
    """Five 16-row blocks re-sliced into 7-row chunks."""
    population = BoundedChangePopulation(32, 3, start_prob=0.3)
    stream = np.concatenate(list(population.sample_chunks(75, 7, 9, block_rows=16)))
    assert stream.shape == (75, 32)
    assert _digest(stream) == PINNED["bounded-stream"]
