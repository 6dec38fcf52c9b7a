"""Exact output pins of the chunked (seed-block) FutureRand path.

Each digest is the sha256 of one seeded chunked run's outputs at
n = 20 000, which spans three default seed blocks (8192 + 8192 + 3616
users), so the re-grouping of chunks into blocks and the per-block seeding
are both exercised.  Any change to which users a block holds, to the block
seeds or to the block step's draws moves a digest, so a rewrite of the
chunked path must leave every pin passing unedited.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.core.vectorized import collect_tree_reports, run_batch
from repro.utils.chunking import DEFAULT_BLOCK_ROWS
from repro.workloads.generators import BoundedChangePopulation

_PARAMS = ProtocolParams(n=20_000, d=16, k=3, epsilon=1.0)
_WEIGHTS = [4.0, 2.0, 1.0, 1.0, 0.5]

PINNED = {
    "matrix-uniform-reference": "bcc8c5ed67c3793f4eaf65f8ed995ee18df9d903fa19c7cc87c4d137922e270c",
    "matrix-uniform-fast": "97ebd643f7e133c17b1c91366fa85c4be09fb0270d504183b87acace9b463283",
    "matrix-weighted-reference": "b086858b824f249e48632fa6e826802f64e6a7fe960c6aad350249135d02c265",
    "matrix-weighted-fast": "6a33ae34df95f4ae47aa3ea40166c37ba2d9a7649a679c548fe3d0fd3644d292",
    "stream-uniform-reference": "ef39100cd651307e2e3bad96b53c93ca64948e6863d2bfc9ea11fbe8854443d0",
    "stream-uniform-fast": "0a1d9fe4f19df26a58b47f4a2250d06ae4380415caa685605b7204852726c6de",
    "stream-weighted-reference": "71eec8c33dcd3df0fe8bae883fa3454f05e97969a3aa6bde52437044fa0b9a17",
    "stream-weighted-fast": "a1b8f1181122e10d32b18e4de5aa71c3524b9c17ba150ebc3476beb166f352d1",
    "tree-matrix": "b9a2c9dd14bdc4f7ea181e6f9518973ceb9fb25a2af9c6e83a017b8fec7aa286",
    "tree-stream": "dd3091a7c8f59c3ef996ad2366804bc7871e47f40672e4e8adae85caf60791ea",
}


def _digest(*arrays: np.ndarray) -> str:
    """sha256 over the little-endian bytes of ``arrays``, in order."""
    hasher = hashlib.sha256()
    for array in arrays:
        little_endian = array.dtype.newbyteorder("<")
        hasher.update(np.ascontiguousarray(array, dtype=little_endian).tobytes())
    return hasher.hexdigest()


def _population() -> BoundedChangePopulation:
    return BoundedChangePopulation(_PARAMS.d, _PARAMS.k, start_prob=0.2)


def _states(source: str):
    """The workload as one matrix, or as a 5000-row chunk stream."""
    if source == "matrix":
        return _population().sample(_PARAMS.n, np.random.default_rng(11))
    return _population().sample_chunks(_PARAMS.n, 5000, 11)


def test_pinned_size_spans_three_seed_blocks():
    assert -(-_PARAMS.n // DEFAULT_BLOCK_ROWS) == 3


@pytest.mark.parametrize("kernel", [None, "fast"])
@pytest.mark.parametrize("weights", ["uniform", "weighted"])
@pytest.mark.parametrize("source", ["matrix", "stream"])
def test_chunked_run_batch_is_pinned(source, weights, kernel):
    result = run_batch(
        _states(source),
        _PARAMS,
        5,
        chunk_size=3000,
        order_weights=_WEIGHTS if weights == "weighted" else None,
        kernel=kernel,
    )
    assert result.orders.shape == (_PARAMS.n,)
    name = f"{source}-{weights}-{kernel or 'reference'}"
    assert _digest(result.estimates, result.true_counts, result.orders) == PINNED[name]


@pytest.mark.parametrize("source", ["matrix", "stream"])
def test_chunked_tree_reports_are_pinned(source):
    """Raw node sums and group sizes, seeded from a ``Generator``."""
    reports = collect_tree_reports(
        _states(source), _PARAMS, np.random.default_rng(6), chunk_size=7001
    )
    assert int(reports.group_sizes.sum()) == _PARAMS.n
    assert _digest(*reports.node_sums, reports.group_sizes) == PINNED[f"tree-{source}"]
