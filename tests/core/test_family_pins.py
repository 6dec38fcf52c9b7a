"""Exact output pins of the three composed randomizer families.

Each digest is the sha256 of one seeded call: ``randomize_matrix`` over a
fixed k-sparse ``{-1, 0, 1}`` matrix under the default (``kernel=None``)
and the ``"fast"`` backend, and the reports of twenty :class:`Client`\\ s
built through ``family.spawn``.  The family's exact ``c_gap`` is hashed
with its outputs.  A refactor of the family classes must leave every pin
passing unedited; ``kernel="reference"`` must equal ``kernel=None`` bit for
bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.calibration import CalibratedFutureRandFamily
from repro.baselines.bun_composed import BunComposedFamily
from repro.core.client import Client
from repro.core.future_rand import FutureRandFamily

_K, _EPSILON = 4, 1.0
_USERS, _LENGTH, _D = 400, 16, 16

FAMILIES = {
    "future_rand": FutureRandFamily,
    "future_rand_calibrated": CalibratedFutureRandFamily,
    "bun_composed": BunComposedFamily,
}

PINNED = {
    "future_rand-matrix-reference": (
        "150bcf4071ec2823edce66b48e8660acc036732e910bb96e735504d186854b6f"
    ),
    "future_rand-matrix-fast": (
        "3f81a244b9f16562a36d670cadd63660aa8904d5f2c4e911cdebcf66d0e6fb5f"
    ),
    "future_rand-clients": (
        "7383bcc3bea808b85daf1fcb8e5466d2914596b353ce2149ec2f8f6c9e0315dc"
    ),
    "future_rand_calibrated-matrix-reference": (
        "e069d799898eea4685f3fa8833d55b3bee8e031d175f43e50a2f5901099595a8"
    ),
    "future_rand_calibrated-matrix-fast": (
        "3196985b9c0e0c6a3b032809d1a04a3117862dd576374f7a4ecab8afa5616df1"
    ),
    "future_rand_calibrated-clients": (
        "5515010c3a9528d7b82dd9c9b662024ff0618c02b7d1fecd60cefc0e88385f8d"
    ),
    "bun_composed-matrix-reference": (
        "9e24d5b3a08d1346368ff1fda9bd34ca06cac5ba696057295d278fe1409ce30f"
    ),
    "bun_composed-matrix-fast": (
        "4026d98c0246eb2b6a1c13124ecbd0f5b69ef527d8574f937ed1c0ab38a3f43a"
    ),
    "bun_composed-clients": (
        "0765340a6a9003acf0fb8be16131e6f0597f136f88971f31bcac2444f5ff279e"
    ),
}


def _digest(*arrays: np.ndarray) -> str:
    """sha256 over the little-endian bytes of ``arrays``, in order."""
    hasher = hashlib.sha256()
    for array in arrays:
        little_endian = array.dtype.newbyteorder("<")
        hasher.update(np.ascontiguousarray(array, dtype=little_endian).tobytes())
    return hasher.hexdigest()


def _sparse_values() -> np.ndarray:
    """A ``(users, L)`` matrix with 0..k non-zero signs per row at random places."""
    rng = np.random.default_rng(7)
    counts = rng.integers(0, _K + 1, size=_USERS)
    ranks = np.argsort(np.argsort(rng.random((_USERS, _LENGTH)), axis=1), axis=1)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(_USERS, _LENGTH))
    return np.where(ranks < counts[:, np.newaxis], signs, 0).astype(np.int8)


def _client_reports(family) -> np.ndarray:
    """``(user, order, index, bit)`` of every report twenty clients emit."""
    rng = np.random.default_rng(5)
    changes = np.random.default_rng(9).random((20, _D)) < 0.15
    states = np.cumsum(changes, axis=1) % 2
    rows = []
    for user, row in enumerate(states):
        client = Client(user, _D, family, rng)
        for state in row:
            report = client.step(int(state))
            if report is not None:
                rows.append((report.user_id, report.order, report.index, report.bit))
    return np.array(rows, dtype=np.int64)


def test_pinned_values_are_k_sparse_and_use_every_count():
    values = _sparse_values()
    support = np.count_nonzero(values, axis=1)
    assert set(support.tolist()) == set(range(_K + 1))


@pytest.mark.parametrize("kernel", [None, "reference", "fast"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_randomize_matrix_is_pinned(name, kernel):
    family = FAMILIES[name](_K, _EPSILON)
    assert family.name == name
    reports = family.randomize_matrix(
        _sparse_values(), np.random.default_rng(3), kernel=kernel
    )
    assert reports.dtype == np.int8 and reports.shape == (_USERS, _LENGTH)
    pin = f"{name}-matrix-{'fast' if kernel == 'fast' else 'reference'}"
    assert _digest(np.array([family.c_gap]), reports) == PINNED[pin]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_spawned_client_reports_are_pinned(name):
    family = FAMILIES[name](_K, _EPSILON)
    reports = _client_reports(family)
    assert reports.shape[1] == 4 and len(reports) >= 20
    assert _digest(np.array([family.c_gap]), reports) == PINNED[f"{name}-clients"]
