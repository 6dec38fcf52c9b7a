"""Shared statistical-conformance helpers for the bound tests.

The radius shapes and the accountable bound assertion now live in
:mod:`repro.analysis.conformance` (promoted there so the adversarial fuzzer
in :mod:`repro.fuzz` can score fitness against the exact same bounds the
test suite enforces); this module re-exports them unchanged for the test
files, and keeps the test-side :class:`ConformanceCase` configuration
bundle.

The harness contract is unchanged:

* every check runs at a **fixed seed**, so a failure is a regression in the
  code (or a wrong bound), never an unlucky draw at test time;
* every bound carries an explicit **per-trial failure probability** — the
  probability, over the protocol's own randomness, that a fresh run at a
  *new* seed would exceed the bound even with correct code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.conformance import (  # noqa: F401  (re-exported surface)
    RADIUS_BY_PROTOCOL,
    assert_error_within_bound,
    central_shape_radius,
    fault_adjusted_radius,
    hierarchical_radius,
    protocol_radius,
    single_level_radius,
    slot_sampled_radius,
)
from repro.core.params import ProtocolParams

__all__ = [
    "ConformanceCase",
    "RADIUS_BY_PROTOCOL",
    "assert_error_within_bound",
    "central_shape_radius",
    "fault_adjusted_radius",
    "hierarchical_radius",
    "protocol_radius",
    "single_level_radius",
    "slot_sampled_radius",
]


@dataclass(frozen=True)
class ConformanceCase:
    """One protocol's statistical-conformance configuration."""

    params: ProtocolParams
    radius: Callable[[ProtocolParams, float], tuple[float, float]]
    note: str
    trials: int = 3
    seed: int = 1234
