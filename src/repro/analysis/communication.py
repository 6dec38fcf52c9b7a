"""Communication-cost accounting for every protocol.

The paper's setting assumes one-bit reports ("many LDP algorithms require each
client to send just one bit", Section 1).  This module makes the costs
explicit so deployments can compare the protocols along the axis the
introduction motivates:

* FutureRand / Erlingsson: the user announces ``h_u`` once
  (``ceil(log2(1 + log2 d))`` bits) and then sends one bit per multiple of
  ``2^(h_u)`` — in expectation over ``h_u``, just under ``2d / (1 + log2 d)``
  bits across the horizon.
* Naive repetition: exactly one bit every period (``d`` bits).
* Offline full tree: ``2d - 1`` bits in one shot.
* Central model: no randomized report; the user ships its exact data
  (``d`` bits, but no privacy — listed for reference).
"""

from __future__ import annotations

import math

from repro.core.params import ProtocolParams
from repro.sim.results import ResultTable

__all__ = [
    "expected_report_bits",
    "order_announcement_bits",
    "communication_table",
]


def order_announcement_bits(params: ProtocolParams) -> int:
    """Bits to announce the sampled order ``h_u`` once."""
    return max(1, math.ceil(math.log2(params.num_orders)))


def expected_report_bits(params: ProtocolParams, protocol: str) -> float:
    """Expected total report bits one user sends over the whole horizon."""
    d = params.d
    num_orders = params.num_orders
    if protocol in ("future_rand", "erlingsson2020", "bun_composed"):
        # E[d / 2^h] over uniform h in [0 .. log2 d], plus the announcement.
        expected_reports = sum(d >> order for order in range(num_orders)) / num_orders
        return expected_reports + order_announcement_bits(params)
    if protocol in ("naive_rr_split", "naive_rr_unsplit", "memoization"):
        return float(d)
    if protocol == "offline_tree":
        return float(2 * d - 1)
    if protocol == "central_tree":
        return float(d)  # exact data; no local randomization (reference only)
    raise ValueError(f"unknown protocol {protocol!r}")


def communication_table(params: ProtocolParams) -> ResultTable:
    """Per-protocol expected bits per user (total and per-period average)."""
    table = ResultTable(
        title=f"Per-user communication (d={params.d})",
        columns=["protocol", "total_bits", "bits_per_period"],
        notes=(
            "Hierarchical protocols send ~2d/(1+log2 d) bits; the offline "
            "tree trades a one-shot 2d-1-bit report for offline-only output."
        ),
    )
    for protocol in (
        "future_rand",
        "erlingsson2020",
        "naive_rr_split",
        "offline_tree",
        "central_tree",
    ):
        total = expected_report_bits(params, protocol)
        table.add_row(
            protocol=protocol,
            total_bits=total,
            bits_per_period=total / params.d,
        )
    return table
