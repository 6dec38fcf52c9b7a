"""URL-popularity tracking — the paper's motivating search-engine scenario.

A provider wants to monitor, every period, how many users have a given URL in
their frequently-visited list, without learning any individual's list.  Users'
lists "change little every day" (Section 1), so the longitudinal protocol's
sparsity assumption holds with a small ``k``.

This example also compares against the Erlingsson et al. (2020) baseline on
the identical population, illustrating the sqrt(k)-vs-k separation at a
deployment-sized k.

Run:  python examples/url_tracking.py
"""

from __future__ import annotations

import numpy as np

from repro.core.vectorized import run_batch
from repro.protocols import get_protocol
from repro.workloads import url_tracking_scenario


def sparkline(values: np.ndarray, width: int = 64) -> str:
    """Render a count series as a terminal sparkline."""
    blocks = " .:-=+*#%@"
    bucketed = values.reshape(width, -1).mean(axis=1)
    low, high = bucketed.min(), bucketed.max()
    span = (high - low) or 1.0
    return "".join(
        blocks[int((value - low) / span * (len(blocks) - 1))] for value in bucketed
    )


def main() -> None:
    scenario = url_tracking_scenario(
        n=1_000_000, d=64, k=16, epsilon=1.0, rng=np.random.default_rng(7)
    )
    print(scenario.description)
    print()

    ours = run_batch(scenario.states, scenario.params, np.random.default_rng(1))
    theirs = get_protocol("erlingsson").run(
        scenario.states, scenario.params, np.random.default_rng(2)
    )

    print(f"true counts   {sparkline(scenario.true_counts.astype(float))}")
    print(f"future_rand   {sparkline(ours.estimates)}")
    print(f"erlingsson    {sparkline(theirs.estimates)}")
    print()
    print(f"n = {scenario.params.n:,}; k = {scenario.params.k} "
          "(beyond the small-k crossover)")
    print(f"future_rand max error:  {ours.max_abs_error:12,.0f} "
          f"({ours.max_abs_error / scenario.params.n:.1%} of n)")
    print(f"erlingsson  max error:  {theirs.max_abs_error:12,.0f} "
          f"({theirs.max_abs_error / scenario.params.n:.1%} of n)")
    print(f"erlingsson / future_rand = {theirs.max_abs_error / ours.max_abs_error:.2f}x")


if __name__ == "__main__":
    main()
