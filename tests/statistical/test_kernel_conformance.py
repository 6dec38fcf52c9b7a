"""Statistical conformance of the fast kernel, per randomizer family.

The perf claim of :mod:`repro.kernels` is only worth anything if the fast
backend estimates are exactly as accurate as the reference ones.  For every
concrete :class:`RandomizerFamily` in the library, run the full protocol
through ``run_batch(..., kernel=...)`` under *both* backends and assert the
observed worst-case error stays inside the family's analytical Eq. 13
radius with explicit failure accounting — the same pinned-seed harness the
protocol registry is held to.  A meta-test enumerates the concrete family
subclasses so a new family cannot ship without a fast-kernel conformance
case.
"""

from __future__ import annotations

import numpy as np
import pytest
from conformance_harness import assert_error_within_bound, hierarchical_radius

from repro.analysis.calibration import CalibratedFutureRandFamily
from repro.baselines.bun_composed import BunComposedFamily
from repro.core.future_rand import FutureRandFamily, RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.vectorized import run_batch
from repro.utils.rng import spawn_generators
from repro.workloads.generators import BoundedChangePopulation

#: Same reference configuration as the protocol conformance suite: the
#: Eq. 13 radius is non-vacuous here for every family below.
_PARAMS = ProtocolParams(n=20_000, d=64, k=4, epsilon=1.0)
_TRIALS = 3
_SEED = 1234

#: Every concrete randomizer family, by constructor.  The Eq. 13 radius is
#: computed from each family's own exact c_gap, so one radius function
#: covers them all.
FAMILY_FACTORIES = {
    "future_rand": FutureRandFamily,
    "bun_composed": BunComposedFamily,
    "future_rand_calibrated": CalibratedFutureRandFamily,
}


def test_every_concrete_family_has_a_kernel_conformance_case():
    """A new RandomizerFamily subclass must be added to this suite."""

    def concrete_subclasses(base):
        found = set()
        for subclass in base.__subclasses__():
            found.add(subclass)
            found |= concrete_subclasses(subclass)
        return found

    covered = {factory for factory in FAMILY_FACTORIES.values()}
    missing = sorted(
        subclass.__name__
        for subclass in concrete_subclasses(RandomizerFamily)
        # Library families only: test suites define throwaway toy families.
        if subclass not in covered and subclass.__module__.startswith("repro.")
    )
    assert not missing, (
        f"randomizer families {missing} have no fast-kernel statistical "
        f"conformance case in tests/statistical/test_kernel_conformance.py"
    )


def _observed_worst_error(family, kernel: str) -> float:
    root = np.random.SeedSequence(_SEED)
    (workload_rng,) = spawn_generators(root, 1)
    states = BoundedChangePopulation(_PARAMS.d, _PARAMS.k, exact_k=True).sample(
        _PARAMS.n, workload_rng
    )
    trial_rngs = spawn_generators(root.spawn(1)[0], _TRIALS)
    return max(
        run_batch(states, _PARAMS, rng, family=family, kernel=kernel).max_abs_error
        for rng in trial_rngs
    )


@pytest.mark.slow
@pytest.mark.parametrize("kernel", ["fast", "reference"])
@pytest.mark.parametrize("name", sorted(FAMILY_FACTORIES))
def test_family_error_within_analytical_bound(name: str, kernel: str):
    """Both backends keep every family inside its own Eq. 13 radius."""
    family = FAMILY_FACTORIES[name](_PARAMS.k, _PARAMS.epsilon)
    bound, per_trial_failure = hierarchical_radius(_PARAMS, family.c_gap)
    observed = _observed_worst_error(family, kernel)
    assert_error_within_bound(
        protocol=f"{name}[kernel={kernel}]",
        observed_max_abs=observed,
        bound=bound,
        per_trial_failure_probability=per_trial_failure,
        trials=_TRIALS,
        seed=_SEED,
        note=f"Eq. 13 with {name}'s exact c_gap through the {kernel} backend",
    )


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FAMILY_FACTORIES))
def test_fast_matches_reference_error_scale(name: str):
    """Fast and reference worst-case errors agree in magnitude.

    Both are draws of the same error distribution, whose scale is set by
    ``sqrt(n) / c_gap``; a kernel bug that silently inflated variance (say,
    double-flipping) would separate the two by far more than seed noise.
    The factor-4 envelope is ~10x looser than the observed seed-to-seed
    spread at this configuration.
    """
    family = FAMILY_FACTORIES[name](_PARAMS.k, _PARAMS.epsilon)
    fast = _observed_worst_error(family, "fast")
    reference = _observed_worst_error(family, "reference")
    ratio = fast / reference
    assert 0.25 <= ratio <= 4.0, (
        f"{name}: fast/reference worst-error ratio {ratio:.2f} outside "
        f"[0.25, 4] (fast={fast:.1f}, reference={reference:.1f})"
    )
