"""Statistical conformance: every registered protocol vs its analytical bound.

For each protocol in :data:`repro.protocols.PROTOCOLS`, run a few trials at a
pinned seed on a bounded-change population and assert the observed
``max_t |a_hat[t] - a[t]|`` stays within the protocol's theoretical bound
from :mod:`repro.analysis.bounds`, with explicit failure-probability
accounting (see :mod:`conformance_harness`).  A companion meta-test fails the
suite if a protocol is ever registered without a conformance case, so the
harness cannot silently fall behind the registry.

All protocol executions are marked ``slow``: they are full end-to-end runs at
population sizes where the bounds are non-vacuous.
"""

from __future__ import annotations

import numpy as np
import pytest
from conformance_harness import (
    ConformanceCase,
    assert_error_within_bound,
    central_shape_radius,
    hierarchical_radius,
    single_level_radius,
    slot_sampled_radius,
)

from repro.core.params import ProtocolParams
from repro.protocols import PROTOCOLS
from repro.utils.rng import spawn_generators
from repro.workloads.generators import BoundedChangePopulation

#: Reference configuration where the local-model bounds are non-vacuous
#: (observed/bound lands between ~0.05 and ~0.55 at the pinned seed).
_BIG = ProtocolParams(n=20_000, d=64, k=4, epsilon=1.0)
#: The object-client driver is O(n*d) Python; a smaller grid keeps it fast.
_SMALL = ProtocolParams(n=1_500, d=16, k=3, epsilon=1.0)

CASES: dict[str, ConformanceCase] = {
    "future_rand": ConformanceCase(
        _BIG, hierarchical_radius, "Eq. 13 with FutureRand's exact c_gap"
    ),
    "future_rand_object": ConformanceCase(
        _SMALL, hierarchical_radius, "Eq. 13, object-client driver"
    ),
    "bun_composed": ConformanceCase(
        _BIG, hierarchical_radius, "Eq. 13 with Bun et al.'s smaller c_gap"
    ),
    "offline_tree": ConformanceCase(
        _BIG, hierarchical_radius, "Eq. 13 with the full-tree sparsity c_gap"
    ),
    "erlingsson": ConformanceCase(
        _BIG, slot_sampled_radius, "Eq. 13 x num_orders (slot sampling)"
    ),
    "naive_split": ConformanceCase(
        _BIG, single_level_radius, "per-period RR at budget epsilon/d"
    ),
    "naive_unsplit": ConformanceCase(
        _BIG, single_level_radius, "per-period RR at full budget"
    ),
    "memoization": ConformanceCase(
        _BIG,
        single_level_radius,
        "per-period debiased permanent RR (each period is an independent "
        "cross-user sum of memoized one-shot RR draws)",
    ),
    "central_tree": ConformanceCase(
        _BIG, central_shape_radius, "central-model shape bound, pinned 4x"
    ),
}


def test_every_registered_protocol_has_a_conformance_case():
    """Registering a protocol without a bound conformance case fails CI."""
    missing = sorted(set(PROTOCOLS) - set(CASES))
    stale = sorted(set(CASES) - set(PROTOCOLS))
    assert not missing, (
        f"protocols {missing} are registered but have no statistical "
        f"conformance case in tests/statistical/"
    )
    assert not stale, f"conformance cases {stale} name unregistered protocols"


def test_radius_dispatcher_mirrors_the_registry():
    """The runtime radius map (the fuzzer's fitness denominator) stays exact.

    :data:`repro.analysis.conformance.RADIUS_BY_PROTOCOL` deliberately keys
    by string without importing the protocol layer; this meta-test is what
    keeps those keys equal to :data:`PROTOCOLS` — and consistent with this
    suite's own CASES — as both evolve.
    """
    from repro.analysis.conformance import RADIUS_BY_PROTOCOL, protocol_radius

    assert set(RADIUS_BY_PROTOCOL) == set(PROTOCOLS)
    for name, case in CASES.items():
        assert RADIUS_BY_PROTOCOL[name] is case.radius, (
            f"{name}: RADIUS_BY_PROTOCOL and the test CASES disagree on the "
            f"radius shape"
        )
    with pytest.raises(KeyError, match="no conformance radius"):
        protocol_radius("not_a_protocol", _BIG, 1.0)



@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_radius_scales_as_the_privacy_model_predicts(name: str):
    """Local-model radii grow as sqrt(n) (the LDP price the paper's bound
    pays); the central tree's radius does not depend on n at all.  Each
    radius is stated at the params' failure probability ``beta``."""
    from repro.analysis.conformance import protocol_radius

    protocol = PROTOCOLS[name]
    small = ProtocolParams(n=1_000, d=16, k=2, epsilon=1.0)
    large = ProtocolParams(n=4_000, d=16, k=2, epsilon=1.0)
    bound_small, failure_small = protocol_radius(
        name, small, protocol.c_gap(small)
    )
    bound_large, failure_large = protocol_radius(
        name, large, protocol.c_gap(large)
    )
    assert 0 < bound_small < np.inf
    assert failure_small == failure_large == small.beta
    expected_ratio = 1.0 if protocol.privacy_model == "central" else 2.0
    assert bound_large / bound_small == pytest.approx(expected_ratio)


def _observed_worst_error(name: str, case: ConformanceCase) -> float:
    protocol = PROTOCOLS[name]
    root = np.random.SeedSequence(case.seed)
    (workload_rng,) = spawn_generators(root, 1)
    states = BoundedChangePopulation(
        case.params.d, case.params.k, exact_k=True
    ).sample(case.params.n, workload_rng)
    trial_rngs = spawn_generators(root.spawn(1)[0], case.trials)
    return max(
        protocol.run(states, case.params, rng).max_abs_error
        for rng in trial_rngs
    )


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_observed_error_within_analytical_bound(name: str):
    """The worst trial error stays below the protocol's theoretical radius."""
    case = CASES[name]
    c_gap = PROTOCOLS[name].c_gap(case.params)
    bound, per_trial_failure = case.radius(case.params, c_gap)
    observed = _observed_worst_error(name, case)
    assert_error_within_bound(
        protocol=name,
        observed_max_abs=observed,
        bound=bound,
        per_trial_failure_probability=per_trial_failure,
        trials=case.trials,
        seed=case.seed,
        note=case.note,
    )


def test_helper_rejects_vacuous_accounting():
    with pytest.raises(ValueError, match="vacuous"):
        assert_error_within_bound(
            protocol="demo",
            observed_max_abs=1.0,
            bound=2.0,
            per_trial_failure_probability=0.5,
            trials=3,
            seed=0,
        )
    with pytest.raises(ValueError, match="in \\(0,1\\)"):
        assert_error_within_bound(
            protocol="demo",
            observed_max_abs=1.0,
            bound=2.0,
            per_trial_failure_probability=0.0,
            trials=1,
            seed=0,
        )


def test_helper_failure_message_names_protocol_and_probability():
    with pytest.raises(AssertionError) as excinfo:
        assert_error_within_bound(
            protocol="demo_protocol",
            observed_max_abs=10.0,
            bound=5.0,
            per_trial_failure_probability=0.01,
            trials=3,
            seed=42,
            note="unit-test case",
        )
    message = str(excinfo.value)
    assert "demo_protocol" in message
    assert "seed 42" in message
    assert "0.97" in message  # 1 - 3 * 0.01
    assert "unit-test case" in message
