"""Per-protocol statistical-conformance radii and the bound assertion helper.

This module is the single source of the analytical error radii the repository
pins observed errors against — Eq. (13)'s explicit Hoeffding radius for the
hierarchical local protocols and the per-protocol variance shapes derived
from it.  It grew out of ``tests/statistical/conformance_harness.py`` (PR 3),
which now re-exports these helpers: promoting them into the package lets
*runtime* consumers score against the same bounds the test suite enforces —
most importantly :mod:`repro.fuzz`, whose fitness function is observed
max-error divided by the radius returned here.

Every radius helper returns ``(bound, per_trial_failure_probability)``: the
analytical probability that one fresh trial exceeds ``bound`` even with
correct code.  :func:`assert_error_within_bound` refuses vacuous accounting
(total failure probability >= 1 across trials) and reports the union-bounded
total in its failure message, so when a re-seeded run trips the bound the
reader can judge "1-in-20 event" versus "broken code".

:data:`RADIUS_BY_PROTOCOL` maps every registry protocol name to its radius
shape; :func:`protocol_radius` is the dispatching entry point.  A meta-test
in ``tests/statistical/`` fails the suite if a protocol is ever registered
without a radius here, so the mapping cannot silently fall behind the
registry.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.bounds import central_tree_error_bound, hoeffding_radius
from repro.core.params import ProtocolParams

__all__ = [
    "RADIUS_BY_PROTOCOL",
    "assert_error_within_bound",
    "central_shape_radius",
    "fault_adjusted_radius",
    "hierarchical_radius",
    "protocol_radius",
    "single_level_radius",
    "slot_sampled_radius",
]

#: Signature every radius helper shares: ``(params, c_gap) -> (bound, beta)``.
RadiusFn = Callable[[ProtocolParams, float], tuple[float, float]]


def assert_error_within_bound(
    *,
    protocol: str,
    observed_max_abs: float,
    bound: float,
    per_trial_failure_probability: float,
    trials: int,
    seed: int,
    note: str = "",
) -> None:
    """Assert ``observed_max_abs <= bound`` with explicit failure accounting.

    ``per_trial_failure_probability`` is the analytical probability that one
    trial exceeds ``bound``; the total across ``trials`` independent trials
    is union-bounded by their product with ``trials`` and must stay below 1
    for the check to mean anything.
    """
    if not 0 < per_trial_failure_probability < 1:
        raise ValueError(
            f"per_trial_failure_probability must be in (0,1), got "
            f"{per_trial_failure_probability}"
        )
    total_failure_probability = trials * per_trial_failure_probability
    if total_failure_probability >= 1:
        raise ValueError(
            f"vacuous accounting: {trials} trials x "
            f"{per_trial_failure_probability} per-trial failure probability "
            f">= 1; tighten beta or reduce trials"
        )
    if observed_max_abs > bound:
        raise AssertionError(
            f"{protocol}: observed max|error| {observed_max_abs:.1f} exceeds "
            f"its theoretical bound {bound:.1f} "
            f"(ratio {observed_max_abs / bound:.3f}) at pinned seed {seed}. "
            f"The bound holds with probability >= "
            f"{1 - total_failure_probability:.4f} over all {trials} trials, "
            f"so at this fixed seed an exceedance is a code/bound regression, "
            f"not noise.{' ' + note if note else ''}"
        )


def hierarchical_radius(
    params: ProtocolParams, c_gap: float
) -> tuple[float, float]:
    """Eq. (13)'s radius for hierarchical (dyadic-tree) local protocols.

    Per period the bound fails with probability at most ``beta / d``; a union
    bound over the ``d`` periods gives per-trial failure probability
    ``beta``.
    """
    beta_prime = params.beta / params.d
    return hoeffding_radius(params, c_gap, beta_prime), params.beta


def slot_sampled_radius(
    params: ProtocolParams, c_gap: float
) -> tuple[float, float]:
    """Radius for Erlingsson et al.'s slot-sampling estimator.

    Each user reports only one of the ``1 + log2 d`` levels, so the
    inverse-propensity debiasing inflates every per-node term by another
    ``num_orders`` factor relative to Eq. (13)'s all-levels protocol.
    """
    bound, failure = hierarchical_radius(params, c_gap)
    return bound * params.num_orders, failure


def single_level_radius(
    params: ProtocolParams, c_gap: float
) -> tuple[float, float]:
    """Exact per-period randomized-response radius (no tree, no orders).

    ``(1/c_gap) * sqrt(2 n ln(2/beta'))`` with ``beta' = beta / d`` — the
    plain Hoeffding bound for a single debiased RR estimate, union-bounded
    over the ``d`` periods.  Expressed via Eq. (13)'s helper with its
    ``1 + log2 d`` hierarchical factor divided back out.
    """
    beta_prime = params.beta / params.d
    bound = hoeffding_radius(params, c_gap, beta_prime) / params.num_orders
    return bound, params.beta


def central_shape_radius(
    params: ProtocolParams, c_gap: float
) -> tuple[float, float]:
    """Pinned-constant bound for the central-model tree mechanism.

    ``central_tree_error_bound`` is an O-shape (constant-free), so the check
    pins the observed error below ``4x`` the shape — the measured ratio at
    the reference configuration is ~1.3, and the Laplace tail at
    ``log(d/beta)`` puts the exceedance probability of the 4x envelope well
    below ``beta``.
    """
    return 4.0 * central_tree_error_bound(params), params.beta


#: Registry-name -> radius shape.  Keys deliberately mirror
#: :data:`repro.protocols.PROTOCOLS` (string keys only — no protocols import
#: here, so the analysis layer stays below the protocol layer); the
#: ``tests/statistical/`` meta-test pins the two key sets equal.
RADIUS_BY_PROTOCOL: dict[str, RadiusFn] = {
    "future_rand": hierarchical_radius,
    "future_rand_object": hierarchical_radius,
    "bun_composed": hierarchical_radius,
    "offline_tree": hierarchical_radius,
    "erlingsson": slot_sampled_radius,
    "naive_split": single_level_radius,
    "naive_unsplit": single_level_radius,
    "memoization": single_level_radius,
    "central_tree": central_shape_radius,
}


def protocol_radius(
    protocol: str, params: ProtocolParams, c_gap: float
) -> tuple[float, float]:
    """Dispatch to ``protocol``'s radius shape.

    Returns ``(bound, per_trial_failure_probability)``; raises an actionable
    ``KeyError`` for names without a pinned radius.
    """
    radius = RADIUS_BY_PROTOCOL.get(protocol)
    if radius is None:
        known = ", ".join(sorted(RADIUS_BY_PROTOCOL))
        raise KeyError(
            f"no conformance radius pinned for protocol {protocol!r}; "
            f"known: {known}"
        )
    return radius(params, c_gap)


def fault_adjusted_radius(
    bound: float,
    params: ProtocolParams,
    *,
    drop_rate: float = 0.0,
    duplicate_rate: float = 0.0,
) -> float:
    """Widen ``bound`` for the unreliable-delivery fault model.

    The paper's radii assume every report arrives exactly once.  Under the
    engine's fault model — each report independently lost with probability
    ``q`` (drop) or delivered twice with probability ``p`` (duplicate) — the
    estimator acquires a delivery bias of at most ``(q + p) * a[t] <=
    (q + p) * n`` (each user's expected contribution to the debiased count
    scales by ``1 - q + p``), and the Hoeffding fluctuation term inflates by
    at most the same factor (the per-report contribution bound is unchanged;
    duplicated reports at worst double-count a ``p`` fraction of terms).
    The envelope

        ``bound * (1 + q + p) + (q + p) * n``

    therefore dominates the fault-free radius continuously in the fault
    rates (and collapses to ``bound`` at ``q = p = 0``), which is what the
    fuzzer scores fault-injecting genomes against — without it, cranking the
    drop rate would trivially "win" by breaking the delivery assumption
    rather than by finding a hard population.
    """
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
    if not 0.0 <= duplicate_rate < 1.0:
        raise ValueError(
            f"duplicate_rate must be in [0, 1), got {duplicate_rate}"
        )
    rate = drop_rate + duplicate_rate
    return bound * (1.0 + rate) + rate * params.n
