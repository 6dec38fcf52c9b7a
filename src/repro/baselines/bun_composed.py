"""The Bun–Nelson–Stemmer composed randomizer (Algorithm 4, Appendix A.2).

Same pseudo-code as FutureRand's ``R~`` but with a symmetric annulus

    ``LB = k p - sqrt(k/2 * ln(2/lambda))``,   ``UB = k p + sqrt(k/2 * ln(2/lambda))``

and a budget calibration ``epsilon = 6 eps_tilde sqrt(k ln(1/lambda))``
(Fact A.6) that must also satisfy ``lambda < (eps_tilde sqrt(k) / (2(k+1)))^(2/3)``
(Eq. 45).  Theorem A.8 shows the resulting gap is only
``c_gap in O( eps / sqrt(k ln(k/eps)) + (eps / (k ln(k/eps)))^(2/3) )`` — a
``sqrt(ln(k/eps))`` factor worse than FutureRand — which experiment E8 measures.

``select_bun_parameters`` solves the joint constraint system by fixpoint
iteration: given ``(k, epsilon)`` it finds the *largest* admissible ``lambda``
(larger ``lambda`` means larger ``eps_tilde``, hence the most favourable gap
this design can achieve — the fair comparison point).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.annulus import AnnulusLaw
from repro.core.basic_randomizer import flip_probability
from repro.core.future_rand import RandomizerFamily
from repro.utils.validation import ensure_positive

__all__ = ["select_bun_parameters", "bun_annulus_law", "BunComposedFamily"]

#: Safety margin keeping ``lambda`` strictly inside the open constraint (45).
_CONSTRAINT_MARGIN = 0.99
#: Fixpoint iterations; the map is a contraction in practice and converges in
#: a handful of steps, but we bound it defensively.
_MAX_ITERATIONS = 200


def select_bun_parameters(
    k: int, epsilon: float, lam: Optional[float] = None
) -> tuple[float, float]:
    """Return admissible ``(lam, eps_tilde)`` for Algorithm 4 at ``(k, epsilon)``.

    If ``lam`` is supplied it is validated against Eq. (45)/(46); otherwise the
    largest admissible ``lam`` is found by iterating

        ``eps_tilde(lam) = epsilon / (6 sqrt(k ln(1/lam)))``
        ``lam      <- min(margin * (eps_tilde sqrt(k) / (2(k+1)))^(2/3), 1/2)``

    to a fixpoint.
    """
    k = ensure_positive(k, "k")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    def eps_tilde_of(lam_value: float) -> float:
        return epsilon / (6.0 * math.sqrt(k * math.log(1.0 / lam_value)))

    def constraint_ceiling(eps_tilde: float) -> float:
        return (eps_tilde * math.sqrt(k) / (2.0 * (k + 1.0))) ** (2.0 / 3.0)

    if lam is not None:
        lam = float(lam)
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lam must be in (0, 1), got {lam}")
        eps_tilde = eps_tilde_of(lam)
        if lam >= constraint_ceiling(eps_tilde):
            raise ValueError(
                f"lam={lam} violates Eq. (45): must be below "
                f"{constraint_ceiling(eps_tilde):.3e}"
            )
        return lam, eps_tilde

    lam = 0.25  # generous start; the iteration only shrinks it
    for _ in range(_MAX_ITERATIONS):
        eps_tilde = eps_tilde_of(lam)
        ceiling = _CONSTRAINT_MARGIN * constraint_ceiling(eps_tilde)
        candidate = min(ceiling, 0.5)
        if candidate <= 0:
            raise ValueError(
                f"no admissible lambda for k={k}, epsilon={epsilon}"
            )
        if abs(candidate - lam) <= 1e-12 * lam:
            lam = candidate
            break
        lam = candidate
    eps_tilde = eps_tilde_of(lam)
    if lam >= constraint_ceiling(eps_tilde):
        raise RuntimeError(
            f"fixpoint iteration failed to satisfy Eq. (45) for k={k}, "
            f"epsilon={epsilon}"
        )
    return lam, eps_tilde


def bun_annulus_law(
    k: int, epsilon: float, lam: Optional[float] = None
) -> AnnulusLaw:
    """Return the exact output law of Algorithm 4 at ``(k, epsilon)``.

    The symmetric annulus (Eq. 43) may cover every Hamming distance at small
    ``k``; :class:`AnnulusLaw` handles that degenerate case (the randomizer
    then never resamples).
    """
    lam, eps_tilde = select_bun_parameters(k, epsilon, lam)
    p = flip_probability(eps_tilde)
    width = math.sqrt(k / 2.0 * math.log(2.0 / lam))
    return AnnulusLaw.with_bounds(k, eps_tilde, k * p - width, k * p + width)


class BunComposedFamily(RandomizerFamily):
    """Algorithm 4 wrapped as a drop-in randomizer family.

    Its law is the lambda-parameterized annulus, and Theorem A.8 bounds its
    gap by ``O(eps / sqrt(k ln(k/eps)))``.

    Reuses FutureRand's online pre-computation wrapper — the pre-computation
    trick is *our* contribution and Appendix A.2 notes the original design is
    offline-only; wrapping it this way isolates the annulus-parameterization
    difference, which is exactly what experiment E8 compares.
    """

    name = "bun_composed"

    def __init__(self, k: int, epsilon: float, lam: Optional[float] = None) -> None:
        super().__init__(epsilon, bun_annulus_law(k, epsilon, lam))
