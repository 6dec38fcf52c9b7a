"""Numeric and infrastructure substrates shared by every subsystem.

* :mod:`repro.utils.numerics` — log-space primitives.  The proofs in the
  paper reason about quantities such as ``g(i) = p^i (1-p)^(k-i)`` and sums
  of binomial coefficients over Hamming-distance ranges; for large ``k``
  these underflow double precision.
* :mod:`repro.utils.rng` — generator coercion and ``SeedSequence`` spawning.
* :mod:`repro.utils.validation` — argument checks with messages that name
  the bad argument.
* :mod:`repro.utils.chunking` — fixed row-block plans for out-of-core work.
"""

from repro.utils.numerics import (
    LOG_ZERO,
    log1mexp,
    log_binom,
    log_binom_range_sum,
    log_sub,
    logsumexp,
    stable_exp_diff,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_power_of_two,
    check_privacy_budget,
    check_probability,
    check_sign_vector,
    ensure_int,
    ensure_positive,
)

__all__ = [
    "LOG_ZERO",
    "log1mexp",
    "log_binom",
    "log_binom_range_sum",
    "log_sub",
    "logsumexp",
    "stable_exp_diff",
    "as_generator",
    "spawn_generators",
    "check_power_of_two",
    "check_privacy_budget",
    "check_probability",
    "check_sign_vector",
    "ensure_int",
    "ensure_positive",
]
