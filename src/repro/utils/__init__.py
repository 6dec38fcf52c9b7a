"""Numeric and infrastructure substrates shared by every subsystem.

The proofs in the paper reason about quantities such as ``g(i) = p^i (1-p)^(k-i)``
and sums of binomial coefficients over Hamming-distance ranges.  For large ``k``
these underflow double precision, so everything here works in log space.
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
from repro.utils.rng import RngFactory, as_generator, spawn_generators
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
    "RngFactory",
    "as_generator",
    "spawn_generators",
    "check_power_of_two",
    "check_privacy_budget",
    "check_probability",
    "check_sign_vector",
    "ensure_int",
    "ensure_positive",
]
