"""Exact analysis tooling: every probability the paper's proofs reason about.

* :mod:`repro.analysis.cgap` — exact coordinate-preservation gaps of all
  randomizer families (Lemma 5.3, Example 4.2, Theorem A.8).
* :mod:`repro.analysis.privacy` — exact epsilon verification: closed-form and
  brute-force output-law ratios for the composed randomizer and for the whole
  client report (Lemma 5.2, Theorem 4.5).
* :mod:`repro.analysis.bounds` — the theoretical error-bound curves
  (Theorem 4.1, Lemma 4.6/Eq. 13, the central tree mechanism).
* :mod:`repro.analysis.accuracy` — empirical error metrics and power-law
  scaling fits used by the experiment harness.
"""

from repro.analysis.accuracy import ErrorSummary, fit_power_law, summarize_errors
from repro.analysis.appendix_checks import CheckOutcome, verification_report
from repro.analysis.communication import (
    communication_table,
    expected_report_bits,
)
from repro.analysis.bounds import hoeffding_radius, theorem41_error_bound
from repro.analysis.cgap import cgap_future_rand, cgap_simple
from repro.analysis.privacy import (
    client_report_log_ratio,
    enumerate_composed_law,
    enumerate_future_rand_report_law,
    sequence_support_patterns,
)

__all__ = [
    "ErrorSummary",
    "fit_power_law",
    "summarize_errors",
    "CheckOutcome",
    "verification_report",
    "communication_table",
    "expected_report_bits",
    "hoeffding_radius",
    "theorem41_error_bound",
    "cgap_future_rand",
    "cgap_simple",
    "client_report_log_ratio",
    "enumerate_composed_law",
    "enumerate_future_rand_report_law",
    "sequence_support_patterns",
]
