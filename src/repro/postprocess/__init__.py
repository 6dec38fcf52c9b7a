"""Post-processing refinements for the protocol's noisy outputs.

Everything here operates on already-released (private) values, so it consumes
no additional privacy budget — post-processing invariance of differential
privacy.

* :mod:`repro.postprocess.consistency` — weighted-least-squares consistency
  enforcement on the dyadic report tree (in the spirit of Hay et al. 2010,
  generalized to per-level variances).  The raw tree holds ``1 + log2 d``
  independent estimates of overlapping quantities; reconciling them reduces
  the prefix-estimate variance measurably (ablation experiment E11).
"""

from repro.postprocess.consistency import (
    consistent_prefix_estimates,
    consistent_result,
    wls_tree_consistency,
)

__all__ = [
    "consistent_prefix_estimates",
    "consistent_result",
    "wls_tree_consistency",
]
