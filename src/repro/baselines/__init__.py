"""Comparison methods from the paper's experimental section.

The fixed-budget, OO-only and full MOHECO flows are registry methods
(``fixed_budget``, ``oo_only``, ``moheco``) run through
:func:`repro.api.optimize`.  This package holds the baselines with code
of their own:

* :mod:`repro.baselines.pswcd` — the performance-specific worst-case
  distance method discussed in section 3.4.
* The RSB (response-surface) baseline lives in :mod:`repro.surrogate`.
"""

from repro.baselines.pswcd import (
    PSWCDOptimizer,
    WorstCaseAnalysis,
    pswcd_analysis,
)

__all__ = [
    "pswcd_analysis",
    "WorstCaseAnalysis",
    "PSWCDOptimizer",
]
