"""Monte-Carlo yield estimation.

* :class:`YieldEstimate` — a point estimate with sampling-error measures.
* :class:`CandidateYieldState` — incremental per-candidate estimation: OCBA
  repeatedly refines candidates by small sample batches, optionally screened
  by acceptance sampling.
* :func:`reference_yield` — the high-N verification estimate the paper uses
  to score accuracy (50 000 samples; charged to the excluded ``reference``
  ledger category).

The execution engines (:mod:`repro.engine`) fuse refinement rounds across
candidates through :class:`CandidateYieldState`'s ``prepare``/``absorb``
halves.
"""

from repro.yieldsim.estimator import (
    CandidateYieldState,
    PendingRefinement,
    YieldEstimate,
)
from repro.yieldsim.reference import reference_yield

__all__ = [
    "YieldEstimate",
    "CandidateYieldState",
    "PendingRefinement",
    "reference_yield",
]
