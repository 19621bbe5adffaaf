"""Search engines.

* :mod:`repro.optim.constraints` — Deb's selection-based constraint
  handling (the paper's mechanism from [16], shown effective for analog
  sizing in [9]) as one sort key, :func:`deb_key`.
* :mod:`repro.optim.de` — differential evolution: mutation/crossover
  operators usable step-by-step (as MOHECO needs) plus a standalone
  optimizer loop for deterministic objectives.
* :mod:`repro.optim.nelder_mead` — bound-aware Nelder-Mead simplex search,
  MOHECO's local (exploitation) engine.
* :mod:`repro.optim.memetic` — the adaptive trigger that decides when the
  local search is worth its simulation cost.
"""

from repro.optim.constraints import deb_key
from repro.optim.de import DifferentialEvolution, DEResult
from repro.optim.nelder_mead import NelderMeadResult, nelder_mead_maximize
from repro.optim.memetic import MemeticTrigger

__all__ = [
    "deb_key",
    "DifferentialEvolution",
    "DEResult",
    "nelder_mead_maximize",
    "NelderMeadResult",
    "MemeticTrigger",
]
