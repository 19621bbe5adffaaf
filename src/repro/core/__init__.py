"""MOHECO: the paper's primary contribution.

* :class:`MOHECOConfig` — all algorithm knobs with the paper's defaults
  (population 50, F = CR = 0.8, n0 = 15, sim_ave = 35, stage-2 threshold
  97 %, local-search patience 5, stop patience 20).
* :class:`MOHECO` — the two-stage memetic OO-based hybrid evolutionary
  constrained optimizer (Fig. 4 of the paper).
* The same engine realises the paper's comparison methods and the
  multi-fidelity variant through two config switches: ``allocation``
  (the stage-1 budget policy: ``"ocba"``, ``"fixed"`` or ``"ladder"``)
  and ``use_memetic``; its optional surrogate screen (``screen_params``)
  gives the screened methods (see :data:`repro.api.methods.MOHECO_FAMILY`
  for the method table).
"""

from repro.core.callbacks import (
    Callback,
    CallbackList,
    EarlyStopOnYield,
    ProgressCallback,
)
from repro.core.config import MOHECOConfig
from repro.core.history import GenerationRecord, OptimizationHistory
from repro.core.moheco import MOHECO, MOHECOResult
from repro.core.state import Individual

__all__ = [
    "MOHECOConfig",
    "MOHECO",
    "MOHECOResult",
    "Individual",
    "GenerationRecord",
    "OptimizationHistory",
    "Callback",
    "CallbackList",
    "ProgressCallback",
    "EarlyStopOnYield",
]
