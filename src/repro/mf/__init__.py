"""Multi-fidelity successive-halving over the Monte-Carlo sample count.

The subsystem behind ``allocation="ladder"`` (the ``moheco_mf`` method):
Hyperband-style bracket arithmetic (:class:`~repro.mf.ladder.FidelityLadder`)
and the ladder stage-1 policy MOHECO dispatches to
(:class:`~repro.mf.driver.LadderAllocation`), which promotes each rung's
top ``1/eta`` by their pooled yield estimate.
"""

from repro.mf.driver import LadderAllocation, ladder_allocation
from repro.mf.ladder import MF_PARAM_KEYS, FidelityLadder

__all__ = [
    "FidelityLadder",
    "MF_PARAM_KEYS",
    "LadderAllocation",
    "ladder_allocation",
]
