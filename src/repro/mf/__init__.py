"""Multi-fidelity successive-halving over the Monte-Carlo sample count.

The subsystem behind ``allocation="ladder"`` (the ``moheco_mf`` method):
Hyperband-style bracket arithmetic (:class:`~repro.mf.ladder.FidelityLadder`),
precision-weighted cross-rung yield fusion
(:func:`~repro.mf.fusion.fuse_segments`), and the ladder stage-1 policy
MOHECO dispatches to (:class:`~repro.mf.driver.LadderAllocation`).
"""

from repro.mf.driver import LadderAllocation, ladder_allocation
from repro.mf.fusion import RungSegment, fuse_segments
from repro.mf.ladder import MF_PARAM_KEYS, FidelityLadder

__all__ = [
    "FidelityLadder",
    "MF_PARAM_KEYS",
    "RungSegment",
    "fuse_segments",
    "LadderAllocation",
    "ladder_allocation",
]
