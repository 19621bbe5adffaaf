"""The execution-engine protocol and the round helpers the engine uses.

An :class:`EvaluationEngine` executes one *round* of refinement requests —
``(candidate state_i, k_i additional samples)`` for many candidates at once
— and updates every candidate's running yield estimate.  The OCBA loop,
the pilot-``n0`` phase, stage-2 promotions and the fixed-budget baseline
all submit their per-round work through this interface, which is what lets
:class:`~repro.engine.serial.SerialEngine` fuse many candidates'
simulations into stacked dispatches.  A stage-2 round can ask for tens of
thousands of rows, so the engine streams it in slab-sized groups — draw,
simulate, scatter, drop — and a round's resident samples stay bounded by
one group, not by the round.  :func:`evaluate_pending` takes the group's
stacked samples from its caller: the serial engine's round buffer, whose
rows the blocks' ``samples`` point at and the round's next group
overwrites.  A block's ``samples`` are therefore valid only until its
group is scattered; :func:`scatter_round` hands them to
:meth:`~repro.yieldsim.estimator.CandidateYieldState.absorb`, and the
acceptance-sampling screener keeps its own copy.

Reproducibility contract
------------------------
Sample *generation* always happens per candidate, from each candidate's
private RNG stream
(:meth:`~repro.yieldsim.estimator.CandidateYieldState.prepare`), and the
screener's classification stays with the candidate; an engine only
simulates the border band and hands the performance rows back
(:meth:`~repro.yieldsim.estimator.CandidateYieldState.absorb`).  Any
engine therefore produces identical estimates for the same seed — fused,
grouped, or one candidate at a time.  A candidate appears at most once per
round, so where a round is cut into groups never reorders its draw and its
absorb.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.yieldsim.estimator import CandidateYieldState, PendingRefinement

__all__ = ["EvaluationEngine", "evaluate_pending", "scatter_round"]


def evaluate_pending(
    problem, pending: list[PendingRefinement], samples: np.ndarray
) -> np.ndarray:
    """Simulate a group of blocks as one stacked dispatch, no ledger side
    effects.

    ``samples`` is the group's ``(sum(k_i), ...)`` sample matrix, the
    blocks' rows in block order: the engine's round buffer, or a lone
    block's own array.  Each candidate's design
    row is repeated for its own samples and the pairs resolve through
    ``problem.evaluate_pairs``.  Returns the stacked performance matrix in
    block order; ledger charging is :func:`scatter_round`'s job.
    """
    designs = np.stack([block.state.x for block in pending])
    sizes = [block.n_samples for block in pending]
    return problem.evaluate_pairs(np.repeat(designs, sizes, axis=0), samples)


def scatter_round(
    problem, pending: list[PendingRefinement], performance: np.ndarray
) -> None:
    """Charge ledgers and feed each block its performance rows back.

    The margin matrix and the per-block pass counts are computed once on
    the stacked group — two vectorized ops instead of one ``specs.margins``
    + one boolean reduction per candidate — and each state receives its
    pre-sliced share.
    """
    margins = problem.specs.margins(performance)
    passed = np.all(margins >= 0.0, axis=1)
    sizes = [block.n_samples for block in pending]
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)
    pass_counts = np.add.reduceat(passed, starts)
    offset = 0
    for block, size, n_passed in zip(pending, sizes, pass_counts):
        ledger = block.state.ledger
        if ledger is not None:
            ledger.charge(size, category=block.category)
        stop = offset + size
        block.state.absorb(
            block.samples,
            performance[offset:stop],
            margins[offset:stop],
            int(n_passed),
        )
        offset = stop


class EvaluationEngine(ABC):
    """Executes rounds of candidate refinements against a problem.

    :class:`~repro.engine.serial.SerialEngine` is the built-in engine
    (``MOHECO(engine=...)`` and ``optimize(engine=...)`` take any
    instance); subclasses implement :meth:`refine_round`.  Engines hold no
    per-run state, so one engine instance can serve many runs.
    """

    @abstractmethod
    def refine_round(
        self,
        problem,
        states: Sequence[CandidateYieldState],
        gains: Sequence[int],
        category: str | None = None,
    ) -> None:
        """Refine ``states[i]`` by ``gains[i]`` fresh samples each.

        ``category`` overrides every state's ledger category for this round
        (stage-2 promotions charge ``"stage2"`` on stage-1 states); ``None``
        keeps each state's own category.  A state appears at most once per
        round.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
