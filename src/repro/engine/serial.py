"""The fused round template every Monte-Carlo refinement runs through.

A *round* is ``(candidate state_i, k_i additional samples)`` for many
candidates at once.  The OCBA loop, the pilot-``n0`` phase, stage-2
promotions, the fixed-budget baseline, the fidelity ladder and the memetic
local search all submit their per-round work to
:meth:`SerialEngine.refine_round`.  Where a per-candidate loop walks the
candidates one by one (draw, screen, simulate a handful of samples,
bookkeep — times 50 candidates, times every OCBA increment), the round
runs the cheap per-candidate halves locally and fuses the border-band
samples of many candidates into stacked ``(sum(k_i), ...)`` evaluations —
one vectorized simulate, one vectorized margin computation per group —
before scattering the results back.  On the synthetic problems this
removes almost all Python-level overhead from the OCBA hot path (see
``benchmarks/test_bench_engine.py``).

:meth:`SerialEngine.refine_round` streams a round in groups of at most
:data:`~repro.problems.base.SLAB_ROWS` rows: prepare candidates in order
until the next block would overflow the group, :func:`evaluate_pending`
it, :func:`scatter_round` it, drop it, go on.  Every row a round asks for
is simulated.  A stage-2 round refines every promoted candidate to
``n_max`` samples and can reach tens of thousands of rows; grouping keeps
its resident samples at one group (one evaluator slab) instead of the
whole round.

Round buffer
------------
Each :meth:`~SerialEngine.refine_round` call allocates one sample buffer,
``min(SLAB_ROWS, sum(gains))`` rows by the process dimension.  A block is
copied into the buffer's next rows as soon as ``prepare`` returns it and
pointed at those rows, so its own array is freed at once, and the group is
simulated from the buffer's leading rows: a group never holds its samples
twice.  The round's next group overwrites the buffer, so a block's
``samples`` are valid only until its group is scattered; that is why
:meth:`~repro.sampling.acceptance.LinearMarginScreener.update` copies the
rows it trains on.  A lone block wider than the buffer is simulated from
its own array.  The buffer lives for one call, so one engine instance
stays shareable across threads.

Reproducibility contract
------------------------
Sample *generation* always happens per candidate, from each candidate's
private RNG stream
(:meth:`~repro.yieldsim.estimator.CandidateYieldState.prepare`), and the
screener's classification stays with the candidate; the round only
simulates the border band and hands the performance rows back
(:meth:`~repro.yieldsim.estimator.CandidateYieldState.absorb`).  A fused
round therefore produces the same estimates, bit for bit, as one
``state.refine`` per candidate — grouped or not.  A candidate appears at
most once per round, so where a round is cut into groups never reorders
its draw and its absorb.
"""

from __future__ import annotations

import numpy as np

from repro.problems.base import SLAB_ROWS
from repro.yieldsim.estimator import PendingRefinement

__all__ = ["SerialEngine", "evaluate_pending", "scatter_round"]


def evaluate_pending(
    problem, pending: list[PendingRefinement], samples: np.ndarray
) -> np.ndarray:
    """Simulate a group of blocks as one stacked dispatch, no ledger side
    effects.

    ``samples`` is the group's ``(sum(k_i), ...)`` sample matrix, the
    blocks' rows in block order: the round buffer, or a lone block's own
    array.  Each candidate's design
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


class SerialEngine:
    """Fused rounds, evaluated in-process; holds no per-run state."""

    def refine_round(self, problem, states, gains, category=None):
        """Refine ``states[i]`` by ``gains[i]`` fresh samples each.

        ``category`` overrides every state's ledger category for this round
        (stage-2 promotions charge ``"stage2"`` on stage-1 states); ``None``
        keeps each state's own category.  A state appears at most once per
        round.
        """
        # A group stacks at most SLAB_ROWS rows (a lone larger block forms
        # its own group): one evaluator slab, simulated in one call.  Its
        # samples live in one buffer per call; each block is copied into
        # the buffer's next rows and pointed at them, which frees the
        # block's own array at once.
        capacity = min(SLAB_ROWS, sum(int(gain) for gain in gains))
        buffer, group, rows = None, [], 0
        for state, gain in zip(states, gains):
            block = state.prepare(int(gain), category)
            if block is None:
                continue
            if group and rows + block.n_samples > SLAB_ROWS:
                self._refine_group(problem, group, buffer, rows)
                group, rows = [], 0
            stop = rows + block.n_samples
            if stop <= capacity:
                if buffer is None:
                    buffer = np.empty((capacity,) + block.samples.shape[1:])
                buffer[rows:stop] = block.samples
                block.samples = buffer[rows:stop]
            group.append(block)
            rows = stop
        if group:
            self._refine_group(problem, group, buffer, rows)

    def _refine_group(self, problem, group, buffer, rows) -> None:
        # A lone block wider than the buffer is simulated from its own array.
        buffered = buffer is not None and rows <= len(buffer)
        samples = buffer[:rows] if buffered else group[0].samples
        scatter_round(problem, group, evaluate_pending(problem, group, samples))
