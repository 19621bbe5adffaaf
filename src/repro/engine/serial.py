"""The fused single-process engine and its round template.

Where a per-candidate loop walks the candidates one by one (draw, screen,
simulate a handful of samples, bookkeep — times 50 candidates, times every
OCBA increment), :class:`SerialEngine` runs the cheap per-candidate halves
locally and fuses the border-band samples of many candidates into stacked
``(sum(k_i), ...)`` evaluations — one vectorized simulate, one vectorized
margin computation per group — before scattering the results back.  On the
synthetic problems this removes almost all Python-level overhead from the
OCBA hot path (see ``benchmarks/test_bench_engine.py``).

:meth:`SerialEngine.refine_round` streams a round in groups of at most
:data:`~repro.problems.base.SLAB_ROWS` rows: prepare candidates in order
until the next block would overflow the group,
:func:`~repro.engine.base.evaluate_pending` it, scatter it, drop it, go
on.  Every row a round asks for is simulated.  A stage-2 round refines
every promoted candidate to ``n_max`` samples and can reach tens of
thousands of rows; grouping keeps its resident samples at one group (one
evaluator slab) instead of the whole round.  Each candidate owns its RNG stream and
screener and appears once per round, so its draw-then-absorb order, and
every estimate and ledger total, is the same however the round is cut.

Round buffer
------------
Each :meth:`~SerialEngine.refine_round` call allocates one sample buffer,
``min(SLAB_ROWS, sum(gains))`` rows by the process dimension.  A block is
copied into the buffer's next rows as soon as ``prepare`` returns it and
pointed at those rows, so its own array is freed at once, and the group is
simulated from the buffer's leading rows: a group never holds its samples
twice.  The round's next group overwrites the buffer, which is why
:meth:`~repro.sampling.acceptance.LinearMarginScreener.update` copies the
rows it trains on.  A lone block wider than the buffer is simulated from
its own array.  The buffer lives for one call, so one engine instance
stays shareable across threads.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import EvaluationEngine, evaluate_pending, scatter_round
from repro.problems.base import SLAB_ROWS

__all__ = ["SerialEngine"]


class SerialEngine(EvaluationEngine):
    """Default engine: fused rounds, evaluated in-process."""

    def refine_round(self, problem, states, gains, category=None):
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
