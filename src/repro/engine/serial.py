"""Fused single-process backend, and the one round template.

Where a per-candidate loop walks the candidates one by one (draw, screen,
simulate a handful of samples, bookkeep — times 50 candidates, times every
OCBA increment), :class:`SerialEngine` runs the cheap per-candidate halves
locally and fuses the border-band samples of many candidates into stacked
``(sum(k_i), ...)`` evaluations — one vectorized simulate, one vectorized
margin computation per group — before scattering the results back.  On the
synthetic problems this removes almost all Python-level overhead from the
OCBA hot path (see ``benchmarks/test_bench_engine.py``).

:meth:`SerialEngine.refine_round` is the round sequence of every built-in
backend.  It streams a round in groups of at most
:attr:`~SerialEngine.group_rows` rows: prepare candidates in order until the
next block would overflow the group, partition the group against the
warm-start cache, :meth:`~SerialEngine.simulate` its misses, scatter it,
drop it, go on.  A stage-2 round refines every promoted candidate to
``n_max`` samples and can reach tens of thousands of rows; grouping keeps
its resident samples at one group (one evaluator slab,
:data:`~repro.problems.base.SLAB_ROWS`) instead of the whole round.  Each
candidate owns its RNG stream and screener and appears once per round, so
its draw-then-absorb order, and every estimate and ledger total, is the
same however the round is cut.  The process engine subclasses it and
overrides only :meth:`~SerialEngine.simulate` and the group size, so the
draw order, the cache partition and the ledger charges are the same code
on every backend.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import EvaluationEngine, evaluate_pending, scatter_round
from repro.engine.cache import CachedRound
from repro.problems.base import SLAB_ROWS

__all__ = ["SerialEngine"]


class SerialEngine(EvaluationEngine):
    """Default backend: fused rounds, evaluated in-process.

    With a warm-start cache attached each group is partitioned first: the
    miss blocks form one (smaller) stacked dispatch, hit blocks replay
    their memoized rows, and the splice preserves block order — so the
    absorbed estimates are bit-identical to the cache-off path.
    """

    name = "serial"

    @property
    def group_rows(self) -> int:
        """Most rows one group of a round stacks (a lone larger block forms
        its own group): one evaluator slab, simulated in one call."""
        return SLAB_ROWS

    def refine_round(self, problem, states, gains, category=None):
        group, rows = [], 0
        for state, gain in zip(states, gains):
            block = state.prepare(int(gain), category)
            if block is None:
                continue
            if group and rows + block.n_samples > self.group_rows:
                self._refine_group(problem, group)
                group, rows = [], 0
            group.append(block)
            rows += block.n_samples
        if group:
            self._refine_group(problem, group)

    def _refine_group(self, problem, group) -> None:
        if self.cache is None:
            scatter_round(problem, group, self.simulate(problem, group))
            return
        # The partition happens here, in the parent, before any dispatch:
        # hit rows never reach a backend, and every backend sees the same
        # miss blocks whatever its worker count.
        round_ = CachedRound(self.cache, problem, group)
        missed = self.simulate(problem, round_.misses) if round_.misses else None
        scatter_round(problem, group, round_.assemble(missed), round_.hit_rows)

    def simulate(self, problem, pending) -> np.ndarray:
        """Performance rows of the (non-empty) ``pending`` blocks, stacked
        in block order; backends override where the rows are computed."""
        return evaluate_pending(problem, pending)
