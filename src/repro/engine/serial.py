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
until the next block would overflow the group, partition the group
against the warm-start cache, :func:`~repro.engine.base.evaluate_pending`
its misses, scatter it, drop it, go on.  A stage-2 round refines every
promoted candidate to ``n_max`` samples and can reach tens of thousands of
rows; grouping keeps its resident samples at one group (one evaluator
slab) instead of the whole round.  Each candidate owns its RNG stream and
screener and appears once per round, so its draw-then-absorb order, and
every estimate and ledger total, is the same however the round is cut.
"""

from __future__ import annotations

from repro.engine.base import EvaluationEngine, evaluate_pending, scatter_round
from repro.engine.cache import CachedRound
from repro.problems.base import SLAB_ROWS

__all__ = ["SerialEngine"]


class SerialEngine(EvaluationEngine):
    """Default engine: fused rounds, evaluated in-process.

    With a warm-start cache attached each group is partitioned first: the
    miss blocks form one (smaller) stacked dispatch, hit blocks replay
    their memoized rows, and the splice preserves block order — so the
    absorbed estimates are bit-identical to the cache-off path.
    """

    def refine_round(self, problem, states, gains, category=None):
        # A group stacks at most SLAB_ROWS rows (a lone larger block forms
        # its own group): one evaluator slab, simulated in one call.
        group, rows = [], 0
        for state, gain in zip(states, gains):
            block = state.prepare(int(gain), category)
            if block is None:
                continue
            if group and rows + block.n_samples > SLAB_ROWS:
                self._refine_group(problem, group)
                group, rows = [], 0
            group.append(block)
            rows += block.n_samples
        if group:
            self._refine_group(problem, group)

    def _refine_group(self, problem, group) -> None:
        if self.cache is None:
            scatter_round(problem, group, evaluate_pending(problem, group))
            return
        round_ = CachedRound(self.cache, problem, group)
        missed = evaluate_pending(problem, round_.misses) if round_.misses else None
        scatter_round(problem, group, round_.assemble(missed), round_.hit_rows)
