"""Fused single-process backend, and the one round template.

Where a per-candidate loop walks the candidates one by one (draw, screen,
simulate a handful of samples, bookkeep — times 50 candidates, times every
OCBA increment), :class:`SerialEngine` runs the cheap per-candidate halves
locally and fuses every border-band sample of the round into **one**
``(sum(k_i), ...)`` evaluation — one vectorized simulate, one vectorized
margin computation — before scattering the results back.  On the synthetic
problems this removes almost all Python-level overhead from the OCBA hot
path (see ``benchmarks/test_bench_engine.py``).

:meth:`SerialEngine.refine_round` is the round sequence of every built-in
backend: collect the pending blocks, partition them against the warm-start
cache, :meth:`~SerialEngine.simulate` the misses, splice the replayed rows
back and scatter the round.  The process and auto engines subclass it
and override only :meth:`~SerialEngine.simulate`, so the draw order,
the cache partition and the ledger charges are the same code on every
backend.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import (
    EvaluationEngine,
    collect_pending,
    evaluate_pending,
    scatter_round,
)
from repro.engine.cache import CachedRound

__all__ = ["SerialEngine"]


class SerialEngine(EvaluationEngine):
    """Default backend: fused rounds, evaluated in-process.

    With a warm-start cache attached the round is partitioned first: the
    miss blocks form one (smaller) stacked dispatch, hit blocks replay
    their memoized rows, and the splice preserves block order — so the
    absorbed estimates are bit-identical to the cache-off path.
    """

    name = "serial"

    def refine_round(self, problem, states, gains, category=None):
        pending = collect_pending(states, gains, category)
        if not pending:
            return
        if self.cache is None:
            scatter_round(problem, pending, self.simulate(problem, pending))
            return
        # The partition happens here, in the parent, before any dispatch:
        # hit rows never reach a backend, and every backend sees the same
        # miss blocks whatever its worker count.
        round_ = CachedRound(self.cache, problem, pending)
        missed = self.simulate(problem, round_.misses) if round_.misses else None
        performance = round_.assemble(missed)
        scatter_round(problem, pending, performance, round_.hit_rows, self.cache)

    def simulate(self, problem, pending) -> np.ndarray:
        """Performance rows of the (non-empty) ``pending`` blocks, stacked
        in block order; backends override where the rows are computed."""
        return evaluate_pending(problem, pending)
