"""Process-pool backend: fused rounds sharded across worker processes.

For expensive circuit problems (MNA/AC amplifier simulation) the per-round
evaluation dominates wall-clock; :class:`ProcessPoolEngine` splits the
stacked miss blocks of each round into one contiguous chunk per worker —
respecting candidate-block boundaries so grouped evaluator dispatch stays
intact — and simulates the chunks on a pool of worker processes.  Each
chunk crosses the process boundary as three plain arrays, ``(designs,
sizes, samples)`` (:func:`~repro.engine.base.stack_pending`).

Determinism
-----------
Workers are *pure*: they receive chunks and return performance rows.  All
RNG streams, screener state and ledger accounting stay in the parent; the
chunk boundaries depend only on the round and the worker count; and chunk
results are reassembled in submission order — so a run is bit-for-bit
reproducible for any worker count, including ``workers=1`` and the
in-process :class:`~repro.engine.serial.SerialEngine`.

The problem object is shipped to each worker once, at pool start-up (via
the initializer, which under the default ``fork`` start method costs no
pickling at all), not once per round.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.engine.base import chunk_pending, stack_pending
from repro.engine.serial import SerialEngine

__all__ = ["ProcessPoolEngine", "make_process_pool", "pool_mp_context"]


def make_process_pool(workers: int, **kwargs) -> ProcessPoolExecutor:
    """A fork-preferred worker pool (the engine/sweep layers' one recipe).

    ``fork`` inherits the parent's imported modules (registries, problem
    factories) for free; platforms without it fall back to ``spawn``.
    ``kwargs`` pass through to :class:`ProcessPoolExecutor` (initializer,
    initargs, ...).
    """
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=pool_mp_context(), **kwargs
    )


def pool_mp_context():
    """The multiprocessing context :func:`make_process_pool` pools run in.

    Queues/events that cross into pool workers (the sweep executor's
    progress bridge and cancel flag) must come from the same context the
    pool was built with, so the choice lives in one place.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


#: The problem each worker evaluates against (set by the pool initializer).
_WORKER_PROBLEM = None


def _init_worker(problem) -> None:
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = problem


def _evaluate_chunk(designs, sizes, samples) -> np.ndarray:
    """Simulate one :func:`~repro.engine.base.stack_pending` chunk on a
    pool worker — the stacking :func:`~repro.engine.base.evaluate_pending`
    does in-process."""
    return _WORKER_PROBLEM.evaluate_pairs(np.repeat(designs, sizes, axis=0), samples)


class ProcessPoolEngine(SerialEngine):
    """Sharded backend for simulation-bound problems.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the machine's CPU count (capped
        at 8 — yield estimation rounds rarely stack enough work to feed
        more).
    min_dispatch_rows:
        Rounds smaller than this many border-band samples are evaluated
        in-process.  The default only keeps trivial one-sample rounds
        local — on circuit problems even a small promotion round is worth
        shipping; raise it when each simulation is cheap enough that IPC
        would dominate.
    """

    name = "process"

    def __init__(self, workers: int | None = None, min_dispatch_rows: int = 2) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else min(os.cpu_count() or 1, 8)
        self.min_dispatch_rows = int(min_dispatch_rows)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_problem = None

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self, problem) -> ProcessPoolExecutor:
        if self._pool is not None and self._pool_problem is not problem:
            # A new problem invalidates the workers' cached copy.
            self.close()
        if self._pool is None:
            self._pool = make_process_pool(
                self.workers, initializer=_init_worker, initargs=(problem,)
            )
            self._pool_problem = problem
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_problem = None

    # -- dispatch ----------------------------------------------------------
    def simulate(self, problem, pending) -> np.ndarray:
        rows = sum(block.n_samples for block in pending)
        if self.workers == 1 or rows < self.min_dispatch_rows:
            return super().simulate(problem, pending)
        pool = self._ensure_pool(problem)
        # Workers must not drag parent-side state (RNGs, ledgers,
        # screeners) through the queue: chunks carry only plain arrays.
        futures = [
            pool.submit(_evaluate_chunk, *stack_pending(chunk))
            for chunk in chunk_pending(pending, -(-rows // self.workers))
        ]
        return np.concatenate([future.result() for future in futures])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessPoolEngine(workers={self.workers})"
