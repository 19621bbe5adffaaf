"""The execution-engine protocol and the round helpers every backend shares.

An :class:`EvaluationEngine` executes one *round* of refinement requests —
``(candidate state_i, k_i additional samples)`` for many candidates at once
— and updates every candidate's running yield estimate.  The OCBA loop,
the pilot-``n0`` phase, stage-2 promotions and the fixed-budget baseline
all submit their per-round work through this interface, which is what lets
a backend fuse the simulations into one stacked dispatch
(:class:`~repro.engine.serial.SerialEngine`, whose ``refine_round`` is the
one round template the built-in backends share) and then simulate that
dispatch in-process or on worker processes
(:class:`~repro.engine.process.ProcessPoolEngine`).

Reproducibility contract
------------------------
Sample *generation* always happens in the caller's process, per candidate,
from each candidate's private RNG stream
(:meth:`~repro.yieldsim.estimator.CandidateYieldState.prepare`), and the
screener's classification stays local; a backend only simulates the border
band and hands the performance rows back
(:meth:`~repro.yieldsim.estimator.CandidateYieldState.absorb`).  Every
backend therefore produces identical estimates for the same seed — fused,
sharded, or not.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.engine.cache import EvaluationCache
from repro.yieldsim.estimator import CandidateYieldState, PendingRefinement

__all__ = [
    "EvaluationEngine",
    "chunk_pending",
    "collect_pending",
    "evaluate_pending",
    "scatter_round",
    "stack_pending",
]


def collect_pending(
    states: Sequence[CandidateYieldState],
    gains: Sequence[int],
    category: str | None = None,
) -> list[PendingRefinement]:
    """Draw + screen every candidate's block; return the non-empty bands.

    Candidates are prepared in list order so each private RNG stream
    advances exactly as the per-candidate path would advance it.
    """
    pending = []
    for state, gain in zip(states, gains):
        block = state.prepare(int(gain), category)
        if block is not None:
            pending.append(block)
    return pending


def stack_pending(pending) -> tuple[np.ndarray, list[int], np.ndarray]:
    """A run of blocks as plain arrays: ``(designs, sizes, samples)``.

    ``designs`` holds one design row per block, ``sizes`` each block's
    sample count and ``samples`` the stacked sample rows — all a simulator
    needs, and what the process pool ships to its workers.
    """
    return (
        np.stack([block.state.x for block in pending]),
        [block.n_samples for block in pending],
        np.concatenate([block.samples for block in pending]),
    )


def evaluate_pending(problem, pending: list[PendingRefinement]) -> np.ndarray:
    """Simulate a fused round: one stacked dispatch, no ledger side effects.

    Stacks every pending block into one ``(sum(k_i), ...)`` pair matrix
    (each candidate's design row repeated for its own samples) and resolves
    it through ``problem.evaluate_pairs``.  Returns the stacked performance
    matrix in block order.  Ledger charging is the caller's job (workers in
    a process pool must not touch the parent's ledger).
    """
    designs, sizes, samples = stack_pending(pending)
    return problem.evaluate_pairs(np.repeat(designs, sizes, axis=0), samples)


def chunk_pending(pending, chunk_rows: int) -> list[list]:
    """Split blocks into contiguous chunks of roughly ``chunk_rows`` rows.

    Block boundaries are respected (grouped evaluator dispatch stays
    intact); a block larger than ``chunk_rows`` forms its own chunk.  The
    process pool cuts ``ceil(rows / workers)``-row chunks, one per worker,
    so the boundaries depend only on the round and the worker count.
    """
    chunks, current, rows = [], [], 0
    for block in pending:
        current.append(block)
        rows += block.n_samples
        if rows >= chunk_rows:
            chunks.append(current)
            current, rows = [], 0
    if current:
        chunks.append(current)
    return chunks


def scatter_round(
    problem,
    pending: list[PendingRefinement],
    performance: np.ndarray,
    hit_rows: Sequence[int] | None = None,
    cache: EvaluationCache | None = None,
) -> None:
    """Charge ledgers and feed each block its performance rows back.

    The margin matrix and the per-block pass counts are computed once on
    the stacked round — two vectorized ops instead of one ``specs.margins``
    + one boolean reduction per candidate — and each state receives its
    pre-sliced share.

    ``hit_rows[i]`` counts the rows of block ``i`` that were replayed from
    ``cache`` instead of simulated (under block keying that is all-or-none;
    sample keying can replay part of a block).  Replayed rows are recorded
    under the ledger's ``cached`` column and — unless the cache opted into
    ``count_hits=False`` — still charged to the block's category, so the
    paper-accounting totals match a cache-off run exactly.
    """
    margins = problem.specs.margins(performance)
    passed = np.all(margins >= 0.0, axis=1)
    sizes = [block.n_samples for block in pending]
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)
    pass_counts = np.add.reduceat(passed, starts)
    offset = 0
    for i, (block, size, n_passed) in enumerate(zip(pending, sizes, pass_counts)):
        ledger = block.state.ledger
        if ledger is not None:
            replayed = 0 if hit_rows is None else int(hit_rows[i])
            if replayed:
                ledger.record_cached(replayed)
            charged = size if cache is None or cache.count_hits else size - replayed
            if charged > 0:
                ledger.charge(charged, category=block.category)
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

    Engines are resolved by name through :data:`repro.engine.ENGINES`
    (``MOHECO(engine=...)``, ``RunSpec.engine``, ``repro run --engine``).
    A third-party backend (``repro.api.register_engine``) implements
    :meth:`refine_round`; the built-in ones subclass
    :class:`~repro.engine.serial.SerialEngine` and override only where a
    round's simulations run.  Engines hold no per-run state beyond
    optional worker resources, so one engine instance can serve many runs;
    call :meth:`close` (or use the engine as a context manager) to release
    worker resources.
    """

    #: Registry name of the backend.
    name: str = "base"

    #: Optional warm-start cache consulted on every refinement round.  The
    #: MOHECO loop attaches the run's cache here (:mod:`repro.engine.cache`);
    #: backends partition each round into hits and misses in the parent
    #: process, simulate only the misses, and splice the replayed rows back
    #: — ledger-faithfully — via :func:`scatter_round`.
    cache: EvaluationCache | None = None

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
        keeps each state's own category.
        """

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent."""

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"

