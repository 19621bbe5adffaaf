"""The execution engine: how a round of candidate refinements is simulated.

The algorithm layer (OCBA stage 1, stage-2 promotion, the fixed-budget
baseline, memetic local search) describes *what* to refine — ``(candidate,
k_i samples)`` per round — and an :class:`~repro.engine.base.EvaluationEngine`
decides *how* to execute it.  :class:`~repro.engine.serial.SerialEngine`
is the one built-in engine: it fuses each round into stacked ``(sum(k_i),
...)`` dispatches, streamed in groups of at most one evaluator slab
(:data:`~repro.problems.base.SLAB_ROWS` rows) so that a stage-2 round of
tens of thousands of rows never holds more than one group's samples.
Parallelism lives one level up: ``repro sweep --workers`` shards whole
runs across processes (:mod:`repro.sweep.executor`).

Sample draws stay in per-candidate RNG streams, so an engine only decides
where the simulations run, never what they return: any
:class:`~repro.engine.base.EvaluationEngine` instance passed as
``optimize(engine=...)`` reproduces the seeded result.

The engine can additionally carry a **warm-start evaluation cache**
(:mod:`repro.engine.cache`, resolved by name through :data:`CACHES` /
``RunSpec.cache`` / ``--cache``): each group of a round is partitioned
into content-hash hits and misses, only the misses are simulated, and
replayed rows are credited in the ledger's ``cached`` column without
moving the paper-accounting totals.
"""

from repro.engine.base import EvaluationEngine
from repro.engine.cache import (
    CACHES,
    CacheStats,
    EvaluationCache,
    LRUEvaluationCache,
    make_cache,
)
from repro.engine.serial import SerialEngine

__all__ = [
    "EvaluationEngine",
    "SerialEngine",
    "make_engine",
    "EvaluationCache",
    "LRUEvaluationCache",
    "CacheStats",
    "CACHES",
    "make_cache",
]


def make_engine(kind) -> EvaluationEngine:
    """Coerce ``kind`` into an engine instance.

    Accepts an existing :class:`EvaluationEngine` (returned unchanged),
    ``None`` or ``"serial"`` (a fresh :class:`SerialEngine`).  Any other
    value raises :class:`ValueError`.
    """
    if isinstance(kind, EvaluationEngine):
        return kind
    if kind is None or kind == "serial":
        return SerialEngine()
    raise ValueError(
        f"unknown engine {kind!r}; expected 'serial', None or an "
        "EvaluationEngine instance (to run in parallel, shard whole runs with "
        "repro sweep --workers)"
    )
