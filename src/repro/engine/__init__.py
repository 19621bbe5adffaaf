"""Execution engines: how a round of candidate refinements is simulated.

The algorithm layer (OCBA stage 1, stage-2 promotion, the fixed-budget
baseline, memetic local search) describes *what* to refine — ``(candidate,
k_i samples)`` per round — and an :class:`~repro.engine.base.EvaluationEngine`
decides *how* to execute it:

* :class:`~repro.engine.serial.SerialEngine` (``"serial"``, the default) —
  fuses each round into stacked ``(sum(k_i), ...)`` dispatches, streamed
  in groups of at most one evaluator slab
  (:data:`~repro.problems.base.SLAB_ROWS` rows) so that a stage-2 round of
  tens of thousands of rows never holds more than one group's samples.
  Its ``refine_round`` is the round template of every built-in backend;
  the pool below overrides only where (and in how large groups) the
  fused dispatches are simulated.
* :class:`~repro.engine.process.ProcessPoolEngine` (``"process"``, opt-in)
  — shards each dispatch, one slab per worker, across ``workers`` worker
  processes.  It pays off only when a row costs more than its IPC: on the
  shipped problems serial is faster (``BENCH_engine.json``).

All backends are seed-reproducible against each other: sample draws stay in
per-candidate RNG streams in the parent process, so only the *execution* of
the simulations moves.  Engines resolve by name through :data:`ENGINES`
(``repro.api.register_engine`` adds third-party backends), surface on
:class:`~repro.api.spec.RunSpec` as the ``engine`` field, and on the CLI as
``repro run --engine``.

Any backend can additionally carry a **warm-start evaluation cache**
(:mod:`repro.engine.cache`, resolved by name through :data:`CACHES` /
``RunSpec.cache`` / ``--cache``): each group of a round is partitioned
into content-hash hits and misses in the parent, only the misses are
simulated, and replayed rows are credited in the ledger's ``cached``
column without moving the paper-accounting totals.
"""

from repro.engine.base import EvaluationEngine
from repro.engine.cache import (
    CACHES,
    CacheStats,
    EvaluationCache,
    LRUEvaluationCache,
    make_cache,
)
from repro.engine.process import ProcessPoolEngine
from repro.engine.serial import SerialEngine
from repro.registry import Registry

__all__ = [
    "EvaluationEngine",
    "SerialEngine",
    "ProcessPoolEngine",
    "ENGINES",
    "make_engine",
    "EvaluationCache",
    "LRUEvaluationCache",
    "CacheStats",
    "CACHES",
    "make_cache",
]

#: Name -> execution-engine class; the API layer resolves through it.
ENGINES: Registry = Registry("engine")
ENGINES.register("serial", SerialEngine)
ENGINES.register("process", ProcessPoolEngine)


def make_engine(kind, **kwargs) -> EvaluationEngine:
    """Coerce ``kind`` into an engine instance.

    Accepts an existing :class:`EvaluationEngine` (returned unchanged;
    ``kwargs`` are rejected), a registry name (instantiated with
    ``kwargs``), or ``None`` (the default :class:`SerialEngine`).
    """
    if kind is None:
        return SerialEngine(**kwargs)
    if isinstance(kind, EvaluationEngine):
        if kwargs:
            raise TypeError(
                "engine parameters only apply when the engine is resolved "
                "by name; configure the instance directly instead"
            )
        return kind
    return ENGINES.create(kind, **kwargs)
