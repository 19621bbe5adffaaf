"""The public API facade.

Everything a user (or a deployment) needs is reachable from here:

* **Registries** — :func:`register_method` / :func:`get_method` /
  :func:`list_methods` (and the problem/sampler/engine/cache equivalents) let
  third-party scenarios plug in by name.
* **RunSpec** — a declarative, JSON-round-trippable description of one run.
* **optimize** — the single driver behind every entry point (sweeps,
  experiments, service, CLI).
* **Sweeps** — :class:`~repro.sweep.spec.SweepSpec` grids
  (methods × problems × seeds) executed by
  :func:`~repro.sweep.executor.run_sweep`: whole runs sharded across a
  process pool, bit-identical to serial, with a resumable JSONL
  :class:`~repro.sweep.store.ResultStore`.
* **Callbacks** — observe the generation loop: progress streaming, early
  stopping, checkpointing.
* **Engines** — pluggable execution backends for the Monte-Carlo
  refinement rounds (:mod:`repro.engine`): the fused ``"serial"`` default,
  the sharded ``"process"`` pool, the pilot-measured ``"auto"`` choice —
  all seed-equivalent, selected via ``RunSpec.engine`` or ``--engine``.
* **Caches** — warm-start evaluation caches (:mod:`repro.engine.cache`):
  content-addressed replay of already-simulated sample blocks, with an
  LRU byte budget and an optional JSONL spill file shared across runs;
  ledger-faithful by default, selected via ``RunSpec.cache`` or
  ``--cache``.
* **Composed methods** — :func:`register_composed_method` turns a
  ``{screener, proposer, selection, backbone}`` config into a full method
  entry (:mod:`repro.compose`); the parts plug in by name through the
  :data:`SCREENERS` / :data:`PROPOSERS` / :data:`SELECTIONS` registries.
* **CLI** — ``python -m repro run --problem folded_cascode --seed 7 --out
  result.json`` (:mod:`repro.api.cli`).

Quickstart
----------
>>> from repro.api import RunSpec, optimize
>>> result = optimize(RunSpec(problem="sphere", method="moheco", seed=7))
>>> result.best_yield  # doctest: +SKIP
1.0
"""

from repro.api.driver import optimize, resolve_problem
from repro.api.errors import SpecError, validate_run_spec, validate_sweep_spec
from repro.api.registries import (
    CACHES,
    ENGINES,
    METHODS,
    PROBLEMS,
    SAMPLERS,
    get_cache,
    get_engine,
    get_method,
    get_problem,
    get_sampler,
    list_caches,
    list_engines,
    list_methods,
    list_problems,
    list_samplers,
    register_cache,
    register_engine,
    register_method,
    register_problem,
    register_sampler,
)
from repro.api.spec import RunSpec
from repro.compose import (
    PROPOSERS,
    SCREENERS,
    SELECTIONS,
    get_proposer,
    get_screener,
    get_selection,
    list_proposers,
    list_screeners,
    list_selections,
    register_composed_method,
    register_proposer,
    register_screener,
    register_selection,
)
from repro.engine import (
    CacheStats,
    EvaluationCache,
    EvaluationEngine,
    LRUEvaluationCache,
    ProcessPoolEngine,
    SerialEngine,
    make_cache,
    make_engine,
)
from repro.core.callbacks import (
    Callback,
    CallbackList,
    CheckpointCallback,
    EarlyStopOnYield,
    ProgressCallback,
    SweepProgressCallback,
)
from repro.core.moheco import MOHECOResult
from repro.registry import DuplicateNameError, Registry, UnknownNameError
from repro.sweep import (
    MethodSpec,
    ProblemSpec,
    ResultStore,
    SweepResult,
    SweepSpec,
    run_sweep,
)

__all__ = [
    "optimize",
    "resolve_problem",
    "RunSpec",
    "MOHECOResult",
    # spec validation
    "SpecError",
    "validate_run_spec",
    "validate_sweep_spec",
    # sweeps
    "SweepSpec",
    "MethodSpec",
    "ProblemSpec",
    "SweepResult",
    "ResultStore",
    "run_sweep",
    # registries
    "Registry",
    "DuplicateNameError",
    "UnknownNameError",
    "METHODS",
    "PROBLEMS",
    "SAMPLERS",
    "ENGINES",
    "register_method",
    "get_method",
    "list_methods",
    "register_problem",
    "get_problem",
    "list_problems",
    "register_sampler",
    "get_sampler",
    "list_samplers",
    "register_engine",
    "get_engine",
    "list_engines",
    "CACHES",
    "register_cache",
    "get_cache",
    "list_caches",
    # composed methods and their part registries
    "SCREENERS",
    "PROPOSERS",
    "SELECTIONS",
    "register_screener",
    "get_screener",
    "list_screeners",
    "register_proposer",
    "get_proposer",
    "list_proposers",
    "register_selection",
    "get_selection",
    "list_selections",
    "register_composed_method",
    # engines
    "EvaluationEngine",
    "SerialEngine",
    "ProcessPoolEngine",
    "make_engine",
    # caches
    "EvaluationCache",
    "LRUEvaluationCache",
    "CacheStats",
    "make_cache",
    # callbacks
    "Callback",
    "CallbackList",
    "ProgressCallback",
    "SweepProgressCallback",
    "EarlyStopOnYield",
    "CheckpointCallback",
]
