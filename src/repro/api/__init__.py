"""The public API facade.

Everything a user (or a deployment) needs is reachable from here:

* **Registries** — :func:`register_method` / :func:`get_method` /
  :func:`list_methods` (and the problem/sampler equivalents) let
  third-party scenarios plug in by name.
* **RunSpec** — a declarative, JSON-round-trippable description of one run.
* **optimize** — the single driver behind every entry point (sweeps,
  experiments, service, CLI).
* **Sweeps** — :class:`~repro.sweep.spec.SweepSpec` grids
  (methods × problems × seeds) executed by
  :func:`~repro.sweep.executor.run_sweep`: whole runs sharded across a
  process pool, bit-identical to serial, with a resumable JSONL
  :class:`~repro.sweep.store.ResultStore`.
* **Callbacks** — observe the generation loop: progress streaming and
  early stopping.
* **Engine** — every Monte-Carlo refinement round runs as fused,
  slab-grouped dispatches on :class:`~repro.engine.serial.SerialEngine`
  (``from repro.engine import SerialEngine``); ``optimize`` accepts
  ``engine="serial"`` and nothing else.
* **Screened methods** — ``moheco_screened`` and
  ``fixed_budget_screened`` run ``moheco`` and ``fixed_budget`` with a
  BagNet-style surrogate screen in front of the simulator, configured by
  the run's ``screen_params`` (:mod:`repro.compose`).
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
    METHODS,
    PROBLEMS,
    SAMPLERS,
    get_method,
    get_problem,
    get_sampler,
    list_methods,
    list_problems,
    list_samplers,
    register_method,
    register_problem,
    register_sampler,
)
from repro.api.spec import RunSpec
from repro.core.callbacks import (
    Callback,
    CallbackList,
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
    "register_method",
    "get_method",
    "list_methods",
    "register_problem",
    "get_problem",
    "list_problems",
    "register_sampler",
    "get_sampler",
    "list_samplers",
    # callbacks
    "Callback",
    "CallbackList",
    "ProgressCallback",
    "SweepProgressCallback",
    "EarlyStopOnYield",
]
