"""The one driver every entry point funnels through.

:func:`optimize` accepts either a declarative :class:`~repro.api.spec.RunSpec`
or an imperative ``(problem, method=...)`` call, resolves names through the
registries, and dispatches to the registered method runner.  The sweep
executor, the experiment harness, the job service and the CLI all funnel
through this function.
"""

from __future__ import annotations

import json

import numpy as np

from repro.api.registries import METHODS, PROBLEMS
from repro.api.spec import RunSpec
from repro.engine import EvaluationCache, EvaluationEngine, make_cache, make_engine
from repro.registry import Registry
from repro.core.callbacks import Callback
from repro.core.moheco import MOHECOResult
from repro.ledger import SimulationLedger
from repro.problems.base import YieldProblem

# Built-in methods register on import.
import repro.api.methods  # noqa: F401

__all__ = ["optimize", "resolve_problem"]


def resolve_problem(problem, problem_params: dict | None = None) -> YieldProblem:
    """Turn a registry name or an existing problem object into a problem.

    ``problem_params`` are forwarded to the factory for names and rejected
    for ready-made problem objects (they would be silently ignored).
    Anything that is not a :class:`YieldProblem`, including what a
    registered factory returns, raises :class:`TypeError` before any
    simulation runs.
    """
    if isinstance(problem, str):
        problem = PROBLEMS.create(problem, **(problem_params or {}))
    elif problem_params:
        raise TypeError(
            "problem_params only apply when the problem is resolved by "
            "name; pass a configured problem object instead"
        )
    if not isinstance(problem, YieldProblem):
        raise TypeError(
            f"expected a YieldProblem, got {type(problem).__name__}; wrap "
            "the evaluator as YieldProblem(evaluator, specs)"
        )
    return problem


def _cache_namespace(problem, problem_params: dict | None) -> str:
    """The key namespace of a driver-created cache; derived here alone.

    Folding the resolved problem name + factory parameters into every key
    keeps a shared spill file safe across sweep cells: ``sphere`` with
    ``sigma=0.2`` can never replay rows computed for the default sigma.
    Problems passed as ready-made objects have no factory identity here;
    their keys fall back to the problem token alone.
    """
    if not isinstance(problem, str):
        return ""
    return json.dumps(
        {"problem": problem, "problem_params": problem_params or {}},
        sort_keys=True,
        default=str,
    )


def optimize(
    problem,
    method: str | None = None,
    *,
    seed: int | None = None,
    rng: np.random.Generator | int | None = None,
    ledger: SimulationLedger | None = None,
    callbacks: Callback | list[Callback] | None = None,
    problem_params: dict | None = None,
    engine: EvaluationEngine | str | None = None,
    engine_params: dict | None = None,
    cache: EvaluationCache | str | None = None,
    cache_params: dict | None = None,
    **overrides,
) -> MOHECOResult:
    """Run one yield optimization and return its result.

    Two calling styles::

        optimize(RunSpec(problem="sphere", method="moheco", seed=7))
        optimize(my_problem, method="oo_only", seed=7, pop_size=20)

    Parameters
    ----------
    problem:
        A :class:`RunSpec`, a problem-registry name, or a
        :class:`~repro.problems.base.YieldProblem`.
    method:
        Method-registry name; default ``"moheco"``.  When ``problem`` is a
        spec, passing a method that differs from the spec's is an error.
    seed / rng:
        Seed or generator for the run; ``rng`` wins when both are given.
        Either one overrides a spec's ``seed`` field (handy for seed
        sweeps over a base spec).
    ledger:
        Simulation ledger (fresh when omitted).
    callbacks:
        Loop observers (see :class:`~repro.core.callbacks.Callback`).
    problem_params:
        Factory kwargs when ``problem`` is a registry name.
    engine / engine_params:
        Execution backend for the refinement rounds: an engine-registry
        name (``"serial"`` or the opt-in ``"process"``;
        ``engine_params`` go to its factory, e.g. ``workers=4``) or a ready
        :class:`~repro.engine.base.EvaluationEngine` instance.  An engine
        argument overrides the spec's ``engine`` field.  Name-resolved
        engines are closed when the run finishes; instances stay open (the
        caller owns their worker pools).  Backends are seed-equivalent:
        the result is identical, only the wall-clock changes.
    cache / cache_params:
        Warm-start evaluation cache for the refinement rounds: a
        cache-registry name (``"lru"``; ``cache_params`` go to its
        factory, e.g. ``max_bytes=..., spill_path=...``) or a ready
        :class:`~repro.engine.cache.EvaluationCache` instance shared
        across runs.  A cache argument overrides the spec's ``cache``
        field.  Name-resolved caches are namespaced to the resolved
        problem (+ params), and closed — spill flushed — when the run
        finishes; instances are the caller's to share and close.  Replayed
        rows are still charged, so the result is bit-identical to a
        cache-off run.
    **overrides:
        Method/config overrides (``pop_size=20``, ``n_max=300``, ...).

    Returns
    -------
    MOHECOResult
        The common result type all registered methods produce.
    """
    if isinstance(problem, RunSpec):
        spec = problem
        if problem_params:
            raise TypeError("pass problem_params inside the RunSpec, not alongside it")
        if method is not None and Registry._normalize(method) != Registry._normalize(
            spec.method
        ):
            raise TypeError(
                f"conflicting method: spec says {spec.method!r}, argument says "
                f"{method!r}; put the method in the RunSpec or drop the argument"
            )
        method = spec.method
        problem, problem_params = spec.problem, spec.problem_params
        overrides = {**spec.overrides, **overrides}
        if engine is None:
            # An explicit engine= argument beats the spec's engine field
            # (same precedence as seed=).
            engine = spec.engine
            if engine_params is None and spec.engine_params:
                engine_params = spec.engine_params
        if cache is None:
            # Same precedence story for the cache.
            cache = spec.cache
            if cache_params is None and spec.cache_params:
                cache_params = spec.cache_params
        if rng is None:
            # Explicit seed= beats the spec's seed (same precedence as the
            # non-spec path); rng= beats both.
            rng = seed if seed is not None else spec.seed
    elif rng is None:
        rng = seed
    namespace = _cache_namespace(problem, problem_params)
    problem = resolve_problem(problem, problem_params)

    if engine_params:
        if engine is None:
            raise TypeError(
                "engine_params require an engine name (e.g. engine='process')"
            )
        if not isinstance(engine, str):
            raise TypeError(
                "engine_params only apply when the engine is resolved by name; "
                "configure the engine instance directly instead"
            )
    if cache_params:
        if cache is None:
            raise TypeError("cache_params require a cache name (e.g. cache='lru')")
        if not isinstance(cache, str):
            raise TypeError(
                "cache_params only apply when the cache is resolved by name; "
                "configure the cache instance directly instead"
            )

    runner = METHODS.get(method if method is not None else "moheco")
    engine_obj = make_engine(engine, **(engine_params or {})) if engine is not None else None
    owns_engine = engine_obj is not None and not isinstance(engine, EvaluationEngine)
    cache_obj = make_cache(cache, **(cache_params or {})) if cache is not None else None
    owns_cache = cache_obj is not None and not isinstance(cache, EvaluationCache)
    if owns_cache:
        # Keys of driver-created caches carry the resolved problem identity,
        # so one spill file can safely serve many problem configurations.
        cache_obj.namespace = namespace
    try:
        engine_kwargs = {"engine": engine_obj} if engine_obj is not None else {}
        cache_kwargs = {"cache": cache_obj} if cache_obj is not None else {}
        return runner(
            problem,
            rng=rng,
            ledger=ledger,
            callbacks=callbacks,
            **engine_kwargs,
            **cache_kwargs,
            **overrides,
        )
    finally:
        if owns_cache:
            cache_obj.close()
        if owns_engine:
            engine_obj.close()
