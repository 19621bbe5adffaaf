"""The one driver every entry point funnels through.

:func:`optimize` accepts either a declarative :class:`~repro.api.spec.RunSpec`
or an imperative ``(problem, method=...)`` call, resolves names through the
registries, and dispatches to the registered method runner.  The sweep
executor, the experiment harness, the job service and the CLI all funnel
through this function.
"""

from __future__ import annotations

import numpy as np

from repro.api.registries import METHODS, PROBLEMS
from repro.api.spec import RunSpec
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


def optimize(
    problem,
    method: str | None = None,
    *,
    seed: int | None = None,
    rng: np.random.Generator | int | None = None,
    ledger: SimulationLedger | None = None,
    callbacks: Callback | list[Callback] | None = None,
    problem_params: dict | None = None,
    engine: str | None = None,
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
    engine:
        ``None`` or ``"serial"``; either way every refinement round runs
        on :class:`~repro.engine.serial.SerialEngine`.  Any other value,
        an engine instance included, raises :class:`ValueError`.  Whole
        runs go parallel through ``repro sweep --workers``.
    **overrides:
        Method/config overrides (``pop_size=20``, ``n_max=300``, ...).

    Returns
    -------
    MOHECOResult
        The common result type all registered methods produce.
    """
    if engine is not None and engine != "serial":
        raise ValueError(
            f"unknown engine {engine!r}; expected 'serial' or None (to run in "
            "parallel, shard whole runs with repro sweep --workers)"
        )
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
        if rng is None:
            # Explicit seed= beats the spec's seed (same precedence as the
            # non-spec path); rng= beats both.
            rng = seed if seed is not None else spec.seed
    elif rng is None:
        rng = seed
    problem = resolve_problem(problem, problem_params)

    runner = METHODS.get(method if method is not None else "moheco")
    return runner(problem, rng=rng, ledger=ledger, callbacks=callbacks, **overrides)
