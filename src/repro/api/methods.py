"""Built-in method registrations.

The paper's compared methods are entries in the method registry, all
driven through :func:`repro.api.optimize`:

* ``moheco`` — the full algorithm (OO + AS + LHS + memetic NM).
* ``oo_only`` — budget allocation without the memetic operators.
* ``fixed_budget`` — AS + LHS with ``n_fixed`` simulations per feasible
  candidate (the state-of-the-art MC flow the paper compares against).
* ``pswcd`` — the performance-specific worst-case-distance baseline of
  section 3.4, adapted to the common result type.

The first three, ``moheco_mf`` and the screened methods form the MOHECO
family, registered from one backbone table by :mod:`repro.compose.method`.
"""

from __future__ import annotations

import numpy as np

from repro.api.registries import register_method
from repro.baselines.pswcd import PSWCDOptimizer
from repro.core.callbacks import CallbackList
from repro.core.history import OptimizationHistory
from repro.core.moheco import MOHECOResult
from repro.ledger import SimulationLedger
from repro.registry import check_count
from repro.yieldsim.estimator import YieldEstimate

# The MOHECO family registers itself on import.
import repro.compose.method  # noqa: F401

__all__ = []


#: ``pswcd`` overrides -> (default, least allowed value); DE needs 4 members.
_PSWCD_OVERRIDES = {
    "n_train": (200, 1),
    "pop_size": (30, 4),
    "max_generations": (40, 1),
    "patience": (10, 1),
}


def _pswcd_settings(overrides: dict) -> dict:
    """The ``pswcd`` overrides, checked, with defaults filled in.

    The run and the spec validators (as ``run_pswcd.validate_overrides``)
    share this one rule.
    """
    unknown = set(overrides) - set(_PSWCD_OVERRIDES)
    if unknown:
        raise TypeError(
            f"pswcd accepts {'/'.join(_PSWCD_OVERRIDES)}, got unexpected "
            f"overrides: {sorted(unknown)}"
        )
    return {
        name: check_count(name, overrides.get(name, default), minimum)
        for name, (default, minimum) in _PSWCD_OVERRIDES.items()
    }


@register_method("pswcd")
def run_pswcd(
    problem,
    *,
    rng=None,
    ledger=None,
    callbacks=None,
    engine=None,
    **overrides,
):
    """PSWCD sizing, adapted to the common :class:`MOHECOResult` shape.

    ``best_yield`` is the method's own (pessimistic) worst-case yield bound
    — exactly the quantity whose over-design the paper criticises; score it
    against :func:`repro.yieldsim.reference_yield` to see the gap.
    ``overrides`` are the keys of ``_PSWCD_OVERRIDES``.

    Callback support is partial: PSWCD drives a plain DE loop with no
    staged yield estimation, so only ``on_run_start`` and ``on_stop`` fire;
    generation-level observers (``ProgressCallback``, ``EarlyStopOnYield``)
    have nothing to hook into here.  The ``engine`` argument is likewise
    accepted but unused — PSWCD performs no Monte-Carlo refinement rounds,
    so there is nothing for an execution backend to fuse.
    """
    settings = _pswcd_settings(overrides)
    ledger = ledger if ledger is not None else SimulationLedger()
    callbacks = CallbackList(callbacks)
    optimizer = PSWCDOptimizer(
        problem, n_train=settings.pop("n_train"), rng=rng, ledger=ledger
    )
    callbacks.on_run_start(optimizer)
    best_x, _, analysis = optimizer.run(**settings)
    result = MOHECOResult(
        best_x=np.asarray(best_x, dtype=float),
        best_yield=analysis.yield_bound,
        best_estimate=YieldEstimate(passes=0, n=0),
        generations=optimizer.de_result.generations,
        n_simulations=ledger.total,
        reason="pswcd",
        history=OptimizationHistory(),
        ledger=ledger,
    )
    callbacks.on_stop(optimizer, result)
    return result


run_pswcd.validate_overrides = _pswcd_settings
run_pswcd.description = (
    "Performance-specific worst-case-distance sizing baseline "
    "(section 3.4); best_yield is its pessimistic worst-case bound"
)
