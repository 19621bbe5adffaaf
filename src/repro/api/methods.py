"""Built-in method registrations.

The paper's compared methods are entries in the method registry, all
driven through :func:`repro.api.optimize`:

* ``moheco`` — the full algorithm (OO + AS + LHS + memetic NM).
* ``oo_only`` — budget allocation without the memetic operators.
* ``fixed_budget`` — AS + LHS with ``n_fixed`` simulations per feasible
  candidate (the state-of-the-art MC flow the paper compares against).
* ``pswcd`` — the performance-specific worst-case-distance baseline of
  section 3.4, adapted to the common result type.

The first three, ``moheco_mf`` and the two screened methods are one
algorithm under different settings, the MOHECO family.  Each is a row of
:data:`MOHECO_FAMILY`: its :class:`~repro.core.config.MOHECOConfig`
field presets, whether it runs the surrogate screen of
:mod:`repro.compose`, and its description.  Retiring one is deleting its
row.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.api.registries import register_method
from repro.baselines.pswcd import PSWCDOptimizer
from repro.compose.screeners import make_screener
from repro.core.callbacks import CallbackList
from repro.core.config import MOHECOConfig
from repro.core.history import OptimizationHistory
from repro.core.moheco import MOHECO, MOHECOResult
from repro.ledger import SimulationLedger
from repro.mf.driver import ladder_allocation
from repro.registry import check_count
from repro.sampling import SAMPLERS
from repro.yieldsim.estimator import YieldEstimate

__all__ = ["MOHECO_FAMILY"]


#: MOHECO-family method -> (its MOHECOConfig field presets, whether it
#: runs the surrogate screen, the one-liner ``repro list methods`` prints).
MOHECO_FAMILY = {
    "moheco": (
        {},
        False,
        "The paper's full algorithm: OCBA budget allocation + acceptance "
        "sampling + LHS + memetic Nelder-Mead local search",
    ),
    "oo_only": (
        {"use_memetic": False},
        False,
        "Ablation: OCBA budget allocation without the memetic operators",
    ),
    "fixed_budget": (
        {"allocation": "fixed", "use_memetic": False},
        False,
        "State-of-the-art Monte-Carlo baseline: n_fixed simulations per "
        "feasible candidate",
    ),
    "moheco_mf": (
        {"allocation": "ladder"},
        False,
        "Multi-fidelity MOHECO: stage 1 climbs a Hyperband-style ladder "
        "over the MC sample count",
    ),
    "moheco_screened": (
        {},
        True,
        "MOHECO with a BagNet-style online surrogate pruning the trial "
        "pool before simulation",
    ),
    "fixed_budget_screened": (
        {"allocation": "fixed", "use_memetic": False},
        True,
        "Fixed-budget Monte-Carlo baseline with the surrogate screen in "
        "front of the simulator",
    ),
}

_CONFIG_FIELDS = {field.name for field in dataclasses.fields(MOHECOConfig)}


def _moheco_runner(presets: dict, screened: bool, description: str):
    """The method-registry runner of one :data:`MOHECO_FAMILY` row.

    Its overrides are ``MOHECOConfig`` fields, which beat the row's
    presets, plus the run's ``mf_params`` (for ``allocation="ladder"``)
    and, on a screened row only, its ``screen_params`` (the default
    screen when absent or ``None``).  A fixed-budget row also takes
    ``n_fixed`` as its name for ``n_max``; an explicit ``n_max`` wins.
    The config is built in one call from all three.

    ``validate_overrides`` builds the config, resolves its sampler and
    builds the ladder and the screen without running, so bad overrides
    fail at submission time as a structured
    :class:`~repro.api.errors.SpecError`.
    """
    accepted = _CONFIG_FIELDS | (
        {"n_fixed"} if presets.get("allocation") == "fixed" else set()
    )

    def split(overrides: dict) -> tuple[MOHECOConfig, dict | None, dict | None]:
        """Overrides -> (validated config, mf_params, screen_params)."""
        overrides = dict(overrides)
        mf_params = overrides.pop("mf_params", None)
        screen_params = None
        if screened:
            screen_params = overrides.pop("screen_params", None)
            if screen_params is None:
                screen_params = {}
        aliased = {}
        if "n_fixed" in accepted and "n_fixed" in overrides:
            aliased["n_max"] = overrides.pop("n_fixed")
        unknown = set(overrides) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(
                f"unknown config override(s) {sorted(unknown)}; valid fields: "
                f"{', '.join(sorted(accepted))}"
            )
        config = MOHECOConfig(**{**presets, **aliased, **overrides})
        return config, mf_params, screen_params

    def runner(
        problem,
        *,
        rng=None,
        ledger=None,
        callbacks=None,
        engine=None,
        **overrides,
    ):
        config, mf_params, screen_params = split(overrides)
        return MOHECO(
            problem,
            config,
            ledger=ledger,
            rng=rng,
            callbacks=callbacks,
            engine=engine,
            mf_params=mf_params,
            screen_params=screen_params,
        ).run()

    def validate_overrides(overrides: dict) -> None:
        config, mf_params, screen_params = split(overrides)
        SAMPLERS.get(config.sampler)
        ladder_allocation(config, mf_params)
        if screen_params is not None:
            make_screener(screen_params, rng=0)

    runner.validate_overrides = validate_overrides
    runner.description = description
    return runner


for _name, _row in MOHECO_FAMILY.items():
    register_method(_name, _moheco_runner(*_row))


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
