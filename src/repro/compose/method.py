"""The MOHECO method family: backbones, screened methods, one runner.

Every MOHECO-family method is a config over one of the :data:`BACKBONES`
— a :class:`~repro.core.config.MOHECOConfig` factory and its budget
argument.  Each backbone registers as a plain method (``moheco``,
``oo_only``, ``fixed_budget``, ``moheco_mf``), and a screened method
(``moheco_screened``, ``fixed_budget_screened``) runs its backbone with
the surrogate screen of :mod:`repro.compose.screeners` on.  Every method
takes the config overrides its backbone accepts (``pop_size``, ``n_max``,
``allocation``, ...) and the per-run ``mf_params`` dict when stage 1
climbs a fidelity ladder (``allocation="ladder"``, as ``moheco_mf``
does); a screened method also takes the per-run ``screen_params`` dict.
:func:`moheco_runner` builds the registry runner of all of them.

Screening happens *before* the step-3 feasibility check, so a pruned
trial charges zero simulations; the ledger's ``pruned`` column counts
them, and every decision is appended to ``MOHECOResult.screen_trace``
(part of the result identity, bit-identical across engines).
"""

from __future__ import annotations

import dataclasses
from functools import partial

from repro.api.registries import register_method
from repro.compose.screeners import make_screener
from repro.core.config import MOHECOConfig
from repro.core.moheco import MOHECO
from repro.mf.driver import ladder_allocation
from repro.sampling import SAMPLERS

__all__ = ["BACKBONES", "moheco_runner"]

#: Backbone name -> (MOHECOConfig factory, its budget-argument name, the
#: description of the plain method registered under the same name).
BACKBONES = {
    "moheco": (
        MOHECOConfig.moheco,
        "n_max",
        "The paper's full algorithm: OCBA budget allocation + acceptance "
        "sampling + LHS + memetic Nelder-Mead local search",
    ),
    "oo_only": (
        MOHECOConfig.oo_only,
        "n_max",
        "Ablation: OCBA budget allocation without the memetic operators",
    ),
    "fixed_budget": (
        MOHECOConfig.fixed_budget,
        "n_fixed",
        "State-of-the-art Monte-Carlo baseline: n_fixed simulations per "
        "feasible candidate",
    ),
    "moheco_mf": (
        partial(MOHECOConfig.moheco, allocation="ladder"),
        "n_max",
        "Multi-fidelity MOHECO: stage 1 climbs a Hyperband-style ladder "
        "over the MC sample count",
    ),
}


def moheco_runner(backbone: str, description: str, *, screened: bool = False):
    """The method-registry runner of one MOHECO-family method.

    ``backbone`` names the :data:`BACKBONES` row; ``screened`` puts the
    surrogate screen in front of the feasibility gate, configured by the
    run's ``screen_params`` (the default screen when there are none, or
    when they are ``None``).  The backbone's budget alias
    (``n_max``/``n_fixed``) routes to its factory while every other
    override goes through ``with_overrides`` — so a config-field override
    that shadows the alias (e.g. ``n_fixed=50, n_max=60``) wins instead of
    colliding.  The runner carries the standard method-registry extras:

    * ``validate_overrides`` — builds the config, resolves its sampler,
      and builds the ladder from the run's ``mf_params`` and the screen
      from its ``screen_params`` without running, so bad overrides
      (unknown names, a stage-1 budget that cannot cover the pilot
      samples, an impossible rung schedule, bad screener knobs,
      ``screen_params`` on an unscreened method) fail at submission time
      as a structured :class:`~repro.api.errors.SpecError`;
    * ``description`` — the one-liner ``repro list methods`` prints.
    """
    config_factory, budget_arg, _ = BACKBONES[backbone]
    config_fields = {field.name for field in dataclasses.fields(MOHECOConfig)}

    def split(overrides: dict) -> tuple[MOHECOConfig, dict | None, dict | None]:
        """Overrides -> (validated config, mf_params, screen_params)."""
        overrides = dict(overrides)
        mf_params = overrides.pop("mf_params", None)
        screen_params = None
        if screened:
            screen_params = overrides.pop("screen_params", None)
            if screen_params is None:
                screen_params = {}
        factory_kwargs = (
            {budget_arg: overrides.pop(budget_arg)} if budget_arg in overrides else {}
        )
        unknown = set(overrides) - config_fields
        if unknown:
            raise ValueError(
                f"unknown config override(s) {sorted(unknown)}; valid fields: "
                f"{', '.join(sorted(config_fields | {budget_arg}))}"
            )
        config = config_factory(**factory_kwargs).with_overrides(**overrides)
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
    runner.description = str(description)
    return runner


# -- the shipped methods ------------------------------------------------------
for _backbone, (_, _, _description) in BACKBONES.items():
    register_method(_backbone, moheco_runner(_backbone, _description))

register_method(
    "moheco_screened",
    moheco_runner(
        "moheco",
        description=(
            "MOHECO with a BagNet-style online surrogate pruning the trial "
            "pool before simulation"
        ),
        screened=True,
    ),
)

register_method(
    "fixed_budget_screened",
    moheco_runner(
        "fixed_budget",
        description=(
            "Fixed-budget Monte-Carlo baseline with the surrogate screen in "
            "front of the simulator"
        ),
        screened=True,
    ),
)
