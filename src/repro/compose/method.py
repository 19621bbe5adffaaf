"""The MOHECO method family: backbones, composed methods, one runner.

Every MOHECO-family method is a config over one of the :data:`BACKBONES`
— a :class:`~repro.core.config.MOHECOConfig` factory and its budget
argument.  Each backbone registers as a plain method (``moheco``,
``oo_only``, ``fixed_budget``, ``moheco_mf``); a composed method adds a
four-field config naming its parts, and :func:`register_composed_method`
turns it into a full method-registry entry —

::

    register_composed_method(
        "moheco_screened",
        {
            "screener": "surrogate",
            "proposer": "de",
            "selection": "one_to_one",
            "backbone": "moheco",
        },
        description="...",
    )

The parts resolve by name from :mod:`repro.compose.parts`.  Every method
takes the config overrides its backbone accepts (``pop_size``, ``n_max``,
``allocation``, ...), the per-run ``mf_params`` dict when stage 1 climbs a
fidelity ladder (``allocation="ladder"``, as ``moheco_mf`` does), and a
composed method also the per-run ``screen_params`` dict for its screener.
:func:`moheco_runner` builds the registry runner of all of them.

:class:`ComposedMOHECO` is the one driver subclass behind every composed
config: a MOHECO subclass that swaps the three composable loop stages
(`_propose_trials`, `_make_trials`, `_select`) for the named parts.
Screening happens in ``_make_trials`` — *before* the step-3 feasibility
check — so a pruned trial charges zero simulations; the ledger's
``pruned`` column counts them, and every decision is appended to
``MOHECOResult.screen_trace`` (part of the result identity,
bit-identical across engines and caches).
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np

from repro.api.registries import register_method
from repro.compose.parts import (
    get_selection,
    make_proposer,
    make_screener,
    register_selection,
)
from repro.core.config import MOHECOConfig
from repro.core.moheco import MOHECO, select_one_to_one
from repro.core.state import Individual
from repro.mf.driver import ladder_allocation
from repro.optim.constraints import deb_better
from repro.rng import spawn
from repro.sampling import SAMPLERS

# Part implementations register themselves on import.
import repro.compose.proposers  # noqa: F401
import repro.compose.screeners  # noqa: F401

__all__ = [
    "BACKBONES",
    "ComposedMOHECO",
    "moheco_runner",
    "register_composed_method",
]

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

COMPOSE_FIELDS = ("screener", "proposer", "selection", "backbone")


# -- built-in selection rules ----------------------------------------------
register_selection("one_to_one", select_one_to_one)


@register_selection("greedy")
def select_greedy(population: list[Individual], trials: list[Individual]) -> None:
    """Parent-biased replacement: the trial must *strictly* beat it."""
    for i, trial in enumerate(trials):
        if deb_better(trial.fitness(), population[i].fitness()):
            population[i] = trial


def _normalize_compose(compose: dict) -> dict:
    compose = dict(compose or {})
    unknown = set(compose) - set(COMPOSE_FIELDS) - {"proposer_params"}
    if unknown:
        raise ValueError(
            f"unknown compose field(s) {sorted(unknown)}; valid: "
            f"{', '.join(COMPOSE_FIELDS)}, proposer_params"
        )
    missing = [field for field in COMPOSE_FIELDS if field not in compose]
    if missing:
        raise ValueError(f"compose config is missing field(s) {missing}")
    if compose["backbone"] not in BACKBONES:
        raise ValueError(
            f"unknown backbone {compose['backbone']!r}; valid: "
            f"{', '.join(sorted(BACKBONES))}"
        )
    return compose


class ComposedMOHECO(MOHECO):
    """MOHECO with its composable loop stages swapped for named parts.

    Parameters (on top of :class:`~repro.core.moheco.MOHECO`)
    ---------------------------------------------------------
    compose:
        The ``{screener, proposer, selection, backbone}`` config (part
        names; ``backbone`` is informational here — the caller resolves
        it to the ``config`` argument).  An optional ``proposer_params``
        dict configures the proposer statically.
    screen_params:
        Per-run screener knobs (validated by the screener constructor).

    The screener's randomness comes from one stream spawned off the
    optimizer RNG *at construction* — before any population draw — so its
    decisions depend only on the seed and the engine-invariant estimation
    results, never on backend, worker count or cache state.
    """

    def __init__(
        self,
        problem,
        config: MOHECOConfig | None = None,
        *,
        compose: dict,
        screen_params: dict | None = None,
        **kwargs,
    ) -> None:
        super().__init__(problem, config, **kwargs)
        self.compose = _normalize_compose(compose)
        self._screener = make_screener(
            self.compose["screener"], screen_params, rng=spawn(self.rng)
        )
        self._proposer = make_proposer(
            self.compose["proposer"], self.compose.get("proposer_params")
        )
        self._selection = get_selection(self.compose["selection"])
        self._screen_trace = []

    # -- composable stages --------------------------------------------------
    def _propose_trials(
        self, population: list[Individual], best_index: int
    ) -> np.ndarray:
        return self._proposer.propose(self, population, best_index)

    def _make_trials(self, trial_xs: np.ndarray) -> list[Individual]:
        """Screen, then feasibility-gate only the survivors.

        Pruned rows become dead placeholder individuals (infeasible with
        infinite violation, so no selection rule can ever adopt them)
        that keep the trial list index-aligned with the population for
        one-to-one selection.  They are charged to the ledger's
        ``pruned`` column, not its simulation counters.
        """
        generation = len(self._screen_trace) + 1
        keep_mask, record = self._screener.screen(trial_xs, generation)
        self._screen_trace.append(record)
        n_pruned = int(np.count_nonzero(~keep_mask))
        if n_pruned:
            self.ledger.record_pruned(n_pruned)
        kept = iter(self._new_individuals(trial_xs[keep_mask]))
        trials = []
        for keep, x in zip(keep_mask, trial_xs):
            if keep:
                trials.append(next(kept))
            else:
                placeholder = Individual(x, False, float("inf"), None)
                placeholder.pruned = True
                trials.append(placeholder)
        return trials

    def _estimate_population(self, individuals: list[Individual]):
        """Estimate, then feed every *evaluated* candidate to the screener.

        The gen-0 population and each generation's surviving trials both
        pass through here, so the screener's training set is exactly what
        the run has already paid to learn: feasible candidates with their
        current yield estimate, infeasible ones as hard zeros.  Pruned
        placeholders were never evaluated and are skipped.
        """
        report = super()._estimate_population(individuals)
        for ind in individuals:
            if getattr(ind, "pruned", False):
                continue
            self._screener.observe(ind.x, ind.yield_value if ind.feasible else 0.0)
        return report

    def _select(
        self, population: list[Individual], trials: list[Individual]
    ) -> None:
        self._selection(population, trials)


def moheco_runner(backbone: str, description: str, compose: dict | None = None):
    """The method-registry runner of one MOHECO-family method.

    ``backbone`` names the :data:`BACKBONES` row; ``compose`` is a
    normalized part config, or ``None`` for the plain backbone method.
    The backbone's budget alias (``n_max``/``n_fixed``) routes to its
    factory while every other override goes through ``with_overrides`` —
    so a config-field override that shadows the alias (e.g.
    ``n_fixed=50, n_max=60``) wins instead of colliding.  The runner
    carries the standard method-registry extras:

    * ``validate_overrides`` — builds the config, resolves its sampler,
      and builds the ladder from the run's ``mf_params`` and the screener
      from its ``screen_params`` without running, so bad overrides
      (unknown names, a stage-1 budget that cannot cover the pilot
      samples, an impossible rung schedule, bad screener knobs) fail at
      submission time as a structured :class:`~repro.api.errors.SpecError`;
    * ``description`` — the one-liner ``repro list methods`` prints;
    * ``compose_config`` — the part config of a composed method, for
      introspection and the CLI's composed-config summary.
    """
    config_factory, budget_arg, _ = BACKBONES[backbone]
    config_fields = {field.name for field in dataclasses.fields(MOHECOConfig)}

    def split(overrides: dict) -> tuple[MOHECOConfig, dict | None, dict | None]:
        """Overrides -> (validated config, mf_params, screen_params)."""
        overrides = dict(overrides)
        mf_params = overrides.pop("mf_params", None)
        screen_params = overrides.pop("screen_params", None) if compose else None
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
        cache=None,
        **overrides,
    ):
        config, mf_params, screen_params = split(overrides)
        kwargs = dict(
            ledger=ledger,
            rng=rng,
            callbacks=callbacks,
            engine=engine,
            cache=cache,
            mf_params=mf_params,
        )
        if compose is None:
            return MOHECO(problem, config, **kwargs).run()
        return ComposedMOHECO(
            problem, config, compose=compose, screen_params=screen_params, **kwargs
        ).run()

    def validate_overrides(overrides: dict) -> None:
        config, mf_params, screen_params = split(overrides)
        SAMPLERS.get(config.sampler)
        ladder_allocation(config, mf_params)
        if compose is not None:
            make_screener(compose["screener"], screen_params, rng=0)

    runner.validate_overrides = validate_overrides
    runner.description = str(description)
    if compose is not None:
        runner.compose_config = compose
    return runner


def register_composed_method(
    name: str, compose: dict, description: str, *, overwrite: bool = False
):
    """Turn a part config into a registered method (the ~10-line method).

    Returns the registered :func:`moheco_runner`.
    """
    compose = _normalize_compose(compose)
    # Fail at registration time (not first run) if a part name is unknown
    # or its static params are bad.
    make_screener(compose["screener"], None, rng=0)
    make_proposer(compose["proposer"], compose.get("proposer_params"))
    get_selection(compose["selection"])
    runner = moheco_runner(compose["backbone"], description, compose)
    return register_method(name, runner, overwrite=overwrite)


# -- the shipped methods ------------------------------------------------------
for _backbone, (_, _, _description) in BACKBONES.items():
    register_method(_backbone, moheco_runner(_backbone, _description))

register_composed_method(
    "moheco_screened",
    {
        "screener": "surrogate",
        "proposer": "de",
        "selection": "one_to_one",
        "backbone": "moheco",
    },
    description=(
        "MOHECO with a BagNet-style online surrogate pruning the trial "
        "pool before simulation"
    ),
)

register_composed_method(
    "moheco_lineasy",
    {
        "screener": "none",
        "proposer": "line",
        "selection": "one_to_one",
        "backbone": "moheco",
    },
    description=(
        "MOHECO with LinEasyBO-style 1-D-subspace trial proposals feeding "
        "the memetic loop"
    ),
)

register_composed_method(
    "fixed_budget_screened",
    {
        "screener": "surrogate",
        "proposer": "de",
        "selection": "one_to_one",
        "backbone": "fixed_budget",
    },
    description=(
        "Fixed-budget Monte-Carlo baseline with the surrogate screen in "
        "front of the simulator"
    ),
)
