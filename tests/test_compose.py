"""The surrogate screen of the screened methods: screening, determinism.

The load-bearing contracts:

* ``moheco_screened`` and ``fixed_budget_screened`` are their backbones
  with MOHECO's optional screen on (``screen_params``); without
  ``screen_params`` (or with ``None``) they run the default screen.
* Screening happens before the step-3 feasibility gate, so a pruned
  trial charges **zero** simulations — the ledger's ``pruned`` column
  counts it instead.
* ``screen_trace`` is part of the result identity: bit-identical across
  engines.
* Bad ``screen_params`` fail at spec-validation time as structured
  :class:`~repro.api.errors.SpecError`, not inside a queued run.
"""

import json

import numpy as np
import pytest

from repro.api import (
    RunSpec,
    SpecError,
    optimize,
    validate_run_spec,
    validate_sweep_spec,
)
from repro.api.cli import main as cli_main
from repro.api.registries import METHODS
from repro.compose import SurrogateScreener
from repro.core.config import MOHECOConfig
from repro.core.moheco import MOHECO, MOHECOResult, select_one_to_one
from repro.core.state import Individual
from repro.ledger import SimulationLedger
from repro.problems import make_problem
from repro.sweep.spec import SweepSpec
from test_engine import PerCandidateEngine

# Small enough for sub-second runs, large enough to leave the screener's
# fallback mode within a couple of generations (8 parents/generation).
CONFIG = dict(pop_size=8, max_generations=4, n0=20, n_max=100)
SCREEN = {"min_train": 8, "keep_fraction": 0.5}


def _run(method="moheco_screened", seed=11, screen_params=SCREEN, **kwargs):
    overrides = dict(CONFIG)
    if screen_params is not None:
        overrides["screen_params"] = dict(screen_params)
    spec = RunSpec(problem="quadratic", method=method, seed=seed, overrides=overrides)
    return optimize(spec, **kwargs)


class TestScreenedMethods:
    def test_screened_methods_registered(self):
        for name in ("moheco_screened", "fixed_budget_screened"):
            assert "surrogate" in METHODS.get(name).description


class TestSurrogateScreener:
    def _trained(self, n=40, seed=0, **kwargs):
        screener = SurrogateScreener(
            min_train=10, n_hidden=4, max_iterations=20, rng=seed, **kwargs
        )
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 1, size=(n, 2))
        # Yield peaks at the centre of the box.
        for x in xs:
            screener.observe(x, float(1.0 - np.sum((x - 0.5) ** 2)))
        return screener

    def test_fallback_keeps_all_below_min_train(self):
        screener = SurrogateScreener(min_train=30, rng=0)
        for i in range(10):
            screener.observe(np.array([i, i]), 0.5)
        mask, record = screener.screen(np.zeros((6, 2)), generation=1)
        assert mask.all()
        assert record["mode"] == "fallback"
        assert record["train_rows"] == 10
        assert record["pruned"] == []

    def test_calibrated_keep_fraction(self):
        screener = self._trained(keep_fraction=0.25)
        rng = np.random.default_rng(1)
        mask, record = screener.screen(rng.uniform(0, 1, size=(16, 2)), 1)
        assert record["mode"] == "screened"
        assert record["refit"] is True
        assert mask.sum() == 4  # ceil(0.25 * 16), rank-calibrated
        assert sorted(record["keep"] + record["pruned"]) == list(range(16))
        assert len(record["scores"]) == 16

    def test_screener_prefers_high_yield_region(self):
        screener = self._trained(n=120, keep_fraction=0.5)
        # Half the pool at the yield peak, half far away: the survivors
        # must be dominated by the peak group.
        near = np.full((8, 2), 0.5)
        far = np.full((8, 2), 0.05)
        mask, _ = screener.screen(np.vstack([near, far]), 1)
        assert mask[:8].sum() > mask[8:].sum()

    def test_min_keep_floor(self):
        screener = self._trained(keep_fraction=0.01, min_keep=3)
        mask, _ = screener.screen(np.random.default_rng(2).uniform(size=(10, 2)), 1)
        assert mask.sum() == 3

    def test_refit_cadence(self):
        screener = self._trained(refit_every=2)
        xs = np.random.default_rng(3).uniform(size=(8, 2))
        records = [screener.screen(xs, g)[1] for g in (1, 2, 3)]
        assert [r["refit"] for r in records] == [True, False, True]

    def test_same_seed_same_decisions(self):
        records = []
        for _ in range(2):
            screener = self._trained(seed=7)
            xs = np.random.default_rng(4).uniform(size=(12, 2))
            records.append(screener.screen(xs, 1)[1])
        assert records[0] == records[1]

    def test_records_are_json_compatible(self):
        screener = self._trained()
        _, record = screener.screen(np.random.default_rng(5).uniform(size=(6, 2)), 1)
        assert json.loads(json.dumps(record)) == record

    @pytest.mark.parametrize(
        "params",
        [
            {"keep_fraction": 0.0},
            {"keep_fraction": 1.5},
            {"min_train": 1},
            {"min_keep": 0},
            {"refit_every": 0},
            {"n_hidden": 0},
            {"max_train": 0},
            {"bogus": 1},
        ],
    )
    def test_bad_params_rejected(self, params):
        with pytest.raises(ValueError):
            SurrogateScreener(rng=0, **params)


class TestSelections:
    def _pair(self, parent_yield, trial_yield):
        class Fixed(Individual):
            def __init__(self, value):
                super().__init__(np.zeros(2), True, 0.0, None)
                self._value = value

            @property
            def yield_value(self):
                return self._value

        return [Fixed(parent_yield)], [Fixed(trial_yield)]

    def test_one_to_one_trial_wins_ties(self):
        population, trials = self._pair(0.5, 0.5)
        select_one_to_one(population, trials)
        assert population[0] is trials[0]


class TestComposedRun:
    def test_screen_trace_on_result(self):
        result = _run()
        assert result.screen_trace is not None
        assert len(result.screen_trace) == result.generations
        assert {rec["mode"] for rec in result.screen_trace} <= {
            "fallback",
            "screened",
        }
        # Gen 0 seeds the training set with pop_size rows (min_train ==
        # pop_size here), but the initial quadratic population's yields
        # are constant, so generation 1 takes the no-signal fallback;
        # screening engages as soon as the targets spread.
        assert result.screen_trace[0]["mode"] == "fallback"
        assert any(rec["mode"] == "screened" for rec in result.screen_trace)
        assert result.ledger.pruned > 0

    def test_pruned_trials_charge_zero_simulations(self):
        # With local search off, the only feasibility sims are the gen-0
        # population plus every *kept* trial: pruned rows charge nothing.
        spec = RunSpec(
            problem="quadratic",
            method="moheco_screened",
            seed=11,
            overrides={
                **CONFIG,
                "use_memetic": False,
                "screen_params": dict(SCREEN),
            },
        )
        result = optimize(spec)
        kept = sum(len(rec["keep"]) for rec in result.screen_trace)
        pruned = sum(len(rec["pruned"]) for rec in result.screen_trace)
        assert pruned > 0
        assert result.ledger.pruned == pruned
        assert result.ledger.count("feasibility") == CONFIG["pop_size"] + kept

    def test_screened_spends_less_than_unscreened(self):
        screened = _run()
        unscreened = _run("moheco", screen_params=None)
        assert screened.n_simulations < unscreened.n_simulations

    def test_none_screen_params_run_the_default_screen(self):
        # ``--set screen_params=None`` reaches the runner as a None value.
        specs = [
            RunSpec(
                problem="quadratic",
                method="moheco_screened",
                seed=11,
                overrides={**CONFIG, "screen_params": params},
            )
            for params in (None, {})
        ]
        validate_run_spec(specs[0])
        default_none, default = (optimize(spec) for spec in specs)
        assert default_none.screen_trace
        assert default_none.identity_dict() == default.identity_dict()

    def test_result_roundtrip_preserves_screen_trace(self):
        result = _run()
        rebuilt = MOHECOResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.screen_trace == result.screen_trace
        assert rebuilt.ledger.pruned == result.ledger.pruned
        assert rebuilt.identity_dict() == result.identity_dict()

    def test_screen_trace_is_part_of_identity(self):
        result = _run()
        identity = result.identity_dict()
        assert identity["screen_trace"] == result.screen_trace
        assert identity["ledger"]["pruned"] == result.ledger.pruned

    def test_composed_driver_runs_directly(self):
        result = MOHECO(
            make_problem("quadratic"),
            MOHECOConfig(n_max=100, pop_size=8, max_generations=3, n0=20),
            screen_params=SCREEN,
            rng=3,
        ).run()
        assert result.screen_trace

    def test_pruned_placeholder_never_enters_population(self):
        # An inf-violation placeholder must lose one-to-one selection to
        # any real parent, so the final population holds no pruned trials.
        result = _run(screen_params={"min_train": 8, "keep_fraction": 0.3})
        assert np.isfinite(result.best_yield)
        assert result.best_estimate.n > 0


class TestDeterminism:
    def test_engines_bit_identical(self):
        # The fused engine against one refine per candidate.
        baseline = _run(engine="serial")
        result = _run(engine=PerCandidateEngine())
        assert result.identity_dict() == baseline.identity_dict()
        assert result.screen_trace == baseline.screen_trace


class TestSpecValidation:
    def _spec(self, method="moheco_screened", **overrides):
        return RunSpec(problem="sphere", method=method, overrides=overrides)

    def test_good_spec_passes(self):
        validate_run_spec(
            self._spec(screen_params={"keep_fraction": 0.5}, pop_size=10)
        )

    def test_bad_knob_value(self):
        with pytest.raises(SpecError, match="keep_fraction"):
            validate_run_spec(self._spec(screen_params={"keep_fraction": 2.0}))

    def test_unknown_knob(self):
        with pytest.raises(SpecError, match="unknown screen_params"):
            validate_run_spec(self._spec(screen_params={"bogus": 1}))

    def test_non_dict_screen_params(self):
        with pytest.raises(SpecError, match="must be a dict"):
            validate_run_spec(self._spec(screen_params="0.5"))

    def test_screen_params_on_screenerless_method(self):
        with pytest.raises(SpecError, match="unknown config override.*screen_params"):
            validate_run_spec(self._spec("moheco", screen_params={"min_train": 8}))

    def test_unknown_config_override_still_rejected(self):
        with pytest.raises(SpecError, match="unknown config override"):
            validate_run_spec(self._spec(pop_sise=8))

    def test_sweep_spec_validation(self):
        spec = SweepSpec.from_dict(
            {
                "methods": [
                    {
                        "method": "moheco_screened",
                        "overrides": {"screen_params": {"keep_fraction": 9.0}},
                    }
                ],
                "problems": [{"problem": "sphere"}],
            }
        )
        with pytest.raises(SpecError, match=r"methods\[0\].overrides"):
            validate_sweep_spec(spec)

    def test_bad_params_fail_at_run_submission(self):
        with pytest.raises(ValueError, match="keep_fraction"):
            _run(screen_params={"keep_fraction": -1.0})


class TestCLI:
    def test_list_methods_shows_descriptions(self, capsys):
        assert cli_main(["list", "methods"]) == 0
        out = capsys.readouterr().out
        for name in ("moheco_screened", "fixed_budget_screened"):
            assert name in out
        assert "BagNet-style" in out

    def test_run_with_screen_params(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = cli_main(
            [
                "run",
                "--problem",
                "quadratic",
                "--method",
                "moheco_screened",
                "--seed",
                "7",
                "--set",
                "pop_size=8",
                "--set",
                "max_generations=3",
                "--set",
                "n_max=100",
                "--set",
                "screen_params={'min_train': 8}",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        trace = payload["result"]["screen_trace"]
        assert trace and trace[0]["mode"] in ("fallback", "screened")
        assert payload["result"]["ledger"]["pruned"] > 0

    def test_bad_screen_params_exit_cleanly(self):
        with pytest.raises(SystemExit, match="keep_fraction"):
            cli_main(
                [
                    "run",
                    "--problem",
                    "quadratic",
                    "--method",
                    "moheco_screened",
                    "--set",
                    "screen_params={'keep_fraction': 5.0}",
                ]
            )


class TestLedgerPruned:
    def test_record_and_serialize(self):
        ledger = SimulationLedger()
        ledger.record_pruned(4)
        ledger.record_pruned(2)
        assert ledger.pruned == 6
        assert ledger.snapshot().pruned == 6
        rebuilt = SimulationLedger.from_dict(ledger.to_dict())
        assert rebuilt.pruned == 6
        ledger.reset()
        assert ledger.pruned == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulationLedger().record_pruned(-1)

    def test_pruned_candidates_do_not_move_totals(self):
        ledger = SimulationLedger()
        ledger.record_pruned(10)
        assert ledger.total == 0
